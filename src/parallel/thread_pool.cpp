#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sntrust::parallel {

namespace {

std::uint32_t hardware_threads() {
  const std::uint32_t threads = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(threads, 1, kMaxThreads);
}

std::atomic<std::uint32_t> g_override{0};

/// Set while a thread is executing chunks of some region; nested regions on
/// that thread run inline to keep chunk-to-slot binding (and avoid
/// deadlocking the single in-flight job the pool supports).
thread_local bool t_in_region = false;

/// One parallel region in flight. Held by shared_ptr so pool threads that
/// wake late (after every chunk is claimed) can still touch the claim
/// counter safely after the submitting caller returned.
struct Job {
  const ChunkFn* fn = nullptr;
  std::size_t begin = 0;
  std::size_t items = 0;
  std::uint32_t workers = 0;
  std::atomic<std::uint32_t> next_slot{0};
  std::atomic<std::uint32_t> completed{0};
  std::atomic<std::uint64_t> busy_ns{0};   ///< summed chunk wall-clock
  std::vector<std::exception_ptr> errors;  ///< one entry per worker slot
};

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs `job` (workers >= 2): hands chunks to pool threads, participates
  /// from the calling thread, and returns once all chunks completed.
  void run(const std::shared_ptr<Job>& job) {
    // One job in flight at a time; concurrent submitters queue up here.
    std::lock_guard<std::mutex> submit_lock(submit_mutex_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (threads_.size() + 1 < job->workers &&
             threads_.size() + 1 < kMaxThreads)
        threads_.emplace_back([this] { worker_main(); });
      // Pool size including the participating caller; grows monotonically.
      obs::Metrics::instance().gauge("parallel.pool_threads")
          .set(static_cast<double>(threads_.size() + 1));
      job_ = job;
      ++generation_;
    }
    work_cv_.notify_all();
    execute_chunks(*job);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->completed.load(std::memory_order_acquire) == job->workers;
    });
    job_.reset();
  }

 private:
  ThreadPool() = default;

  void worker_main() {
    t_in_region = true;  // chunks this thread runs must not re-enter the pool
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_cv_.wait(lock,
                    [&] { return stop_ || (job_ && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      const std::shared_ptr<Job> job = job_;
      lock.unlock();
      execute_chunks(*job);
      lock.lock();
    }
  }

  /// Claims unclaimed chunks and runs them; used by pool threads and the
  /// submitting caller alike.
  void execute_chunks(Job& job) {
    const bool was_in_region = t_in_region;
    t_in_region = true;
    for (;;) {
      const std::uint32_t slot =
          job.next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= job.workers) break;
      // Static chunking: slot w owns the w-th contiguous cut of the range.
      const std::size_t base = job.items / job.workers;
      const std::size_t extra = job.items % job.workers;
      const std::size_t chunk_begin =
          job.begin + slot * base + std::min<std::size_t>(slot, extra);
      const std::size_t chunk_end = chunk_begin + base + (slot < extra ? 1 : 0);
      const obs::Stopwatch chunk_clock;
      try {
        // Chunk-boundary cancellation: a signal or expired deadline stops
        // unclaimed work before it starts; chunks already running drain.
        exec::check_process_cancel();
        (*job.fn)(chunk_begin, chunk_end, slot);
      } catch (...) {
        job.errors[slot] = std::current_exception();
      }
      job.busy_ns.fetch_add(chunk_clock.elapsed_ns(),
                            std::memory_order_relaxed);
      if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job.workers) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
    t_in_region = was_in_region;
  }

  std::mutex submit_mutex_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

std::uint32_t thread_count() {
  const std::uint32_t overridden = g_override.load(std::memory_order_relaxed);
  if (overridden != 0) return overridden;
  static const std::uint32_t hardware = hardware_threads();
  return hardware;
}

void set_thread_count(std::uint32_t count) {
  g_override.store(std::min(count, kMaxThreads), std::memory_order_relaxed);
}

ScopedThreadCount::ScopedThreadCount(std::uint32_t count)
    : previous_(g_override.load(std::memory_order_relaxed)) {
  set_thread_count(count);
}

ScopedThreadCount::~ScopedThreadCount() {
  g_override.store(previous_, std::memory_order_relaxed);
}

std::uint32_t plan_workers(std::size_t items, std::size_t grain) {
  if (items == 0) return 1;
  if (grain == 0) grain = 1;
  const std::size_t slots = (items + grain - 1) / grain;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(thread_count(), slots));
}

bool in_parallel_region() { return t_in_region; }

void run_chunks(std::size_t begin, std::size_t end, const ChunkFn& fn,
                std::size_t grain) {
  if (begin >= end) return;
  const std::size_t items = end - begin;
  const std::uint32_t workers =
      t_in_region ? 1 : plan_workers(items, grain);
  if (workers <= 1) {
    exec::check_process_cancel();
    fn(begin, end, 0);
    return;
  }

  obs::metrics_counter("parallel.regions").add(1);
  obs::metrics_counter("parallel.chunks").add(workers);
  obs::metrics_counter("parallel.items").add(items);
  obs::Metrics::instance().gauge("parallel.workers").set(workers);

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->begin = begin;
  job->items = items;
  job->workers = workers;
  job->errors.assign(workers, nullptr);
  const obs::Stopwatch region_clock;
  ThreadPool::instance().run(job);
  const std::uint64_t region_ns = region_clock.elapsed_ns();
  // Pool utilization: fraction of the region's worker-seconds spent inside
  // chunks (1.0 = perfectly balanced, no idle workers). Lands in the run
  // report alongside parallel.region_ms so perf diffs see load imbalance.
  if (region_ns > 0) {
    const double busy =
        static_cast<double>(job->busy_ns.load(std::memory_order_relaxed));
    obs::Metrics::instance().gauge("parallel.utilization")
        .set(busy / (static_cast<double>(workers) *
                     static_cast<double>(region_ns)));
  }
  obs::metrics_histogram("parallel.region_ms").observe(region_ns / 1e6);
  for (const std::exception_ptr& error : job->errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace sntrust::parallel
