#include "exec/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "exec/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel.hpp"

namespace sntrust::exec {

namespace {

/// State one sweep shares between its per-source and block forms: restored
/// records and completion flags, the stop decision, checkpoint flushes,
/// latency, and the closing report.
class SweepRun {
 public:
  SweepRun(std::size_t items, const SweepOptions& options)
      : items_(items),
        options_(options),
        source_latency_(obs::metrics_quantile(latency_name(options))),
        store_(CheckpointStore::instance()),
        checkpointing_(store_.armed() && !options.kind.empty()),
        done_(items),
        flush_every_(std::max<std::uint64_t>(1, items / 8)) {
    // Every record has a word or more. The calling thread allocates each
    // slot's first word, and complete() copies a record into its slot, so
    // a one-word record (GateKeeper's budget) leaves nothing in a worker's
    // malloc arena. Records allocated by workers and freed by the caller
    // after the sweep kept those arenas from shrinking: bench/e2e's
    // cold_start peak RSS rose from 23.1 to 27.5 MiB (4 vCPUs).
    result_.records.assign(items, {});
    for (Record& record : result_.records) record.reserve(1);
    // Completion flags: release on record write, acquire before a
    // concurrent flush reads the record. Restored slots are done up front.
    if (checkpointing_) {
      for (auto& [i, record] :
           store_.restore(options.kind, options.fingerprint, items)) {
        result_.records[i] = std::move(record);
        done_[i].store(1, std::memory_order_relaxed);
        ++result_.restored;
      }
    }
  }

  bool done(std::size_t i) const {
    return done_[i].load(std::memory_order_relaxed) != 0;
  }

  /// True once no further source may start: a source threw, or a
  /// cancellation was seen or is pending.
  bool stopping() {
    if (stop_.load(std::memory_order_relaxed)) return true;
    if (!process_cancel_requested()) return false;
    stop();
    return true;
  }

  /// Stops the sweep for a cancellation observed elsewhere, such as a
  /// CancelledError from a nested parallel region.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Stops the sweep for an exception a source or block threw; the first
  /// one recorded is the one the sweep rethrows.
  void fail(std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::move(error);
    }
    stop();
  }

  /// Stores a finished source's record; returns the completed count.
  std::uint64_t complete(std::size_t i, const Record& record,
                         double elapsed_ms) {
    result_.records[i].assign(record.begin(), record.end());
    done_[i].store(1, std::memory_order_release);
    source_latency_.record(elapsed_ms);
    return computed_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t completed() const {
    return computed_.load(std::memory_order_relaxed);
  }

  /// Flushes when the completed count crossed a multiple of the cadence
  /// going from `before` to `after`.
  void flush_if_due(std::uint64_t before, std::uint64_t after) {
    if (checkpointing_ && after / flush_every_ != before / flush_every_)
      flush();
  }

  /// Single-threaded close: saves the checkpoint, then rethrows the first
  /// exception a source threw or throws CancelledError on cancellation.
  SweepResult finish() {
    result_.computed = computed_.load(std::memory_order_relaxed);
    if (checkpointing_) flush();

    obs::count("exec.sources_completed", result_.computed);
    obs::count("exec.sources_restored", result_.restored);

    if (error_) std::rethrow_exception(error_);
    if (stop_.load(std::memory_order_relaxed) || process_cancel_requested()) {
      obs::count("exec.sweeps_cancelled", 1);
      std::string reason = process_cancel_reason();
      if (reason.empty()) reason = "cancelled";
      const std::uint64_t finished = result_.restored + result_.computed;
      throw CancelledError("sweep '" + options_.kind + "' cancelled after " +
                           std::to_string(finished) + "/" +
                           std::to_string(items_) + " sources (" + reason +
                           ")");
    }
    return std::move(result_);
  }

 private:
  static std::string latency_name(const SweepOptions& options) {
    return options.kind.empty() ? "sweep.source_ms"
                                : "sweep." + options.kind + ".source_ms";
  }

  // Snapshot only slots whose done flag is visible; reading a record that
  // another worker is still assigning would be a race.
  void flush() {
    Records snapshot;
    for (std::size_t i = 0; i < items_; ++i)
      if (done_[i].load(std::memory_order_acquire))
        snapshot.emplace(i, result_.records[i]);
    store_.save(options_.kind, options_.fingerprint, items_,
                std::move(snapshot));
  }

  const std::size_t items_;
  const SweepOptions& options_;
  obs::QuantileHistogram& source_latency_;
  CheckpointStore& store_;
  const bool checkpointing_;
  SweepResult result_;
  std::vector<std::atomic<std::uint8_t>> done_;
  std::atomic<bool> stop_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::atomic<std::uint64_t> computed_{0};
  const std::uint64_t flush_every_;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
             .count() /
         1e6;
}

}  // namespace

SweepResult run_sweep(
    std::size_t items, const SweepOptions& options,
    const std::function<Record(std::size_t, std::uint32_t)>& compute) {
  SweepRun run{items, options};
  const auto body = [&](std::size_t i, std::uint32_t worker) {
    if (run.done(i)) return;  // restored
    const auto start = std::chrono::steady_clock::now();
    const Record record = compute(i, worker);
    const std::uint64_t n = run.complete(i, record, ms_since(start));
    run.flush_if_due(n - 1, n);
  };

  // Sources differ in cost, so each worker slot takes the next source in
  // index order as it frees up, rather than a fixed contiguous chunk: a
  // costly source or a descheduled worker then delays only the sources it
  // holds. A slot still runs on one thread, so per-worker scratch is safe.
  std::atomic<std::size_t> next{0};
  try {
    parallel::parallel_for(
        0, parallel::plan_workers(items),
        [&](std::size_t, std::uint32_t worker) {
          for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
               i < items && !run.stopping();
               i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
              body(i, worker);
            } catch (const CancelledError&) {
              // A nested parallel region observed the cancellation first;
              // this source is unfinished.
              run.stop();
            } catch (...) {
              run.fail(std::current_exception());
            }
          }
        });
  } catch (const CancelledError&) {
    // The pool's own chunk-boundary check fired before some slot took a
    // source; everything completed so far is still valid.
    run.stop();
  } catch (...) {
    run.fail(std::current_exception());
  }
  return run.finish();
}

SweepResult run_sweep_blocks(
    std::size_t items, std::size_t width, const SweepOptions& options,
    const std::function<std::vector<Record>(const std::vector<std::size_t>&)>&
        compute_block) {
  if (width == 0)
    throw std::invalid_argument("run_sweep_blocks: width must be positive");
  SweepRun run{items, options};
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < items; ++i)
    if (!run.done(i)) pending.push_back(i);

  // Balanced blocks of at most `width` pending sources, in index order.
  const std::size_t blocks = (pending.size() + width - 1) / width;
  std::vector<std::size_t> block;
  for (std::size_t b = 0; b < blocks && !run.stopping(); ++b) {
    block.assign(pending.begin() + b * pending.size() / blocks,
                 pending.begin() + (b + 1) * pending.size() / blocks);
    const auto start = std::chrono::steady_clock::now();
    try {
      const std::vector<Record> records = compute_block(block);
      if (records.size() != block.size())
        throw std::logic_error("run_sweep_blocks: one record per source");
      // Sources share the block's wall time evenly.
      const double share_ms =
          ms_since(start) / static_cast<double>(block.size());
      const std::uint64_t before = run.completed();
      std::uint64_t after = before;
      for (std::size_t j = 0; j < block.size(); ++j)
        after = run.complete(block[j], records[j], share_ms);
      run.flush_if_due(before, after);
    } catch (const CancelledError&) {
      run.stop();  // a nested region saw the cancellation mid-block
    } catch (...) {
      run.fail(std::current_exception());
    }
  }
  return run.finish();
}

}  // namespace sntrust::exec
