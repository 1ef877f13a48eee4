#include "exec/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "exec/checkpoint.hpp"
#include "exec/fault.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/watchdog.hpp"
#include "parallel/parallel.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace sntrust::exec {

namespace {

std::atomic<double> g_max_failed_override{-1.0};

double resolve_max_failed_frac(const SweepOptions& options) {
  if (options.max_failed_frac >= 0.0) return options.max_failed_frac;
  const double override_frac =
      g_max_failed_override.load(std::memory_order_relaxed);
  if (override_frac >= 0.0) return override_frac;
  return env_double("SNTRUST_MAX_FAILED_FRAC", 0.0);
}

std::uint64_t resolve_flush_every(const SweepOptions& options,
                                  std::size_t items) {
  if (options.checkpoint_every > 0) return options.checkpoint_every;
  const std::int64_t env = env_int("SNTRUST_CHECKPOINT_EVERY", 0);
  if (env > 0) return static_cast<std::uint64_t>(env);
  return std::max<std::uint64_t>(1, items / 8);
}

}  // namespace

void set_max_failed_frac(double frac) {
  g_max_failed_override.store(frac, std::memory_order_relaxed);
}

std::int64_t source_budget_ms() {
  return std::max<std::int64_t>(0, env_int("SNTRUST_SOURCE_BUDGET_MS", 0));
}

std::uint64_t graph_fingerprint(const Graph& graph) {
  // Same splitmix64 chain as ever, now computed (and cached) by the graph
  // itself: snapshot loads seed the cache from their verified header, so a
  // mapped graph keys checkpoints identically to a parsed one without the
  // O(n + m) rescan.
  return graph.fingerprint();
}

namespace {

/// State one sweep shares between its per-source and block forms: restored
/// payloads and completion flags, failures, cancellation, checkpoint
/// flushes, latency and heartbeats, and the closing report.
class SweepRun {
 public:
  SweepRun(std::size_t items, const SweepOptions& options)
      : items_(items),
        options_(options),
        source_latency_(obs::metrics_quantile(latency_name(options))),
        source_latency_window_(obs::metrics_windowed(latency_name(options))),
        store_(CheckpointStore::instance()),
        checkpointing_(store_.armed() && !options.kind.empty()),
        done_(items),
        flush_every_(resolve_flush_every(options, items)),
        budget_ms_(source_budget_ms()) {
    result_.payloads.assign(items, {});
    if (checkpointing_)
      result_.restored = store_.restore(options.kind, options.fingerprint,
                                        items, result_.payloads);
    // Completion flags: release on payload write, acquire before a
    // concurrent flush reads the payload. Restored slots are done up front.
    for (std::size_t i = 0; i < items; ++i)
      if (!result_.payloads[i].empty())
        done_[i].store(1, std::memory_order_relaxed);
  }

  bool done(std::size_t i) const {
    return done_[i].load(std::memory_order_relaxed) != 0;
  }

  /// True once the sweep drains: a cancellation was seen or is pending.
  bool draining() {
    if (cancel_seen_.load(std::memory_order_relaxed)) return true;
    if (!options_.token.cancelled()) return false;
    cancel_seen_.store(true, std::memory_order_relaxed);
    return true;
  }

  void cancelled() { cancel_seen_.store(true, std::memory_order_relaxed); }

  void fault(std::size_t i) const {
    if (options_.fault_site != nullptr) fault_point(options_.fault_site, i);
  }

  /// Throws the budget failure when a source took longer than the budget.
  void check_budget(double elapsed_ms) const {
    const auto whole_ms = static_cast<std::int64_t>(elapsed_ms);
    if (budget_ms_ > 0 && whole_ms > budget_ms_)
      throw std::runtime_error("source budget exceeded (" +
                               std::to_string(whole_ms) + "ms > " +
                               std::to_string(budget_ms_) + "ms)");
  }

  /// Stores a finished source's payload; returns the completed count.
  std::uint64_t complete(std::size_t i, std::string payload,
                         double elapsed_ms) {
    result_.payloads[i] = std::move(payload);
    done_[i].store(1, std::memory_order_release);
    source_latency_.record(elapsed_ms);
    source_latency_window_.record(elapsed_ms);
    obs::watchdog_heartbeat();
    return computed_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t completed() const {
    return computed_.load(std::memory_order_relaxed);
  }

  void fail(std::size_t i, const std::string& reason) {
    std::lock_guard<std::mutex> lock(failures_mutex_);
    failures_.push_back(SourceFailure{i, options_.kind, reason});
  }

  /// Flushes when the completed count crossed a multiple of the cadence
  /// going from `before` to `after`.
  void flush_if_due(std::uint64_t before, std::uint64_t after) {
    if (checkpointing_ && after / flush_every_ != before / flush_every_)
      flush();
  }

  /// Persists completed payloads after an unexpected error, then rethrows
  /// it; call only from a catch handler.
  [[noreturn]] void flush_and_rethrow() {
    if (checkpointing_) flush();
    throw;
  }

  /// Single-threaded close: records failures, saves the checkpoint, and
  /// throws CancelledError / PartialFailureError as the options demand.
  SweepResult finish() {
    std::sort(failures_.begin(), failures_.end(),
              [](const SourceFailure& a, const SourceFailure& b) {
                return a.index < b.index;
              });
    result_.failures = failures_;
    result_.computed = computed_.load(std::memory_order_relaxed);

    obs::RunReporter& reporter = obs::RunReporter::instance();
    for (const SourceFailure& failure : failures_)
      reporter.record_failure(failure.phase, failure.index, failure.reason);

    if (checkpointing_)
      store_.save(options_.kind, options_.fingerprint, items_,
                  result_.payloads);

    obs::count("exec.sources_completed", result_.computed);
    obs::count("exec.sources_restored", result_.restored);
    obs::count("exec.source_failures", failures_.size());

    if (cancel_seen_.load(std::memory_order_relaxed) ||
        options_.token.cancelled()) {
      obs::count("exec.sweeps_cancelled", 1);
      std::string reason = options_.token.reason();
      if (reason.empty()) reason = "cancelled";
      reporter.set_interrupted(reason);
      const std::uint64_t finished = result_.restored + result_.computed;
      throw CancelledError("sweep '" + options_.kind + "' cancelled after " +
                           std::to_string(finished) + "/" +
                           std::to_string(items_) + " sources (" + reason +
                           ")");
    }

    if (items_ > 0 && !failures_.empty()) {
      const double failed_frac = static_cast<double>(failures_.size()) /
                                 static_cast<double>(items_);
      const double max_frac = resolve_max_failed_frac(options_);
      if (failed_frac > max_frac)
        throw PartialFailureError(
            "sweep '" + options_.kind + "': " +
            std::to_string(failures_.size()) + " of " +
            std::to_string(items_) + " sources failed (first: " +
            failures_.front().reason + "), exceeding max failed fraction " +
            std::to_string(max_frac));
    }
    return std::move(result_);
  }

 private:
  static std::string latency_name(const SweepOptions& options) {
    return options.kind.empty() ? "sweep.source_ms"
                                : "sweep." + options.kind + ".source_ms";
  }

  // Snapshot only slots whose done flag is visible; reading a payload that
  // another worker is still assigning would be a race.
  void flush() {
    std::vector<std::string> snapshot(items_);
    for (std::size_t i = 0; i < items_; ++i)
      if (done_[i].load(std::memory_order_acquire))
        snapshot[i] = result_.payloads[i];
    store_.save(options_.kind, options_.fingerprint, items_, snapshot);
  }

  const std::size_t items_;
  const SweepOptions& options_;
  // The watchdog only watches while a sweep (or pool region) is live, and
  // every completed source is a heartbeat.
  obs::WatchdogActivity watchdog_activity_;
  obs::QuantileHistogram& source_latency_;
  obs::WindowedQuantileHistogram& source_latency_window_;
  CheckpointStore& store_;
  const bool checkpointing_;
  SweepResult result_;
  std::vector<std::atomic<std::uint8_t>> done_;
  std::mutex failures_mutex_;
  std::vector<SourceFailure> failures_;
  std::atomic<bool> cancel_seen_{false};
  std::atomic<std::uint64_t> computed_{0};
  const std::uint64_t flush_every_;
  const std::int64_t budget_ms_;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
             .count() /
         1e6;
}

}  // namespace

SweepResult run_sweep(std::size_t items, const SweepOptions& options,
                      const std::function<std::string(
                          std::size_t, std::uint32_t)>& compute) {
  SweepRun run{items, options};
  auto body = [&](std::size_t i, std::uint32_t worker) {
    if (run.done(i) || run.draining()) return;  // restored, or draining
    const auto start = std::chrono::steady_clock::now();
    try {
      run.fault(i);
      std::string payload = compute(i, worker);
      const double elapsed_ms = ms_since(start);
      run.check_budget(elapsed_ms);
      const std::uint64_t n = run.complete(i, std::move(payload), elapsed_ms);
      run.flush_if_due(n - 1, n);
    } catch (const CancelledError&) {
      // A nested parallel region observed the cancellation first; this
      // source is unfinished, not failed.
      run.cancelled();
    } catch (const std::exception& error) {
      run.fail(i, error.what());
    }
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
               i < items; i = next.fetch_add(1, std::memory_order_relaxed))
            body(i, worker);
        });
  } catch (const CancelledError&) {
    // The pool's own chunk-boundary check fired before any source of some
    // chunk ran; everything completed so far is still valid.
    run.cancelled();
  } catch (...) {
    run.flush_and_rethrow();
  }
  return run.finish();
}

SweepResult run_sweep_blocks(
    std::size_t items, std::size_t width, const SweepOptions& options,
    const std::function<std::vector<std::string>(
        const std::vector<std::size_t>&)>& compute_block) {
  if (width == 0)
    throw std::invalid_argument("run_sweep_blocks: width must be positive");
  SweepRun run{items, options};
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < items; ++i)
    if (!run.done(i)) pending.push_back(i);

  // Balanced blocks of at most `width` pending sources, in index order.
  const std::size_t blocks = (pending.size() + width - 1) / width;
  std::vector<std::size_t> block;
  try {
    for (std::size_t b = 0; b < blocks && !run.draining(); ++b) {
      block.clear();
      for (std::size_t j = b * pending.size() / blocks;
           j < (b + 1) * pending.size() / blocks; ++j) {
        try {
          run.fault(pending[j]);
          block.push_back(pending[j]);
        } catch (const CancelledError&) {
          run.cancelled();
        } catch (const std::exception& error) {
          run.fail(pending[j], error.what());  // dropped from the block
        }
      }
      // A fault point may have raised the cancellation (the sigterm
      // action); the block then never starts.
      if (block.empty() || run.draining()) continue;
      const auto start = std::chrono::steady_clock::now();
      std::vector<std::string> payloads;
      double share_ms = 0.0;  // sources share the block's wall time evenly
      try {
        payloads = compute_block(block);
        share_ms = ms_since(start) / static_cast<double>(block.size());
        run.check_budget(share_ms);
      } catch (const CancelledError&) {
        run.cancelled();
        continue;
      } catch (const std::exception& error) {
        for (const std::size_t i : block) run.fail(i, error.what());
        continue;
      }
      if (payloads.size() != block.size())
        throw std::logic_error("run_sweep_blocks: one payload per source");
      const std::uint64_t before = run.completed();
      std::uint64_t after = before;
      for (std::size_t j = 0; j < block.size(); ++j)
        after = run.complete(block[j], std::move(payloads[j]), share_ms);
      run.flush_if_due(before, after);
    }
  } catch (...) {
    run.flush_and_rethrow();
  }
  return run.finish();
}

}  // namespace sntrust::exec
