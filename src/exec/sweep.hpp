// Fault-tolerant per-source sweep harness.
//
// `run_sweep` wraps the repo's standard pattern — parallel_for over N
// independent sources, one JSON-serializable result each — with the three
// robustness behaviours every measurement sweep needs:
//
//   * cooperative cancellation: the cancel token (signals, deadlines,
//     CancelSource) is polled before every source; on cancellation in-flight
//     sources drain, completed payloads are checkpointed, and
//     `CancelledError` propagates to the caller (CLI exit code 75),
//   * graceful degradation: a source that throws is recorded as a
//     `SourceFailure` (index, phase, reason) in the run report and skipped;
//     when more than `max_failed_frac` of the sources fail the sweep aborts
//     with `PartialFailureError` instead of returning a silently thin
//     aggregate (the default 0.0 keeps today's fail-fast semantics —
//     degradation is opt-in via SNTRUST_MAX_FAILED_FRAC),
//   * checkpoint/resume: with the CheckpointStore armed, completed payloads
//     are persisted periodically and restored on the next run, skipping
//     their compute entirely.
//
// Bitwise-identical resume falls out of the payload discipline: `compute`
// returns each source's result as a dumped util/json document (doubles
// serialize shortest-round-trip, so parse(dump(x)) == x bitwise), the
// caller decodes *all* payloads — fresh and restored alike — through the
// same JSON path in ascending index order, and per-source work is seeded by
// index. A resumed run therefore aggregates exactly the bytes an
// uninterrupted run would have, at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/cancel.hpp"

namespace sntrust::exec {

/// One degraded/skipped source of a sweep.
struct SourceFailure {
  std::uint64_t index = 0;
  std::string phase;   ///< sweep kind, e.g. "measure_mixing"
  std::string reason;  ///< exception message
};

/// Thrown when more than `max_failed_frac` of a sweep's sources failed.
class PartialFailureError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SweepOptions {
  /// Stable sweep name; keys the checkpoint entry and labels failures.
  std::string kind;
  /// Configuration fingerprint (see exec::fingerprint); a checkpoint entry
  /// is only restored when kind, fingerprint, and item count all match.
  std::uint64_t fingerprint = 0;
  /// Fault-injection site checked before each source; nullptr = none.
  const char* fault_site = nullptr;
  /// Cancellation token polled at source boundaries.
  CancelToken token;
  /// Maximum tolerated failed fraction before the sweep aborts with
  /// PartialFailureError. Negative = resolve from the process override
  /// (set_max_failed_frac / --max-failed-frac), then SNTRUST_MAX_FAILED_FRAC,
  /// then 0.0 (strict).
  double max_failed_frac = -1.0;
  /// Checkpoint flush cadence in completed sources; 0 = resolve from
  /// SNTRUST_CHECKPOINT_EVERY, default max(1, items / 8).
  std::uint64_t checkpoint_every = 0;
};

struct SweepResult {
  /// Per-source payloads in index order; empty string = source failed (or
  /// the sweep was cancelled before reaching it — but then run_sweep threw).
  std::vector<std::string> payloads;
  /// Failed sources, ascending by index.
  std::vector<SourceFailure> failures;
  std::uint64_t restored = 0;  ///< sources skipped via checkpoint
  std::uint64_t computed = 0;  ///< sources computed this run
};

/// Runs compute(index, worker) for every source in [0, items), parallelized
/// over the pool with the determinism rules of src/parallel/. Each worker
/// slot in [0, plan_workers(items)) takes the next source as it frees up,
/// so which slot runs a source varies from run to run: per-worker state may
/// only be scratch, or be merged with an exactly associative and
/// commutative operation (an integer sum). `compute`
/// returns the source's dumped JSON payload. Throws CancelledError (after
/// draining + checkpointing) on cancellation and PartialFailureError when
/// too many sources failed; InjectedFault/std::exception from compute are
/// per-source failures, not sweep failures.
SweepResult run_sweep(std::size_t items, const SweepOptions& options,
                      const std::function<std::string(std::size_t,
                                                      std::uint32_t)>& compute);

/// Block form of run_sweep, for sweeps whose sources share one pass over
/// the data (the lane-blocked mixing sweep). Pending sources — those not
/// restored from the checkpoint — are grouped in index order into balanced
/// blocks of at most `width`, and the blocks run one after another on the
/// calling thread; `compute_block(indices)` may use the pool inside and
/// returns one payload per index, in order. Everything else stays per
/// source:
///
///   * fault points fire per source before its block runs; a faulted
///     source is recorded as a failure and dropped from the block,
///   * cancellation is polled before every block; a block interrupted by a
///     nested CancelledError leaves its sources unfinished, not failed,
///   * a block that throws fails each of its sources with that reason,
///   * each source's latency sample and its SNTRUST_SOURCE_BUDGET_MS charge
///     are its share of the block, block wall time / sources in the block;
///     a block over budget therefore fails all of its sources,
///   * payloads, checkpoints, failure accounting and the closing
///     CancelledError / PartialFailureError are exactly run_sweep's.
SweepResult run_sweep_blocks(
    std::size_t items, std::size_t width, const SweepOptions& options,
    const std::function<std::vector<std::string>(
        const std::vector<std::size_t>&)>& compute_block);

/// Process-wide override for SweepOptions::max_failed_frac resolution
/// (the CLI's --max-failed-frac). Negative clears the override.
void set_max_failed_frac(double frac);

/// Per-source wall-clock budget in ms from SNTRUST_SOURCE_BUDGET_MS; 0 =
/// unlimited. A source exceeding it is recorded as a failure ("source
/// budget exceeded"); in the block form a source's time is its share of
/// the block (see run_sweep_blocks). Opt-in and *non-deterministic by
/// nature* — budgets depend on machine speed, so resumable/comparable runs
/// should not set it.
std::int64_t source_budget_ms();

}  // namespace sntrust::exec

namespace sntrust {
class Graph;
namespace exec {
/// Folds the structural identity of a graph (sizes + adjacency contents)
/// into a fingerprint word, so checkpoints never resume across graphs.
std::uint64_t graph_fingerprint(const Graph& graph);
}  // namespace exec
}  // namespace sntrust
