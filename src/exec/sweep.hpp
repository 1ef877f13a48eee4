// Per-source sweep harness.
//
// `run_sweep` wraps the repo's standard pattern — parallel_for over N
// independent sources, one JSON-serializable result each — with three jobs:
//
//   * handing out sources: each worker slot takes the next source as it
//     frees up, skipping those restored from the checkpoint,
//   * draining on cancellation: the cancel token (signals, deadlines,
//     CancelSource) is polled before every source; on cancellation no
//     further source starts, in-flight sources finish, completed payloads
//     are checkpointed, and `CancelledError` propagates to the caller (CLI
//     exit code 75),
//   * checkpoint/restore: with the CheckpointStore armed, completed payloads
//     are persisted every max(1, items / 8) sources and restored on the next
//     run, skipping their compute entirely.
//
// The sweep fails fast. Every source is a deterministic function of its
// index, so a source that throws would throw again on a retry, and an
// aggregate without it is not the measurement asked for. The first
// exception a source throws therefore stops the sweep the way a
// cancellation does: no further source starts, in-flight sources finish,
// completed payloads are checkpointed, and that exception reaches the
// caller unchanged.
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
#include <string>
#include <vector>

#include "exec/cancel.hpp"

namespace sntrust::exec {

struct SweepOptions {
  /// Stable sweep name; keys the checkpoint entry and the latency metric.
  std::string kind;
  /// Configuration fingerprint (see exec::fingerprint); a checkpoint entry
  /// is only restored when kind, fingerprint, and item count all match.
  /// Read only while the CheckpointStore is armed, so a caller whose key
  /// folds in Graph::fingerprint() computes it only then.
  std::uint64_t fingerprint = 0;
  /// Cancellation token polled at source boundaries.
  CancelToken token;
};

struct SweepResult {
  /// Every source's payload, in index order.
  std::vector<std::string> payloads;
  std::uint64_t restored = 0;  ///< sources skipped via checkpoint
  std::uint64_t computed = 0;  ///< sources computed this run
};

/// Runs compute(index, worker) for every source in [0, items), parallelized
/// over the pool with the determinism rules of src/parallel/. Each worker
/// slot in [0, plan_workers(items)) takes the next source as it frees up,
/// so which slot runs a source varies from run to run: per-worker state may
/// only be scratch, or be merged with an exactly associative and
/// commutative operation (an integer sum). `compute` returns the source's
/// dumped JSON payload. After draining and checkpointing, throws
/// CancelledError on cancellation and rethrows the first exception a
/// source threw.
SweepResult run_sweep(std::size_t items, const SweepOptions& options,
                      const std::function<std::string(std::size_t,
                                                      std::uint32_t)>& compute);

/// Block form of run_sweep, for sweeps whose sources share one pass over
/// the data (the lane-blocked mixing sweep). Pending sources — those not
/// restored from the checkpoint — are grouped in index order into balanced
/// blocks of at most `width`, and the blocks run one after another on the
/// calling thread; `compute_block(indices)` may use the pool inside and
/// returns one payload per index, in order. Everything else is run_sweep's:
///
///   * cancellation is polled before every block; a block interrupted by a
///     nested CancelledError leaves its sources unfinished,
///   * a block that throws stops the sweep, and its exception reaches the
///     caller once the blocks before it are checkpointed,
///   * each source's latency sample is its share of the block, block wall
///     time / sources in the block,
///   * payloads, checkpoints and the closing CancelledError are exactly
///     run_sweep's.
SweepResult run_sweep_blocks(
    std::size_t items, std::size_t width, const SweepOptions& options,
    const std::function<std::vector<std::string>(
        const std::vector<std::size_t>&)>& compute_block);

}  // namespace sntrust::exec
