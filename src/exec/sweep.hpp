// Per-source sweep harness.
//
// `run_sweep` wraps the repo's standard pattern — parallel_for over N
// independent sources, one record of 64-bit words each — with three jobs:
//
//   * handing out sources: each worker slot takes the next source as it
//     frees up, skipping those restored from the checkpoint,
//   * draining on cancellation: the process cancellation state (signals,
//     the deadline, request_process_cancel) is polled before every source;
//     on cancellation no
//     further source starts, in-flight sources finish, completed records
//     are checkpointed, and `CancelledError` propagates to the caller (CLI
//     exit code 75),
//   * checkpoint/restore: with the CheckpointStore armed, completed records
//     are persisted every max(1, items / 8) sources and restored on the next
//     run, skipping their compute entirely.
//
// The sweep fails fast. Every source is a deterministic function of its
// index, so a source that throws would throw again on a retry, and an
// aggregate without it is not the measurement asked for. The first
// exception a source throws therefore stops the sweep the way a
// cancellation does: no further source starts, in-flight sources finish,
// completed records are checkpointed, and that exception reaches the
// caller unchanged.
//
// Bitwise-identical resume rests on records being bits: `compute` returns
// each source's result as an exec::Record (integers as they are, doubles
// through std::bit_cast), the checkpoint stores and restores those words
// exactly, the caller decodes *all* records — fresh and restored alike — in
// ascending index order, and per-source work is seeded by index. A resumed
// run therefore aggregates exactly the bits an uninterrupted run would
// have, at any thread count. A restored record can still come from a file
// someone else wrote, so the caller checks its shape (its word count, and
// any range its words must lie in) before it uses it, and throws
// std::runtime_error naming the sweep when the shape is wrong.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"

namespace sntrust::exec {

struct SweepOptions {
  /// Stable sweep name; keys the checkpoint entry and the latency metric.
  std::string kind;
  /// Configuration fingerprint (see exec::fingerprint); a checkpoint entry
  /// is only restored when kind, fingerprint, and item count all match.
  /// Read only while the CheckpointStore is armed, so a caller whose key
  /// folds in Graph::fingerprint() computes it only then.
  std::uint64_t fingerprint = 0;
};

struct SweepResult {
  /// Every source's record, in index order.
  std::vector<Record> records;
  std::uint64_t restored = 0;  ///< sources skipped via checkpoint
  std::uint64_t computed = 0;  ///< sources computed this run
};

/// Runs compute(index, worker) for every source in [0, items), parallelized
/// over the pool with the determinism rules of src/parallel/. Each worker
/// slot in [0, plan_workers(items)) takes the next source as it frees up,
/// so which slot runs a source varies from run to run: per-worker state may
/// only be scratch, or be merged with an exactly associative and
/// commutative operation (an integer sum). `compute` returns the source's
/// record. After draining and checkpointing, throws
/// CancelledError on cancellation and rethrows the first exception a
/// source threw.
SweepResult run_sweep(
    std::size_t items, const SweepOptions& options,
    const std::function<Record(std::size_t, std::uint32_t)>& compute);

/// Block form of run_sweep, for sweeps whose sources share one pass over
/// the data (the lane-blocked mixing sweep). Pending sources — those not
/// restored from the checkpoint — are grouped in index order into balanced
/// blocks of at most `width`, and the blocks run one after another on the
/// calling thread; `compute_block(indices)` may use the pool inside and
/// returns one record per index, in order. Everything else is run_sweep's:
///
///   * cancellation is polled before every block; a block interrupted by a
///     nested CancelledError leaves its sources unfinished,
///   * a block that throws stops the sweep, and its exception reaches the
///     caller once the blocks before it are checkpointed,
///   * each source's latency sample is its share of the block, block wall
///     time / sources in the block,
///   * records, checkpoints and the closing CancelledError are exactly
///     run_sweep's.
SweepResult run_sweep_blocks(
    std::size_t items, std::size_t width, const SweepOptions& options,
    const std::function<std::vector<Record>(const std::vector<std::size_t>&)>&
        compute_block);

}  // namespace sntrust::exec
