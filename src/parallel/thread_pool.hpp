// Process-wide thread pool behind the per-source measurement sweeps.
//
// The pool is created lazily on the first parallel region that wants more
// than one worker; its size is set_thread_count's (SNTRUST_THREADS through
// exec::apply), else hardware_concurrency; `1` is the fully serial
// fallback, which spawns no threads.
// Work is split by *static chunking*: a range of `items` work items is cut
// into `plan_workers(items)` contiguous chunks and chunk w always runs as
// worker slot w, so per-worker scratch buffers are touched by exactly one
// thread per region. Determinism rule: a sweep is bitwise identical for any
// thread count iff (a) each work item derives its randomness only from its
// index (see stream_seed in util/rng.hpp), (b) results are written into
// pre-sized slots indexed by item position, and (c) any cross-worker merge
// is performed in ascending worker order using exactly associative
// operations (integer sums, min/max, disjoint writes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace sntrust::parallel {

/// Most workers a region may use; larger counts are capped to it.
inline constexpr std::uint32_t kMaxThreads = 256;

/// Upper bound on workers per region: set_thread_count's value, else
/// hardware_concurrency. Always >= 1; 1 means fully serial (parallel
/// regions run inline).
std::uint32_t thread_count();

/// Runtime override of the worker cap; 0 restores hardware_concurrency.
/// The pool never shrinks: threads already spawned stay parked, but regions
/// use at most `count` workers.
void set_thread_count(std::uint32_t count);

/// RAII override of the worker cap; restores the previous override on exit.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(std::uint32_t count);
  ~ScopedThreadCount();
  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

 private:
  std::uint32_t previous_;
};

/// Number of worker slots a parallel region over `items` work items will
/// use, with at least `grain` items per slot: callers size per-worker
/// scratch arrays with this. Always in [1, thread_count()].
std::uint32_t plan_workers(std::size_t items, std::size_t grain = 1);

/// True while the calling thread is executing inside a parallel region
/// (pool worker or participating caller). Nested regions run inline.
bool in_parallel_region();

/// fn(chunk_begin, chunk_end, worker) for one static chunk of the range.
using ChunkFn =
    std::function<void(std::size_t, std::size_t, std::uint32_t)>;

/// Splits [begin, end) into plan_workers(end - begin, grain) contiguous
/// chunks and runs each exactly once; chunk w runs as worker slot w. The
/// caller participates and blocks until every chunk finished. If chunks
/// threw, the lowest-slot exception is rethrown after the region completes
/// (the remaining chunks still run). Nested calls execute inline, serially,
/// on the calling worker.
void run_chunks(std::size_t begin, std::size_t end, const ChunkFn& fn,
                std::size_t grain = 1);

}  // namespace sntrust::parallel
