// Deterministic parallel loop primitives over the process-wide thread pool.
//
//   parallel_for(0, n, [&](std::size_t i, std::uint32_t worker) { ... });
//   sum = parallel_map_reduce<T>(0, n, init, map, reduce);
//   parallel_chains(steps, [&](std::size_t c, std::uint32_t s,
//                              std::uint32_t worker) { ... });
//
// `worker` is the static chunk slot in [0, plan_workers(n, grain)); use it
// to index per-worker scratch buffers (each slot is executed by exactly one
// thread). See thread_pool.hpp for the determinism rules; in short, write
// results into slots indexed by `i`, seed per-item RNGs with
// stream_seed(base, i), and merge per-worker state in ascending worker
// order with exactly associative operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace sntrust::parallel {

/// Runs body(i, worker) for every i in [begin, end), statically chunked
/// over the pool. `grain` is the minimum number of items per worker: raise
/// it for cheap bodies (e.g. matvec rows) so tiny ranges stay inline.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = 1) {
  run_chunks(
      begin, end,
      [&body](std::size_t chunk_begin, std::size_t chunk_end,
              std::uint32_t worker) {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) body(i, worker);
      },
      grain);
}

/// Folds map(i) over [begin, end): each worker reduces its chunk into a
/// private accumulator seeded with `init`, then the per-worker partials are
/// reduced in ascending worker order. Bitwise thread-count invariance
/// requires `reduce` to be exactly associative (integer sums, min/max, ...).
template <typename T, typename Map, typename Reduce>
T parallel_map_reduce(std::size_t begin, std::size_t end, T init, Map&& map,
                      Reduce&& reduce, std::size_t grain = 1) {
  if (begin >= end) return init;
  const std::uint32_t workers =
      in_parallel_region() ? 1 : plan_workers(end - begin, grain);
  std::vector<T> partials(workers, init);
  run_chunks(
      begin, end,
      [&](std::size_t chunk_begin, std::size_t chunk_end,
          std::uint32_t worker) {
        T acc = partials[worker];
        for (std::size_t i = chunk_begin; i < chunk_end; ++i)
          acc = reduce(std::move(acc), map(i));
        partials[worker] = std::move(acc);
      },
      grain);
  T result = std::move(partials[0]);
  for (std::uint32_t w = 1; w < workers; ++w)
    result = reduce(std::move(result), std::move(partials[w]));
  return result;
}

/// step(chain, s, worker) for one step of a chain.
using ChainStepFn =
    std::function<void(std::size_t, std::uint32_t, std::uint32_t)>;

/// Runs steps[c] steps of each of steps.size() independent chains: step(c,
/// s, worker) for s = 1..steps[c], where step s of chain c starts only
/// after step s - 1 of chain c returned, and sees what it wrote. No barrier
/// separates steps: a free worker takes the free chain with the most steps
/// left (the lowest index on ties), so a worker that stalls holds up only
/// the chain it is stepping. `worker` is a slot in
/// [0, plan_workers(steps.size())) for per-worker scratch. A cancellation
/// request (exec/cancel.hpp) stops the next step with CancelledError. If a
/// step throws, no further step starts, and once the running steps return
/// the exception is rethrown (the lowest slot's, if several threw). Nested
/// calls run inline on the calling worker.
void parallel_chains(const std::vector<std::uint32_t>& steps,
                     const ChainStepFn& step);

}  // namespace sntrust::parallel
