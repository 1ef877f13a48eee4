// Process resource accounting for the measurement pipeline: peak RSS and
// user/system CPU time via getrusage(2), plus global allocation counters
// fed by operator new/delete replacements.
//
// The allocation hooks are always linked (resource.cpp replaces the global
// operators) but count nothing until enabled — the disabled cost is one
// relaxed atomic load per allocation. Enable with SNTRUST_ALLOC_STATS=1
// (exec::apply) or programmatically via set_alloc_stats_enabled. CPU/RSS
// sampling has no ambient cost; callers (the tracer, the run reporter)
// sample explicitly.
//
// All values are process-wide and cumulative, so two samples subtract into
// a delta for any region of interest; the tracer does exactly that to give
// every span cpu/alloc/rss attribution.
#pragma once

#include <cstdint>

namespace sntrust::obs {

/// One cumulative sample of the process's resource consumption.
struct ResourceUsage {
  std::uint64_t user_cpu_ns = 0;    ///< ru_utime since process start
  std::uint64_t system_cpu_ns = 0;  ///< ru_stime since process start
  std::uint64_t peak_rss_bytes = 0; ///< high-water resident set (monotonic)
  std::uint64_t alloc_bytes = 0;    ///< cumulative bytes through operator new
  std::uint64_t alloc_count = 0;    ///< cumulative operator new calls
  std::uint64_t free_count = 0;     ///< cumulative operator delete calls

  std::uint64_t cpu_ns() const { return user_cpu_ns + system_cpu_ns; }
};

/// Samples getrusage and the allocation counters now. Alloc fields are zero
/// until alloc stats are enabled; CPU/RSS fields are zero on platforms
/// without getrusage.
ResourceUsage resource_usage_now();

/// Whether the operator new/delete hooks are counting; off until set.
bool alloc_stats_enabled();

/// Turns allocation counting on or off (exec::apply, tests, bench/e2e).
/// Counters are cumulative and never reset, so enabling mid-run only means
/// earlier allocations were not counted.
void set_alloc_stats_enabled(bool enabled);

}  // namespace sntrust::obs
