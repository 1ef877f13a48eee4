// Deterministic fault injection for testing recovery paths.
//
// `SNTRUST_FAULT=<site>:<seed>:<prob>[:<action>]` arms one fault plan for
// the process; instrumented points call `fault_point(site, index)` and fire
// when a splitmix64 hash of (seed, site, index) maps below `prob` — a pure
// function of the spec and the call's identity, so a given plan fires at the
// same sites in every run. Actions:
//
//   throw    (default) throw InjectedFault — exercises per-source failure
//            recording, the failure-fraction threshold, and worker draining
//   sigterm  raise SIGTERM once (first firing only) — exercises the
//            cooperative signal path: drain, checkpoint, partial run report
//   sleepN   block the calling worker for N milliseconds (default 250, e.g.
//            "sleep400") — a forced stall, for exercising the watchdog
//
// Instrumented sites: `io` (edge-list lines, binary loads), `markov` (mixing
// sources), `expansion` (expansion sources), `sybil` (GateKeeper
// distributers), `cores` (core-profile levels), `pool` (thread-pool chunks),
// `telemetry` (the telemetry exporter's write path). Site `all` matches
// every instrumented point. Unarmed cost is one relaxed
// atomic load per call.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace sntrust::exec {

/// Thrown by an armed fault point; recovery code treats it like any other
/// source failure.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FaultPlan {
  enum class Action { kThrow, kSigterm, kSleep };

  std::string site;  ///< instrumented site name, or "all"
  std::uint64_t seed = 0;
  double prob = 0.0;  ///< firing probability per fault point, in [0, 1]
  Action action = Action::kThrow;
  std::uint64_t sleep_ms = 250;  ///< stall duration for Action::kSleep

  bool armed() const { return !site.empty() && prob > 0.0; }
};

/// Parses "<site>:<seed>:<prob>[:<action>]"; nullopt on malformed specs.
std::optional<FaultPlan> parse_fault_plan(const std::string& spec);

/// Installs/replaces the process fault plan (tests; SNTRUST_FAULT is read
/// once on the first fault_point call unless a plan was set explicitly).
void set_fault_plan(const FaultPlan& plan);
void clear_fault_plan();
FaultPlan fault_plan();

/// Fires the armed plan for (site, index): deterministic Bernoulli(prob)
/// trial keyed by hash(seed, site, index). No-op when unarmed or the site
/// does not match.
void fault_point(const char* site, std::uint64_t index);

}  // namespace sntrust::exec
