// Cooperative cancellation for the measurement pipeline.
//
// One process-wide state answers "should this work stop now?", cheaply
// enough to poll at chunk and source boundaries: a SIGINT/SIGTERM (via
// `install_signal_handlers`), a `request_process_cancel`, or the process
// deadline (`SNTRUST_DEADLINE_MS` / `sntrust_cli --deadline`, armed by
// exec::apply through `set_process_deadline`). The pool, the sweeps and the
// serving reads all poll it. Cancellation is *cooperative*: nothing is
// interrupted mid-computation; sweeps drain the sources already in flight,
// persist completed work (see exec/sweep.hpp), and then throw
// `CancelledError`. exec::guarded_main maps it through `interrupted_exit`,
// which names the cause in the run report (`exec.interrupted`) and returns
// exit code 75; the report is still written at exit. Exit 75 means
// interrupted and nothing else.
//
// guarded_main installs the signal handlers; the first SIGINT/SIGTERM flips
// the cancellation flag and restores the default disposition, so a second
// signal force-kills a stuck process the classic way.
#pragma once

#include <cstdint>
#include <chrono>
#include <stdexcept>
#include <string>

namespace sntrust::exec {

/// Thrown when work stops because cancellation was requested (signal,
/// deadline, or request_process_cancel). Distinct from failure: completed
/// results are already persisted when this escapes a checkpointed sweep.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A point on the steady clock after which work should stop. Default
/// constructed deadlines are unarmed and never expire.
class Deadline {
 public:
  Deadline() = default;
  static Deadline after_ms(std::int64_t ms);
  static Deadline at(std::chrono::steady_clock::time_point when);

  bool armed() const { return armed_; }
  bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= when_;
  }
  std::chrono::steady_clock::time_point when() const { return when_; }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point when_{};
};

/// Registers cooperative SIGINT/SIGTERM handlers (idempotent,
/// re-installable).
void install_signal_handlers();

/// True when a signal arrived, `request_process_cancel` was called, or the
/// process deadline expired. One relaxed atomic load on the common path.
bool process_cancel_requested();
/// Cause of the process-wide cancellation; empty while not cancelled.
std::string process_cancel_reason();
/// Throws CancelledError(process_cancel_reason()) once cancelled.
void check_process_cancel();

/// Programmatic process-wide cancellation (tests, embedders).
void request_process_cancel(const std::string& reason);
/// Clears signal/programmatic cancellation state (tests). Does not touch the
/// process deadline; disarm that with `set_process_deadline(Deadline{})`.
void reset_process_cancel();

/// Process-wide deadline every parallel region, sweep and serving read
/// observes; unarmed until set.
Deadline process_deadline();
void set_process_deadline(Deadline deadline);

/// Exit code of an interrupted run, 75 (EX_TEMPFAIL: re-run with --resume
/// to continue). Prints "interrupted: <detail>" to stderr and records the
/// cause — the process cancellation reason, else `detail` — as the run
/// report's "exec.interrupted". Every exit 75 goes through here, so every
/// one leaves a report naming its cause.
int interrupted_exit(const std::string& detail);

}  // namespace sntrust::exec
