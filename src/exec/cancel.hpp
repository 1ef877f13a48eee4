// Cooperative cancellation for the measurement pipeline.
//
// A `CancelToken` answers one question — "should this work stop now?" — from
// three sources, checked cheaply enough to poll at chunk and source
// boundaries: the process-wide cancellation state (SIGINT/SIGTERM via
// `install_signal_handlers`, or `request_process_cancel`), the process
// deadline (`SNTRUST_DEADLINE_MS` / `set_process_deadline` /
// `sntrust_cli --deadline`), and an optional per-token `CancelSource` flag or
// `Deadline` for scoped work. Cancellation is *cooperative*: nothing is
// interrupted mid-computation; sweeps drain the sources already in flight,
// persist completed work (see exec/sweep.hpp), and then throw
// `CancelledError`. Each binary's main maps it through `interrupted_exit`,
// which names the cause in the run report (`exec.interrupted`) and returns
// exit code 75; the report is still written at exit. Exit 75 means
// interrupted and nothing else.
//
// Signal handling installs once per binary entry point (`sntrust_cli`,
// `sntrust_serve`, `bench::guarded_main`); the first SIGINT/SIGTERM flips
// the cancellation flag and restores the default disposition, so a second
// signal force-kills a stuck process the classic way.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

namespace sntrust::exec {

/// Thrown when work stops because cancellation was requested (signal,
/// deadline, or CancelSource). Distinct from failure: completed results are
/// already persisted when this escapes a checkpointed sweep.
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
  /// Milliseconds until expiry (<= 0 when expired); a large sentinel when
  /// unarmed.
  std::int64_t remaining_ms() const;

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point when_{};
};

class CancelSource;

/// Cheap copyable view of the cancellation state. The default-constructed
/// token follows the *process* state (signals + process deadline) only;
/// tokens from a `CancelSource` or `with_deadline` additionally observe
/// their own flag/deadline.
class CancelToken {
 public:
  CancelToken() = default;

  bool cancelled() const;
  /// Human-readable cause ("SIGTERM", "deadline exceeded", ...); empty while
  /// not cancelled.
  std::string reason() const;
  /// Throws CancelledError(reason()) when cancelled.
  void check() const;
  /// A token that also expires at `deadline`.
  CancelToken with_deadline(Deadline deadline) const;

 private:
  friend class CancelSource;
  std::shared_ptr<const std::atomic<bool>> flag_;  ///< may be null
  Deadline deadline_;
};

/// Owner side of a manual cancellation flag (tests, embedders).
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }
  CancelToken token() const;

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Registers cooperative SIGINT/SIGTERM handlers (idempotent, re-installable)
/// and pins the SNTRUST_DEADLINE_MS base to "now" if not already pinned.
void install_signal_handlers();

/// True when a signal arrived, `request_process_cancel` was called, or the
/// process deadline expired. One relaxed atomic load on the common path.
bool process_cancel_requested();
/// Cause of the process-wide cancellation; empty while not cancelled.
std::string process_cancel_reason();

/// Programmatic process-wide cancellation (tests, embedders).
void request_process_cancel(const std::string& reason);
/// Clears signal/programmatic cancellation state (tests). Does not touch the
/// process deadline; disarm that with `set_process_deadline(Deadline{})`.
void reset_process_cancel();

/// Process-wide deadline every parallel region and sweep observes. Reads
/// SNTRUST_DEADLINE_MS once (base = first query), overridable at runtime.
Deadline process_deadline();
void set_process_deadline(Deadline deadline);

/// Token following the process-wide state; the default for sweeps.
CancelToken process_token();

/// Exit code of an interrupted run, 75 (EX_TEMPFAIL: re-run with --resume
/// to continue). Prints "interrupted: <detail>" to stderr and records the
/// cause — the process cancellation reason, else `detail` — as the run
/// report's "exec.interrupted". Every exit 75 goes through here, so every
/// one leaves a report naming its cause.
int interrupted_exit(const std::string& detail);

}  // namespace sntrust::exec
