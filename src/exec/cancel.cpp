#include "exec/cancel.hpp"

#include <atomic>
#include <csignal>
#include <iostream>
#include <mutex>

#include "obs/run_report.hpp"

namespace sntrust::exec {

namespace {

// Signal state is written from the handler, so only lock-free atomics and
// sig_atomic_t are touched there; the reason string for programmatic
// cancellation lives behind a mutex touched only from normal context.
std::atomic<int> g_signal{0};
std::atomic<bool> g_programmatic{false};
std::atomic<std::int64_t> g_deadline_ns{0};  ///< steady since-epoch; 0 = off

std::mutex& reason_mutex() {
  static std::mutex m;
  return m;
}

std::string& programmatic_reason() {
  static std::string reason;
  return reason;
}

extern "C" void handle_cancel_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  // Restore the default disposition so a second signal force-kills a run
  // that is stuck somewhere non-cooperative.
  std::signal(sig, SIG_DFL);
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGINT: return "SIGINT";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(sig);
  }
}

}  // namespace

Deadline Deadline::after_ms(std::int64_t ms) {
  return at(std::chrono::steady_clock::now() + std::chrono::milliseconds(ms));
}

Deadline Deadline::at(std::chrono::steady_clock::time_point when) {
  Deadline d;
  d.armed_ = true;
  d.when_ = when;
  return d;
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
}

bool process_cancel_requested() {
  if (g_signal.load(std::memory_order_relaxed) != 0) return true;
  if (g_programmatic.load(std::memory_order_relaxed)) return true;
  const std::int64_t ns = g_deadline_ns.load(std::memory_order_relaxed);
  if (ns == 0) return false;
  return std::chrono::steady_clock::now().time_since_epoch().count() >= ns;
}

std::string process_cancel_reason() {
  const int sig = g_signal.load(std::memory_order_relaxed);
  if (sig != 0) return signal_name(sig);
  if (g_programmatic.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(reason_mutex());
    return programmatic_reason().empty() ? "cancelled"
                                         : programmatic_reason();
  }
  const std::int64_t ns = g_deadline_ns.load(std::memory_order_relaxed);
  if (ns != 0 &&
      std::chrono::steady_clock::now().time_since_epoch().count() >= ns)
    return "deadline exceeded";
  return {};
}

void check_process_cancel() {
  if (process_cancel_requested()) throw CancelledError(process_cancel_reason());
}

void request_process_cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(reason_mutex());
    programmatic_reason() = reason;
  }
  g_programmatic.store(true, std::memory_order_relaxed);
}

void reset_process_cancel() {
  g_signal.store(0, std::memory_order_relaxed);
  g_programmatic.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(reason_mutex());
  programmatic_reason().clear();
}

Deadline process_deadline() {
  const std::int64_t ns = g_deadline_ns.load(std::memory_order_relaxed);
  if (ns == 0) return Deadline{};
  return Deadline::at(std::chrono::steady_clock::time_point(
      std::chrono::steady_clock::duration(ns)));
}

void set_process_deadline(Deadline deadline) {
  g_deadline_ns.store(
      deadline.armed() ? deadline.when().time_since_epoch().count() : 0,
      std::memory_order_relaxed);
}

int interrupted_exit(const std::string& detail) {
  std::cerr << "interrupted: " << detail << "\n";
  const std::string reason = process_cancel_reason();
  obs::RunReporter::instance().set_interrupted(reason.empty() ? detail
                                                              : reason);
  return 75;
}

}  // namespace sntrust::exec
