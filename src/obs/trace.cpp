#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "util/format.hpp"
#include "util/json.hpp"

namespace sntrust::obs {

using json::write_json_string;

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  // Intentionally leaked: the export hook set_export_path registers must
  // find the tracer alive at process exit.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::enable() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed) && events_.empty())
    epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  span_starts_.clear();
  open_stack_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

void Tracer::set_export_path(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  export_path_ = std::move(path);
  if (export_path_.empty() || exit_hook_armed_) return;
  exit_hook_armed_ = true;
  std::atexit([] {
    // Throwing from an atexit handler is std::terminate; report instead.
    try {
      Tracer& tracer = Tracer::instance();
      const std::string path = tracer.export_path();
      if (!path.empty() && tracer.enabled())
        tracer.write_chrome_trace_file(path);
    } catch (const std::exception& error) {
      std::fputs(error.what(), stderr);
      std::fputc('\n', stderr);
    }
  });
}

std::string Tracer::export_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return export_path_;
}

std::uint64_t Tracer::now_ns_locked() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::int64_t Tracer::begin_span(std::string name, std::string category) {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.depth = static_cast<std::uint32_t>(open_stack_.size());
  event.parent = open_stack_.empty() ? -1 : open_stack_.back();
  event.start_ns = now_ns_locked();
  const auto index = static_cast<std::int64_t>(events_.size());
  events_.push_back(std::move(event));
  span_starts_.push_back(resource_usage_now());
  open_stack_.push_back(index);
  return index;
}

void Tracer::end_span(std::int64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (token < 0 || token >= static_cast<std::int64_t>(events_.size())) return;
  TraceEvent& event = events_[static_cast<std::size_t>(token)];
  event.duration_ns = now_ns_locked() - event.start_ns;
  event.closed = true;
  // Resource attribution: process-wide deltas over the span's window.
  const ResourceUsage& start = span_starts_[static_cast<std::size_t>(token)];
  const ResourceUsage end = resource_usage_now();
  event.cpu_ns = end.cpu_ns() - start.cpu_ns();
  event.alloc_bytes = end.alloc_bytes - start.alloc_bytes;
  event.alloc_count = end.alloc_count - start.alloc_count;
  event.peak_rss_bytes = end.peak_rss_bytes;
  // Pop through the stack in case inner spans leaked (exception unwound past
  // a reset); spans always close LIFO in normal operation.
  while (!open_stack_.empty()) {
    const std::int64_t top = open_stack_.back();
    open_stack_.pop_back();
    if (top == token) break;
  }
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out = events_;
  const std::uint64_t now = now_ns_locked();
  for (TraceEvent& event : out)
    if (!event.closed && now > event.start_ns)
      event.duration_ns = now - event.start_ns;
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> snapshot = events();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : snapshot) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":";
    write_json_string(out, event.name);
    out << ",\"cat\":";
    write_json_string(out, event.category);
    out << ",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
        << event.start_ns / 1000 << ",\"dur\":" << event.duration_ns / 1000
        << ",\"args\":{\"depth\":" << event.depth
        << ",\"cpu_us\":" << event.cpu_ns / 1000
        << ",\"alloc_bytes\":" << event.alloc_bytes << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out{path};
  if (!out)
    throw std::runtime_error("Tracer: cannot open trace output " + path);
  write_chrome_trace(out);
  if (!out) throw std::runtime_error("Tracer: trace write failed " + path);
}

TraceAggregate Tracer::aggregate_by_path() const {
  const std::vector<TraceEvent> snapshot = events();
  // Join each event's ancestor chain into a path; aggregate by path.
  std::vector<std::string> paths(snapshot.size());
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const TraceEvent& event = snapshot[i];
    paths[i] = event.parent < 0
                   ? event.name
                   : paths[static_cast<std::size_t>(event.parent)] + "/" +
                         event.name;
  }
  struct Agg {
    SpanAggregate totals;
    std::size_t first_seen = 0;
  };
  std::map<std::string, Agg> by_path;
  TraceAggregate out;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const TraceEvent& event = snapshot[i];
    Agg& agg = by_path[paths[i]];
    if (agg.totals.count == 0) agg.first_seen = i;
    ++agg.totals.count;
    agg.totals.wall_ns += event.duration_ns;
    agg.totals.cpu_ns += event.cpu_ns;
    agg.totals.alloc_bytes += event.alloc_bytes;
    agg.totals.alloc_count += event.alloc_count;
    agg.totals.peak_rss_bytes =
        std::max(agg.totals.peak_rss_bytes, event.peak_rss_bytes);
    if (event.depth == 0) out.root_wall_ns += event.duration_ns;
  }
  // Present in first-seen order so the table reads like the run.
  std::vector<const std::pair<const std::string, Agg>*> ordered;
  ordered.reserve(by_path.size());
  for (const auto& entry : by_path) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) {
              return a->second.first_seen < b->second.first_seen;
            });
  out.spans.reserve(ordered.size());
  for (const auto* entry : ordered) {
    SpanAggregate span = entry->second.totals;
    span.path = entry->first;
    out.spans.push_back(std::move(span));
  }
  return out;
}

Table Tracer::timing_table() const {
  const TraceAggregate aggregate = aggregate_by_path();
  Table table{{"span", "count", "total ms", "mean ms", "share", "cpu ms",
               "allocs"}};
  for (const SpanAggregate& span : aggregate.spans) {
    const double total_ms = span.wall_ns / 1e6;
    const double share =
        aggregate.root_wall_ns == 0
            ? 0.0
            : 100.0 * static_cast<double>(span.wall_ns) /
                  static_cast<double>(aggregate.root_wall_ns);
    table.add_row({span.path, std::to_string(span.count), fixed(total_ms, 3),
                   fixed(total_ms / static_cast<double>(span.count), 3),
                   fixed(share, 1) + "%", fixed(span.cpu_ns / 1e6, 3),
                   with_thousands(span.alloc_count)});
  }
  return table;
}

Span::Span(std::string name, std::string category) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  token_ = tracer.begin_span(std::move(name), std::move(category));
}

Span::~Span() {
  if (token_ < 0) return;
  Tracer::instance().end_span(token_);
}

}  // namespace sntrust::obs
