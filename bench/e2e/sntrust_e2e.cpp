// sntrust_e2e: the end-to-end benchmark program (bench/e2e/README.md).
//
// One process runs one seeded workload through the library's public API:
//
//   cold_start  snapshot file -> TrustService warm-up -> first admission answer
//   serve_zipf  warm service under Zipf traffic: closed loop, then open loop
//   churn       edge batches applied beside an open-loop reader
//   fig1_sweep  Figure 1(b): measure_mixing over the five large analogues
//
// and prints, on stdout:
//
//   metric <name> <value> <unit>   every end-to-end metric; with --trace also
//                                  every per-layer metric, from a second pass
//   ops <n>, ops_failed <n>        operations attempted and failed
//   check <name> ok|FAIL <detail>  output checks, run outside timed regions
//   digest <name> <hex>            answers/curves digests for diffing runs
//   provenance <json>              seed, machine, build and graph identity
//
// The seed drives graph generation, query traces, edge batches and mixing
// sources; the library only ever sees the generated inputs. Load generators
// use at most two threads. A per-layer metric whose layer the workload does
// not exercise prints as 0.
//
// Exit status: 0 when every check passed, 1 when one failed, 64 for a usage
// or hygiene error (bad flag, any SNTRUST_* variable set, a Debug build), 2
// when the workload threw.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/evolution.hpp"
#include "gen/datasets.hpp"
#include "graph/frontier_bfs.hpp"
#include "graph/snapshot.hpp"
#include "markov/distribution.hpp"
#include "markov/mixing.hpp"
#include "markov/transition.hpp"
#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/artifacts.hpp"
#include "serve/trust_service.hpp"
#include "serve/zipf.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace sntrust;
using serve::Answer;
using serve::Defense;
using serve::Query;
using serve::QueryKind;
using serve::QueryStatus;
using serve::TrustService;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kBenchSeed = 20110621;  // ICDCS'11 week
constexpr int kSetupReps = 3;                   // setup_s is their median
constexpr std::size_t kMinColdReps = 3;
constexpr std::size_t kMinChurnBatches = 3;
constexpr double kSmokeSeconds = 0.3;
constexpr double kSmokeVertices = 2000;  // smoke graphs stay under 5k vertices
constexpr std::uint32_t kClientBatch = 64;
constexpr std::uint32_t kLoadThreads = 2;
constexpr std::size_t kQpsWindows = 8;
constexpr double kReadQps = 10'000.0;  // per serve_zipf open-loop generator
// churn's reader sleeps between its sends, so the rebuild keeps its cores.
constexpr double kChurnReadQps = 1'000.0;
constexpr double kAdmitFraction = 0.5;
constexpr double kZipfExponent = 0.99;
constexpr std::uint32_t kInsertionsPerBatch = 64;
constexpr std::uint32_t kRemovalsPerBatch = 32;
constexpr double kFreshTimeoutS = 60.0;
constexpr double kChurnWindowS = 1.0;  // reader tail windows
constexpr std::size_t kMinSweeps = 3;
constexpr std::uint32_t kMixingSources = 10;
constexpr std::uint32_t kMixingSteps = 100;
// 0.3x each spec's bench scale: 962k edges over the five graphs at the
// default seed, the largest 2.9 MB of CSR. A sweep takes about 2 s on 4
// cores, so a run takes the median of several, and a mostly cache-resident
// sweep varies less with other tenants' memory traffic than the 1.4x
// graphs, whose runs spread 25% on a shared host.
constexpr double kFig1Scale = 0.3;
constexpr std::uint32_t kProbeRuns = 8;
constexpr std::size_t kPairs = 6;  // (kind, defense) pairs a query can take

// Per-purpose Rng streams derived from the workload seed.
enum Stream : std::uint64_t {
  kGateKeeperStream = 1,
  kQueryStream = 2,
  kClientStream = 16,  // + client index
  kReaderStream = 32,  // + generator index
  kBatchStream = 48,
  kMixingStream = 64,  // + dataset index
};

struct NamedUnit {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json; the e2e_smoke test compares the two.
constexpr NamedUnit kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"latency_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

constexpr NamedUnit kPerLayer[] = {
    {"graph.snapshot_load_ms", "ms"},
    {"graph.bfs_ns_per_edge", "ns/edge"},
    {"markov.mixing_ms", "ms"},
    {"markov.ns_per_edge_touched", "ns/edge"},
    {"markov.frontier_edges", "count"},
    {"markov.dense_steps", "count"},
    {"markov.sparse_steps", "count"},
    {"markov.step_ns_per_edge", "ns/edge"},
    {"sybil.gatekeeper_build_ms", "ms"},
    {"sybil.floods_per_source", "count"},
    {"sybil.us_per_flood", "us"},
    {"sybil.alloc_bytes_per_flood", "B"},
    {"sybil.sybilrank_build_ms", "ms"},
    {"cores.coreness_build_ms", "ms"},
    {"serve.landmark_build_ms", "ms"},
    {"serve.warm_ms", "ms"},
    {"serve.direct_ns_per_query", "ns"},
    {"serve.pipelined_ns_per_query", "ns"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_service_p50_us", "us"},
    {"serve.batch_occupancy_mean", "count"},
    {"serve.cache_hit_ratio", "fraction"},
    {"serve.cache_lookups", "count"},
    {"serve.allocs_per_query", "count"},
    {"serve.read_p99_us", "us"},
    {"serve.generator_lag_p99_us", "us"},
    {"serve.refresh_ms", "ms"},
    {"serve.degraded_frac", "fraction"},
    {"serve.reader_answers", "count"},
    {"dynamic.apply_batch_ms", "ms"},
    {"parallel.cpu_utilization", "fraction"},
    {"exec.source_failures", "count"},
    {"trace_overhead_pct", "%"},
};

using Metrics = std::map<std::string, double>;

struct Context {
  std::string workload;
  std::uint64_t seed = kBenchSeed;
  double seconds = 10.0;
  std::string trace_dir;  // empty: no traced pass
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
  bool traced() const { return !trace_dir.empty(); }
};

/// Everything one workload reports besides its printed checks.
struct Outcome {
  Metrics end_to_end;
  Metrics layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  json::Object graphs;  // dataset id -> fingerprint
  json::Object trace;   // span table and notes of the traced pass
};

bool g_checks_ok = true;

void check(const std::string& name, bool ok, const std::string& detail) {
  std::printf("check %s %s %s\n", name.c_str(), ok ? "ok" : "FAIL",
              detail.c_str());
  if (!ok) g_checks_ok = false;
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double seconds_since(Clock::time_point start) { return ms_since(start) / 1e3; }

Clock::duration seconds_to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Linear-interpolated quantile of the samples (0 for none).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double overhead_pct(double traced, double untraced) {
  return 100.0 * ratio(traced - untraced, untraced);
}

/// FNV-1a over the exact bytes of the outputs, for diffing runs of one code.
class Digest {
 public:
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const { return to_hex(hash_); }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

double peak_rss_mib() {
  return static_cast<double>(obs::resource_usage_now().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

std::uint64_t counter(const char* name) {
  return obs::metrics_counter(name).value();
}

// ---------------------------------------------------------------------------
// Inputs

/// `scale` (a multiple of the spec's default bench size), capped at the
/// smoke size in smoke runs.
double dataset_scale(const DatasetSpec& spec, double scale, bool smoke) {
  if (!smoke) return scale;
  return std::min(scale, kSmokeVertices /
                             (spec.default_scale *
                              static_cast<double>(spec.paper_nodes)));
}

/// The Epinion analogue at Table-I size (75,872 vertices at kBenchSeed).
Graph epinion_graph(const Context& ctx) {
  const DatasetSpec& spec = dataset_by_id("epinion");
  return spec.generate(
      dataset_scale(spec, 1.0 / spec.default_scale, ctx.smoke), ctx.seed);
}

TrustService::Options service_options(std::uint64_t seed) {
  TrustService::Options options;
  options.config.seeds = {0, 1, 2, 3, 4};
  options.config.controller = 0;
  options.config.gatekeeper.seed = stream_seed(seed, kGateKeeperStream);
  options.precompute = true;
  return options;
}

/// app_serving's traffic mix: Zipf targets, half admission queries, the
/// rest trust-score, coreness and landmark reads.
Query next_query(Rng& rng, const serve::ZipfGenerator& zipf) {
  Query query;
  query.vertex = static_cast<VertexId>(zipf(rng));
  const double mix = rng.uniform_real();
  if (mix < kAdmitFraction) {
    query.kind = QueryKind::kAdmission;
    query.defense =
        rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
  } else {
    const double read = (mix - kAdmitFraction) / (1.0 - kAdmitFraction);
    if (read < 0.4) {
      query.kind = QueryKind::kTrustScore;
      query.defense =
          rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
    } else if (read < 0.7) {
      query.kind = QueryKind::kCoreness;
    } else {
      query.kind = QueryKind::kLandmark;
    }
  }
  return query;
}

/// Pairs 0-3 are (admission | trust score) x (SybilRank | GateKeeper);
/// 4 is coreness and 5 landmark, which take no defense.
std::size_t pair_index(const Query& query) {
  const std::size_t gatekeeper = query.defense == Defense::kGateKeeper ? 1 : 0;
  switch (query.kind) {
    case QueryKind::kAdmission:
      return gatekeeper;
    case QueryKind::kTrustScore:
      return 2 + gatekeeper;
    case QueryKind::kCoreness:
      return 4;
    case QueryKind::kLandmark:
      return 5;
  }
  return 5;
}

Query pair_query(std::size_t pair, VertexId vertex) {
  constexpr QueryKind kKinds[kPairs] = {
      QueryKind::kAdmission,  QueryKind::kAdmission, QueryKind::kTrustScore,
      QueryKind::kTrustScore, QueryKind::kCoreness,  QueryKind::kLandmark};
  Query query;
  query.vertex = vertex;
  query.kind = kKinds[pair];
  query.defense = pair < 4 && pair % 2 == 1 ? Defense::kGateKeeper
                                            : Defense::kSybilRank;
  return query;
}

struct Sample {
  Query query;
  Answer answer;
};

/// One direct answer() per (kind, defense) pair at Zipf-drawn vertices.
std::vector<Sample> sample_pairs(TrustService& service, std::uint64_t seed) {
  const serve::ZipfGenerator zipf{service.graph().num_vertices(),
                                  kZipfExponent};
  Rng rng{stream_seed(seed, kQueryStream)};
  std::vector<Sample> samples;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    const Query query = pair_query(pair, static_cast<VertexId>(zipf(rng)));
    samples.push_back({query, service.answer(query)});
  }
  return samples;
}

/// Every sampled non-degraded answer must equal answer_uncached bytewise,
/// with at least one sample per (kind, defense) pair.
void check_answers(TrustService& service, const std::vector<Sample>& samples) {
  std::array<bool, kPairs> covered{};
  std::size_t compared = 0, mismatched = 0;
  Digest digest;
  for (const Sample& sample : samples) {
    if (sample.answer.degraded) continue;
    const Answer reference = service.answer_uncached(sample.query);
    if (std::memcmp(&reference, &sample.answer, sizeof(Answer)) != 0)
      ++mismatched;
    covered[pair_index(sample.query)] = true;
    ++compared;
    digest.add(&sample.query, sizeof(Query));
    digest.add(&sample.answer, sizeof(Answer));
  }
  const bool all_pairs =
      std::all_of(covered.begin(), covered.end(), [](bool c) { return c; });
  check("answers_match_uncached", mismatched == 0 && all_pairs,
        std::to_string(compared) + "_compared_" + std::to_string(mismatched) +
            "_mismatched_all_pairs_" + (all_pairs ? "yes" : "no"));
  std::printf("digest answers %s\n", digest.hex().c_str());
}

// ---------------------------------------------------------------------------
// Load generators

void wait_until(Clock::time_point due) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= due) return;
    if (due - now > std::chrono::microseconds(200))
      std::this_thread::sleep_for(due - now - std::chrono::microseconds(100));
    else
      std::this_thread::yield();
  }
}

struct OpenLoopStats {
  std::vector<double> latency_ns;  // completion minus due time
  std::vector<double> lag_ns;      // send minus due time
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
};

/// Sends one ask() per 1/qps from `start` until `end` or a stop request,
/// timing each query from its due time, so a stall also charges the
/// queries scheduled behind it.
void open_loop(TrustService& service, const serve::ZipfGenerator& zipf,
               std::uint64_t seed, double qps, Clock::time_point start,
               Clock::time_point end, double expected_s, std::stop_token stop,
               OpenLoopStats& out) {
  out.latency_ns.reserve(static_cast<std::size_t>(qps * expected_s) + 64);
  out.lag_ns.reserve(out.latency_ns.capacity());
  Rng rng{seed};
  const Clock::duration period = seconds_to_duration(1.0 / qps);
  for (std::int64_t i = 0;; ++i) {
    const Clock::time_point due = start + period * i;
    if (due >= end || stop.stop_requested()) break;
    const Query query = next_query(rng, zipf);
    wait_until(due);
    const auto sent = Clock::now();
    const Answer answer = service.ask(query);
    const auto done = Clock::now();
    out.latency_ns.push_back(
        std::chrono::duration<double, std::nano>(done - due).count());
    out.lag_ns.push_back(
        std::chrono::duration<double, std::nano>(sent - due).count());
    if (answer.status != QueryStatus::kOk)
      ++out.failed;
    else if (answer.degraded)
      ++out.degraded;
  }
}

/// Median over consecutive `window_s` windows of each window's q-quantile,
/// so a stall that hits one window moves one value of the median. Each
/// series holds one generator's samples in due order at `qps`, so its
/// window w is the slice [w*k, (w+1)*k). Too short for one window: the
/// quantile of everything.
double windowed_quantile(const std::vector<const std::vector<double>*>& series,
                         double qps, double window_s, double q) {
  const auto per_window = static_cast<std::size_t>(qps * window_s);
  std::size_t windows = SIZE_MAX;
  for (const std::vector<double>* s : series)
    windows = std::min(windows, per_window == 0 ? 0 : s->size() / per_window);
  std::vector<double> values, slice;
  if (windows == 0) {
    for (const std::vector<double>* s : series)
      slice.insert(slice.end(), s->begin(), s->end());
    return quantile(std::move(slice), q);
  }
  for (std::size_t w = 0; w < windows; ++w) {
    slice.clear();
    for (const std::vector<double>* s : series)
      slice.insert(slice.end(), s->begin() + w * per_window,
                   s->begin() + (w + 1) * per_window);
    values.push_back(quantile(slice, q));
  }
  return median(std::move(values));
}

struct ClosedLoopStats {
  std::array<std::uint64_t, kQpsWindows> window_queries{};
  std::uint64_t queries = 0;
  std::uint64_t failed = 0;
  std::vector<Sample> samples;  // first non-degraded answer per pair
};

/// One closed-loop client: 64-query ask_batch calls back to back until
/// `end`; each completed batch counts in the window it completed in.
void closed_loop(TrustService& service, const serve::ZipfGenerator& zipf,
                 std::uint64_t seed, Clock::time_point start,
                 Clock::time_point end, ClosedLoopStats& out) {
  Rng rng{seed};
  std::vector<Query> queries(kClientBatch);
  std::vector<Answer> answers(kClientBatch);
  std::array<bool, kPairs> sampled{};
  const Clock::duration window = (end - start) / kQpsWindows;
  while (Clock::now() < end) {
    for (Query& query : queries) query = next_query(rng, zipf);
    service.ask_batch(queries, answers);
    const auto done = Clock::now();
    if (done < end) {
      const auto w = static_cast<std::size_t>((done - start) / window);
      out.window_queries[std::min(w, kQpsWindows - 1)] += kClientBatch;
    }
    out.queries += kClientBatch;
    for (std::size_t i = 0; i < kClientBatch; ++i) {
      if (answers[i].status != QueryStatus::kOk) {
        ++out.failed;
        continue;
      }
      const std::size_t pair = pair_index(queries[i]);
      if (!answers[i].degraded && !sampled[pair]) {
        sampled[pair] = true;
        out.samples.push_back({queries[i], answers[i]});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tracing

/// Scope of a traced pass: registry metrics zeroed, allocation counting and
/// the tracer on. Spans come only from the main thread, because the
/// tracer nests spans per process.
class TracePass {
 public:
  TracePass() {
    obs::metrics_reset_all();
    obs::set_alloc_stats_enabled(true);
    obs::Tracer::instance().reset();
    obs::Tracer::instance().enable();
  }
  ~TracePass() { obs::Tracer::instance().disable(); }
  TracePass(const TracePass&) = delete;
  TracePass& operator=(const TracePass&) = delete;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double wall_ms = 0.0;
  double self_ms = 0.0;
  double cpu_ms = 0.0;
  double alloc_bytes = 0.0;
  double mean_ms() const { return ratio(wall_ms, static_cast<double>(count)); }
};

struct SpanTable {
  std::map<std::string, SpanTotals> by_name;
  /// Self time summed over every span below a root span, by root name:
  /// the layer split of one end-to-end operation adds up to its wall time.
  std::map<std::string, double> root_self_ms;
};

SpanTable span_table(const std::vector<obs::TraceEvent>& events) {
  std::vector<double> child_ms(events.size(), 0.0);
  for (const obs::TraceEvent& event : events)
    if (event.parent >= 0)
      child_ms[static_cast<std::size_t>(event.parent)] +=
          event.duration_ns / 1e6;
  SpanTable table;
  std::vector<std::size_t> root(events.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& event = events[i];
    root[i] = event.parent < 0
                  ? i
                  : root[static_cast<std::size_t>(event.parent)];
    const double wall = event.duration_ns / 1e6;
    const double self = wall - child_ms[i];
    SpanTotals& t = table.by_name[event.name];
    ++t.count;
    t.wall_ms += wall;
    t.self_ms += self;
    t.cpu_ms += event.cpu_ns / 1e6;
    t.alloc_bytes += static_cast<double>(event.alloc_bytes);
    table.root_self_ms[events[root[i]].name] += self;
  }
  return table;
}

json::Value span_rows(const SpanTable& table) {
  json::Array rows;
  for (const auto& [name, t] : table.by_name)
    rows.push_back(json::Value::object(
        {{"name", json::Value::string(name)},
         {"count", json::Value::integer(static_cast<std::int64_t>(t.count))},
         {"wall_ms", json::Value::number(t.wall_ms)},
         {"self_ms", json::Value::number(t.self_ms)},
         {"cpu_ms", json::Value::number(t.cpu_ms)},
         {"alloc_bytes", json::Value::number(t.alloc_bytes)}}));
  return json::Value::array(std::move(rows));
}

/// Unit costs of the graph and markov layers on `g`: direction-optimizing
/// BFS from `source` and plain matvecs, each per half-edge.
void probe_graph_layers(const Graph& g, VertexId source, Metrics& layers) {
  const double half_edges = static_cast<double>(g.targets().size());
  {
    const obs::Span span{"e2e.graph.bfs", "e2e"};
    FrontierBfs bfs{g};
    const auto start = Clock::now();
    for (std::uint32_t i = 0; i < kProbeRuns; ++i) (void)bfs.run(source);
    layers["graph.bfs_ns_per_edge"] =
        ms_since(start) * 1e6 / (kProbeRuns * half_edges);
  }
  {
    const obs::Span span{"e2e.markov.step_distribution", "e2e"};
    Distribution p = stationary_distribution(g);
    Distribution next;
    const auto start = Clock::now();
    for (std::uint32_t i = 0; i < kProbeRuns; ++i) {
      step_distribution(g, p, next);
      p.swap(next);
    }
    layers["markov.step_ns_per_edge"] =
        ms_since(start) * 1e6 / (kProbeRuns * half_edges);
  }
}

void probe_snapshot_load(const std::string& path) {
  const obs::Span span{"e2e.graph.load_snapshot", "e2e"};
  (void)load_snapshot(path);
}

/// Layer metrics read the same way on every workload: library spans nested
/// under the bench's own, and the registry's counters and histograms, all
/// zeroed when the traced pass began. `gatekeeper_floods` is the ticket-run
/// count of the traced GateKeeper builds; `main_span` the workload's
/// operation, whose CPU time over wall time times pool threads is the
/// pool's utilization.
void derive_layers(const SpanTable& table, const std::string& main_span,
                   double gatekeeper_floods, Metrics& layers) {
  const auto mean_ms = [&](const char* name) {
    const auto it = table.by_name.find(name);
    return it == table.by_name.end() ? 0.0 : it->second.mean_ms();
  };
  layers["graph.snapshot_load_ms"] = mean_ms("e2e.graph.load_snapshot");
  layers["sybil.gatekeeper_build_ms"] = mean_ms("serve.compute_gatekeeper");
  layers["sybil.sybilrank_build_ms"] = mean_ms("serve.compute_sybilrank");
  layers["cores.coreness_build_ms"] = mean_ms("serve.compute_coreness");
  layers["serve.landmark_build_ms"] = mean_ms("serve.compute_landmark");
  layers["serve.warm_ms"] = mean_ms("e2e.serve.warm");
  layers["dynamic.apply_batch_ms"] = mean_ms("e2e.dynamic.apply_batch");

  const auto gk = table.by_name.find("serve.compute_gatekeeper");
  if (gk != table.by_name.end() && gatekeeper_floods > 0) {
    const double sources =
        static_cast<double>(gk->second.count) *
        serve::ServiceConfig{}.gatekeeper.num_distributers;
    layers["sybil.floods_per_source"] = gatekeeper_floods / sources;
    layers["sybil.us_per_flood"] = gk->second.wall_ms * 1e3 / gatekeeper_floods;
    layers["sybil.alloc_bytes_per_flood"] =
        gk->second.alloc_bytes / gatekeeper_floods;
  }

  const auto main = table.by_name.find(main_span);
  if (main != table.by_name.end())
    layers["parallel.cpu_utilization"] =
        ratio(main->second.cpu_ms,
              main->second.wall_ms * parallel::thread_count());

  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  const auto quantile_us = [&](const char* name, double q) {
    const auto it = snap.quantiles.find(name);
    return it == snap.quantiles.end() || it->second.count == 0
               ? 0.0
               : it->second.value_at_quantile(q) * 1e3;
  };
  layers["serve.queue_wait_p50_us"] = quantile_us("serve.queue_ms", 0.5);
  layers["serve.queue_wait_p99_us"] = quantile_us("serve.queue_ms", 0.99);
  layers["serve.batch_service_p50_us"] = quantile_us("serve.service_ms", 0.5);
  const auto occupancy = snap.histograms.find("serve.batch_occupancy");
  if (occupancy != snap.histograms.end())
    layers["serve.batch_occupancy_mean"] = occupancy->second.mean();
  const double hits = static_cast<double>(counter("serve.cache_hits"));
  const double lookups =
      hits + static_cast<double>(counter("serve.cache_misses"));
  layers["serve.cache_hit_ratio"] = ratio(hits, lookups);
  layers["serve.cache_lookups"] = lookups;
  layers["exec.source_failures"] =
      static_cast<double>(counter("exec.source_failures"));
}

/// Closes a traced pass: derives the common layers and keeps the span
/// table for the per-layer JSON.
SpanTable finish_trace(const std::string& main_span, double gatekeeper_floods,
                       Outcome& out) {
  SpanTable table = span_table(obs::Tracer::instance().events());
  derive_layers(table, main_span, gatekeeper_floods, out.layers);
  out.trace.emplace_back("spans", span_rows(table));
  const auto root = table.root_self_ms.find(main_span);
  const auto main = table.by_name.find(main_span);
  if (root != table.root_self_ms.end() && main != table.by_name.end())
    out.trace.emplace_back(
        "main_span_self_ms_per_op",
        json::Value::number(root->second /
                            static_cast<double>(main->second.count)));
  return table;
}

// ---------------------------------------------------------------------------
// Workloads

/// Runs `setup` kSetupReps times and records their median as setup_s; the
/// last repetition's state is what the workload measures.
template <typename Setup>
void timed_setup(Outcome& out, Setup&& setup) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    setup();
    seconds.push_back(seconds_since(start));
  }
  out.end_to_end["setup_s"] = median(seconds);
}

json::Object fingerprint_of(const std::string& id, const Graph& g) {
  return {{id, json::Value::string(to_hex(g.fingerprint()))}};
}

struct ColdRun {
  std::vector<double> ms;
  std::uint64_t failed = 0;
  std::unique_ptr<TrustService> last;  // the last repetition's service
};

/// Cold path: a fresh service over a freshly mapped snapshot (the page
/// cache already holds the file), warmed, then one GateKeeper admission
/// answer. Repeated for `seconds`, at least `min_reps` times.
ColdRun cold_paths(const Context& ctx, const std::string& path,
                   const Query& first, std::size_t min_reps, double seconds) {
  ColdRun run;
  const auto begin = Clock::now();
  while (run.ms.size() < min_reps || seconds_since(begin) < seconds) {
    run.last.reset();
    const auto start = Clock::now();
    Answer answer;
    {
      const obs::Span root{"e2e.cold.first_answer", "e2e"};
      Graph g;
      {
        const obs::Span span{"e2e.graph.load_snapshot", "e2e"};
        g = load_snapshot(path);
      }
      {
        const obs::Span span{"e2e.serve.warm", "e2e"};
        run.last = std::make_unique<TrustService>(std::move(g),
                                                  service_options(ctx.seed));
      }
      const obs::Span span{"e2e.serve.answer", "e2e"};
      answer = run.last->answer(first);
    }
    run.ms.push_back(ms_since(start));
    if (answer.status != QueryStatus::kOk || answer.degraded) ++run.failed;
  }
  return run;
}

void run_cold_start(const Context& ctx, Outcome& out) {
  const std::string path = ctx.work_dir + "/epinion.snap";
  timed_setup(out, [&] {
    const Graph g = epinion_graph(ctx);
    write_snapshot(g, path);
    out.graphs = fingerprint_of("epinion", g);
  });
  Rng rng{stream_seed(ctx.seed, kQueryStream)};
  const Query first = pair_query(  // a GateKeeper admission query
      1, static_cast<VertexId>(rng.uniform(snapshot_info(path).num_vertices)));

  // The first path in a process also starts the pool and grows the heap,
  // which users pay once, not per cold service.
  (void)cold_paths(ctx, path, first, 1, 0.0);
  const ColdRun run = cold_paths(ctx, path, first, kMinColdReps, ctx.seconds);
  out.end_to_end["peak_rss_mib"] = peak_rss_mib();
  out.end_to_end["latency_ms"] = median(run.ms);
  out.end_to_end["throughput_per_s"] =
      static_cast<double>(run.ms.size()) / (sum(run.ms) / 1e3);
  out.attempted = run.ms.size();
  out.failed = run.failed;
  check_answers(*run.last, sample_pairs(*run.last, ctx.seed));

  if (!ctx.traced()) return;
  const TracePass pass;
  const ColdRun traced =
      cold_paths(ctx, path, first, kMinColdReps, ctx.seconds);
  probe_graph_layers(traced.last->graph(), traced.last->config().controller,
                     out.layers);
  finish_trace("e2e.cold.first_answer",
               static_cast<double>(counter("gatekeeper.ticket_runs")), out);
  out.layers["trace_overhead_pct"] =
      overhead_pct(median(traced.ms), median(run.ms));
  out.trace.emplace_back("latency_ms_traced",
                         json::Value::number(median(traced.ms)));
  out.trace.emplace_back("latency_ms_untraced",
                         json::Value::number(median(run.ms)));
}

/// A warm, running service over the workload's Epinion snapshot; setup_s
/// covers generation, snapshot write and load, and the artifact warm-up.
std::unique_ptr<TrustService> warm_service(const Context& ctx,
                                           const std::string& path,
                                           Outcome& out) {
  std::unique_ptr<TrustService> service;
  timed_setup(out, [&] {
    service.reset();
    const Graph g = epinion_graph(ctx);
    write_snapshot(g, path);
    out.graphs = fingerprint_of("epinion", g);
    service = std::make_unique<TrustService>(load_snapshot(path),
                                             service_options(ctx.seed));
    service->start();
  });
  return service;
}

struct ServeRun {
  std::vector<ClosedLoopStats> clients =
      std::vector<ClosedLoopStats>(kLoadThreads);
  std::vector<OpenLoopStats> generators =
      std::vector<OpenLoopStats>(kLoadThreads);
  double window_s = 0.0;

  double closed_qps() const {
    std::vector<double> qps;
    for (std::size_t w = 0; w < kQpsWindows; ++w) {
      double queries = 0.0;
      for (const ClosedLoopStats& c : clients)
        queries += static_cast<double>(c.window_queries[w]);
      qps.push_back(queries / window_s);
    }
    return median(qps);
  }
  /// Open-loop latency quantile, windowed like the closed-loop qps.
  double open_latency_ns(double q) const {
    std::vector<const std::vector<double>*> series;
    for (const OpenLoopStats& g : generators) series.push_back(&g.latency_ns);
    return windowed_quantile(series, kReadQps, window_s, q);
  }
  std::vector<double> open_lag_ns() const {
    std::vector<double> all;
    for (const OpenLoopStats& g : generators)
      all.insert(all.end(), g.lag_ns.begin(), g.lag_ns.end());
    return all;
  }
};

/// Phase A: closed loop, two clients of 64-query ask_batch calls. Phase B:
/// open loop, two generators of single ask()s at kReadQps each, offset by
/// half a period. Each phase lasts `phase_s`.
ServeRun serve_phases(TrustService& service, const serve::ZipfGenerator& zipf,
                      std::uint64_t seed, double phase_s) {
  ServeRun run;
  run.window_s = phase_s / kQpsWindows;
  const Clock::duration phase = seconds_to_duration(phase_s);
  {
    const auto start = Clock::now();
    std::vector<std::jthread> clients;
    for (std::uint32_t c = 0; c < kLoadThreads; ++c)
      clients.emplace_back([&, c] {
        closed_loop(service, zipf, stream_seed(seed, kClientStream + c), start,
                    start + phase, run.clients[c]);
      });
  }
  const auto start = Clock::now();
  const Clock::duration offset = seconds_to_duration(0.5 / kReadQps);
  {
    std::vector<std::jthread> generators;
    for (std::uint32_t g = 0; g < kLoadThreads; ++g)
      generators.emplace_back([&, g] {
        open_loop(service, zipf, stream_seed(seed, kReaderStream + g),
                  kReadQps, start + offset * g, start + phase, phase_s,
                  std::stop_token{}, run.generators[g]);
      });
  }
  return run;
}

void run_serve_zipf(const Context& ctx, Outcome& out) {
  const std::string path = ctx.work_dir + "/epinion.snap";
  const std::unique_ptr<TrustService> service = warm_service(ctx, path, out);
  const serve::ZipfGenerator zipf{service->graph().num_vertices(),
                                  kZipfExponent};
  const double phase_s = ctx.seconds / 2.0;

  const ServeRun run = serve_phases(*service, zipf, ctx.seed, phase_s);
  out.end_to_end["peak_rss_mib"] = peak_rss_mib();
  out.end_to_end["latency_ms"] = run.open_latency_ns(0.5) / 1e6;
  out.end_to_end["throughput_per_s"] = run.closed_qps();
  std::vector<Sample> samples;
  for (const ClosedLoopStats& c : run.clients) {
    out.attempted += c.queries;
    out.failed += c.failed;
    samples.insert(samples.end(), c.samples.begin(), c.samples.end());
  }
  for (const OpenLoopStats& g : run.generators) {
    out.attempted += g.latency_ns.size();
    out.failed += g.failed;
  }
  check_answers(*service, samples);

  if (!ctx.traced()) return;
  const TracePass pass;
  probe_snapshot_load(path);
  // The caller-thread and pipelined paths on the same 64-query batches.
  const std::size_t batches = ctx.smoke ? 50 : 2000;
  Rng rng{stream_seed(ctx.seed, kQueryStream)};
  std::vector<Query> queries(batches * kClientBatch);
  for (Query& query : queries) query = next_query(rng, zipf);
  std::vector<Answer> answers(kClientBatch);
  const auto batch = [&](std::size_t b) {
    return std::span<const Query>{queries}.subspan(b * kClientBatch,
                                                   kClientBatch);
  };
  const double query_count = static_cast<double>(queries.size());
  {
    const obs::Span span{"e2e.serve.answer_batch", "e2e"};
    const std::uint64_t allocs = obs::resource_usage_now().alloc_count;
    const auto start = Clock::now();
    for (std::size_t b = 0; b < batches; ++b)
      service->answer_batch(batch(b), answers);
    out.layers["serve.direct_ns_per_query"] =
        ms_since(start) * 1e6 / query_count;
    out.layers["serve.allocs_per_query"] =
        static_cast<double>(obs::resource_usage_now().alloc_count - allocs) /
        query_count;
  }
  {
    const obs::Span span{"e2e.serve.ask_batch", "e2e"};
    const auto start = Clock::now();
    for (std::size_t b = 0; b < batches; ++b)
      service->ask_batch(batch(b), answers);
    out.layers["serve.pipelined_ns_per_query"] =
        ms_since(start) * 1e6 / query_count;
  }
  obs::metrics_reset_all();  // queue and batch histograms from the phases only
  ServeRun traced;
  {
    const obs::Span span{"e2e.serve.traffic", "e2e"};
    traced = serve_phases(*service, zipf, ctx.seed, phase_s);
  }
  probe_graph_layers(service->graph(), service->config().controller,
                     out.layers);
  finish_trace("e2e.serve.ask_batch", 0.0, out);
  out.layers["serve.read_p99_us"] = traced.open_latency_ns(0.99) / 1e3;
  out.layers["serve.generator_lag_p99_us"] =
      quantile(traced.open_lag_ns(), 0.99) / 1e3;
  out.layers["trace_overhead_pct"] = overhead_pct(
      traced.open_latency_ns(0.5), run.open_latency_ns(0.5));
}

/// 64 insertions, each attaching a new vertex to a random existing one, and
/// 32 removals of triangle edges {u, w} with a common neighbour x. No two
/// removals share a vertex of their triangles, so every removed edge keeps
/// the path u-x-w and the graph stays connected, which SybilRank requires.
EdgeBatch make_batch(const Graph& g, Rng& rng) {
  EdgeBatch batch;
  const VertexId n = g.num_vertices();
  for (std::uint32_t j = 0; j < kInsertionsPerBatch; ++j)
    batch.insertions.push_back({static_cast<VertexId>(rng.uniform(n)), n + j});
  std::vector<VertexId> used;
  const auto is_used = [&](VertexId v) {
    return std::find(used.begin(), used.end(), v) != used.end();
  };
  // The attempt cap only matters on a graph with too few disjoint triangles.
  for (std::uint32_t attempt = 0; batch.removals.size() < kRemovalsPerBatch &&
                                   attempt < 1000 * kRemovalsPerBatch;
       ++attempt) {
    const auto u = static_cast<VertexId>(rng.uniform(n));
    const std::span<const VertexId> u_adj = g.neighbors(u);
    if (u_adj.empty() || is_used(u)) continue;
    const VertexId w = u_adj[rng.uniform(u_adj.size())];
    if (is_used(w)) continue;
    const std::span<const VertexId> w_adj = g.neighbors(w);
    std::vector<VertexId> common;
    std::set_intersection(u_adj.begin(), u_adj.end(), w_adj.begin(),
                          w_adj.end(), std::back_inserter(common));
    const auto x = std::find_if(common.begin(), common.end(),
                                [&](VertexId v) { return !is_used(v); });
    if (x == common.end()) continue;
    used.insert(used.end(), {u, w, *x});
    batch.removals.push_back({std::min(u, w), std::max(u, w)});
  }
  return batch;
}

/// Polls a GateKeeper admission query for `vertex`, which only the new
/// epoch has, until the answer comes from fresh artifacts.
bool wait_fresh(TrustService& service, VertexId vertex) {
  const Query probe = pair_query(1, vertex);
  const auto start = Clock::now();
  for (;;) {
    const Answer answer = service.answer(probe);
    if (answer.status == QueryStatus::kOk && !answer.degraded) return true;
    if (seconds_since(start) > kFreshTimeoutS) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

struct ChurnRun {
  std::vector<double> fresh_ms;
  std::vector<double> refresh_ms;
  std::uint64_t stale_batches = 0;
  OpenLoopStats reader;
};

/// Applies batches, each once the previous one is fresh, until `seconds`
/// pass and at least `min_batches` were applied, while one open-loop
/// reader asks at kChurnReadQps. The main thread blocks in
/// wait_for_refresh rather than polling, so it takes no core from the
/// rebuild. In the traced pass the main thread also times apply_edge_batch
/// itself, and tracing pauses while the service's background refresh runs,
/// so that thread's spans cannot interleave with the main thread's.
ChurnRun churn(TrustService& service, const serve::ZipfGenerator& zipf,
               const Context& ctx, Rng& batch_rng, std::size_t min_batches,
               double seconds, bool traced) {
  ChurnRun run;
  const auto start = Clock::now();
  std::jthread reader{[&](std::stop_token stop) {
    open_loop(service, zipf, stream_seed(ctx.seed, kReaderStream),
              kChurnReadQps, start, Clock::time_point::max(), seconds + 30.0,
              stop, run.reader);
  }};
  while (run.fresh_ms.size() < min_batches || seconds_since(start) < seconds) {
    const EdgeBatch batch = make_batch(service.graph(), batch_rng);
    const VertexId first_new = service.graph().num_vertices();
    if (traced) {
      {
        const obs::Span span{"e2e.dynamic.apply_batch", "e2e"};
        (void)apply_edge_batch(service.graph(), batch);
      }
      obs::Tracer::instance().disable();
    }
    const auto applying = Clock::now();
    service.apply_edges(batch);
    const auto applied = Clock::now();
    service.wait_for_refresh();
    run.refresh_ms.push_back(ms_since(applied));
    if (!wait_fresh(service, first_new)) ++run.stale_batches;
    run.fresh_ms.push_back(ms_since(applying));
    if (traced) obs::Tracer::instance().enable();
  }
  reader.request_stop();
  reader.join();
  return run;
}

void run_churn(const Context& ctx, Outcome& out) {
  const std::string path = ctx.work_dir + "/epinion.snap";
  const std::unique_ptr<TrustService> service = warm_service(ctx, path, out);
  // Reader targets exist in every epoch: the vertex set only grows.
  const serve::ZipfGenerator zipf{service->graph().num_vertices(),
                                  kZipfExponent};
  Rng batch_rng{stream_seed(ctx.seed, kBatchStream)};

  // The first refresh also starts the refresh thread and grows its heap.
  (void)churn(*service, zipf, ctx, batch_rng, 1, 0.0, false);
  const ChurnRun run = churn(*service, zipf, ctx, batch_rng, kMinChurnBatches,
                             ctx.seconds, false);
  out.end_to_end["peak_rss_mib"] = peak_rss_mib();
  out.end_to_end["latency_ms"] = median(run.fresh_ms);
  out.end_to_end["throughput_per_s"] =
      static_cast<double>(run.fresh_ms.size()) / (sum(run.fresh_ms) / 1e3);
  out.attempted = run.reader.latency_ns.size() + run.fresh_ms.size();
  out.failed = run.reader.failed + run.stale_batches;
  // The reader's answers during refreshes are degraded and exempt; the
  // identity check runs on the final graph.
  check_answers(*service, sample_pairs(*service, ctx.seed));

  if (!ctx.traced()) return;
  const TracePass pass;
  probe_snapshot_load(path);
  const ChurnRun traced = churn(*service, zipf, ctx, batch_rng,
                                kMinChurnBatches, ctx.seconds, true);
  const Graph& g = service->graph();
  const std::uint64_t floods = counter("gatekeeper.ticket_runs");
  {
    const obs::Span span{"e2e.serve.artifacts", "e2e"};
    (void)serve::compute_sybilrank_artifact(g, service->config());
    (void)serve::compute_gatekeeper_artifact(g, service->config());
    (void)serve::compute_coreness_artifact(g);
    (void)serve::compute_landmark_artifact(g, service->config());
  }
  const double build_floods =
      static_cast<double>(counter("gatekeeper.ticket_runs") - floods);
  probe_graph_layers(g, service->config().controller, out.layers);
  finish_trace("e2e.serve.artifacts", build_floods, out);
  const double answers = static_cast<double>(traced.reader.latency_ns.size());
  out.layers["serve.refresh_ms"] = median(traced.refresh_ms);
  out.layers["serve.reader_answers"] = answers;
  out.layers["serve.degraded_frac"] =
      ratio(static_cast<double>(traced.reader.degraded), answers);
  out.layers["serve.read_p99_us"] =
      windowed_quantile({&traced.reader.latency_ns}, kChurnReadQps,
                        kChurnWindowS, 0.99) /
      1e3;
  out.layers["serve.generator_lag_p99_us"] =
      quantile(traced.reader.lag_ns, 0.99) / 1e3;
  out.layers["trace_overhead_pct"] =
      overhead_pct(median(traced.fresh_ms), median(run.fresh_ms));
}

MixingOptions mixing_options(std::uint64_t seed, std::size_t dataset) {
  MixingOptions options;
  options.num_sources = kMixingSources;
  options.max_walk_length = kMixingSteps;
  options.seed = stream_seed(seed, kMixingStream + dataset);
  return options;
}

/// Source 0's curve of every dataset against dirac + step_distribution +
/// total_variation, which no kernel or layout setting reaches. The walk's
/// distribution is bitwise identical to the oracle's; only the TVD sums
/// differ, adding the same n terms of total at most 2 in another order, so
/// they may disagree by about 2·n·ε each. The check allows twice that.
void check_curves(const std::vector<std::string>& paths,
                  const std::vector<MixingCurves>& curves) {
  double worst = 0.0;  // as a share of the dataset's tolerance
  bool complete = true;
  Digest digest;
  for (std::size_t d = 0; d < paths.size(); ++d) {
    const MixingCurves& c = curves[d];
    if (c.sources.size() != kMixingSources || c.tvd.empty()) {
      complete = false;
      continue;
    }
    const Graph g = load_snapshot(paths[d]);
    const double tolerance = 4.0 * g.num_vertices() *
                             std::numeric_limits<double>::epsilon();
    const Distribution pi = stationary_distribution(g);
    Distribution p = dirac(g.num_vertices(), c.sources[0]);
    Distribution next;
    for (std::uint32_t t = 0; t <= kMixingSteps; ++t) {
      if (t > 0) {
        step_distribution(g, p, next);
        p.swap(next);
      }
      worst = std::max(
          worst, std::abs(total_variation(p, pi) - c.tvd[0][t]) / tolerance);
    }
    for (const std::vector<double>& curve : c.tvd)
      digest.add(curve.data(), curve.size() * sizeof(double));
  }
  char detail[96];
  std::snprintf(detail, sizeof detail,
                "max_diff_%.3g_of_tolerance_over_%zu_datasets", worst,
                paths.size());
  check("curves_match_oracle", complete && worst <= 1.0, detail);
  std::printf("digest curves %s\n", digest.hex().c_str());
}

void run_fig1_sweep(const Context& ctx, Outcome& out) {
  const std::vector<std::string> ids = figure1_large_ids();
  std::vector<std::string> paths;
  for (const std::string& id : ids)
    paths.push_back(ctx.work_dir + "/fig1_" + id + ".snap");
  std::size_t largest = 0;
  timed_setup(out, [&] {
    out.graphs.clear();
    EdgeIndex most_edges = 0;
    for (std::size_t d = 0; d < ids.size(); ++d) {
      const DatasetSpec& spec = dataset_by_id(ids[d]);
      const Graph g =
          spec.generate(dataset_scale(spec, kFig1Scale, ctx.smoke), ctx.seed);
      write_snapshot(g, paths[d]);
      out.graphs.emplace_back(ids[d],
                              json::Value::string(to_hex(g.fingerprint())));
      if (g.num_edges() > most_edges) {
        most_edges = g.num_edges();
        largest = d;
      }
      // A one-step sweep starts the thread pool and lets the allocator
      // settle, which otherwise slows the first timed sweep by about 20%.
      MixingOptions warm_up = mixing_options(ctx.seed, d);
      warm_up.max_walk_length = 1;
      (void)measure_mixing(g, warm_up);
    }
  });

  // One sweep is the whole figure: every dataset loaded and measured.
  std::vector<MixingCurves> curves(ids.size());
  double edges_touched = 0.0;  // sparse-step edges plus 2m per dense step
  const auto sweeps = [&](bool traced) {
    std::vector<double> sweep_ms;
    const auto begin = Clock::now();
    while (sweep_ms.size() < kMinSweeps || seconds_since(begin) < ctx.seconds) {
      const auto start = Clock::now();
      for (std::size_t d = 0; d < ids.size(); ++d) {
        Graph g;
        {
          const obs::Span span{"e2e.graph.load_snapshot", "e2e"};
          g = load_snapshot(paths[d]);
        }
        const std::uint64_t frontier = counter("kernel.frontier_edges");
        const std::uint64_t dense = counter("kernel.dense_steps");
        {
          const obs::Span span{"e2e.markov.measure_mixing", "e2e"};
          curves[d] = measure_mixing(g, mixing_options(ctx.seed, d));
        }
        edges_touched +=
            static_cast<double>(counter("kernel.frontier_edges") - frontier) +
            static_cast<double>(counter("kernel.dense_steps") - dense) *
                static_cast<double>(g.targets().size());
        if (traced) continue;
        out.attempted += kMixingSources;
        out.failed += kMixingSources - curves[d].sources.size();
      }
      sweep_ms.push_back(ms_since(start));
    }
    return sweep_ms;
  };

  const std::vector<double> sweep_ms = sweeps(false);
  const double source_steps =
      static_cast<double>(out.attempted) * kMixingSteps;
  out.end_to_end["peak_rss_mib"] = peak_rss_mib();
  out.end_to_end["latency_ms"] = median(sweep_ms);
  out.end_to_end["throughput_per_s"] = source_steps / (sum(sweep_ms) / 1e3);
  check_curves(paths, curves);

  if (!ctx.traced()) return;
  const TracePass pass;
  edges_touched = 0.0;
  const std::vector<double> traced_ms = sweeps(true);
  probe_graph_layers(load_snapshot(paths[largest]), 0, out.layers);
  const SpanTable table = finish_trace("e2e.markov.measure_mixing", 0.0, out);
  const double runs = static_cast<double>(traced_ms.size());
  const double mixing_ms = table.by_name.at("measure_mixing").wall_ms;
  out.layers["markov.mixing_ms"] = mixing_ms / runs;
  out.layers["markov.ns_per_edge_touched"] =
      ratio(mixing_ms * 1e6, edges_touched);
  out.layers["markov.frontier_edges"] =
      static_cast<double>(counter("kernel.frontier_edges")) / runs;
  out.layers["markov.dense_steps"] =
      static_cast<double>(counter("kernel.dense_steps")) / runs;
  out.layers["markov.sparse_steps"] =
      static_cast<double>(counter("kernel.sparse_steps")) / runs;
  out.layers["trace_overhead_pct"] =
      overhead_pct(median(traced_ms), median(sweep_ms));
}

// ---------------------------------------------------------------------------
// Entry point

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "error: %s\nusage: sntrust_e2e --workload "
               "cold_start|serve_zipf|churn|fig1_sweep [--seed N] "
               "[--seconds S] [--trace DIR] [--smoke] [--work-dir DIR]\n",
               problem);
  std::exit(64);
}

Context parse_args(int argc, char** argv) {
  Context ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      ctx.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        ctx.workload = value;
      } else if (flag == "--seed") {
        ctx.seed = std::stoull(value, &used);
        if (used != value.size()) usage("--seed takes an integer");
      } else if (flag == "--seconds") {
        ctx.seconds = std::stod(value, &used);
        if (used != value.size() || !(ctx.seconds > 0.0))
          usage("--seconds takes a positive number");
      } else if (flag == "--trace") {
        ctx.trace_dir = value;
      } else if (flag == "--work-dir") {
        ctx.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (ctx.workload.empty()) usage("--workload is required");
  if (ctx.smoke) ctx.seconds = std::min(ctx.seconds, kSmokeSeconds);
  return ctx;
}

/// The benchmark sets no SNTRUST_* knob, so any one in the environment
/// would change what it measures.
void refuse_knobs() {
  for (char** env = environ; *env != nullptr; ++env)
    if (std::strncmp(*env, "SNTRUST_", 8) == 0) {
      std::fprintf(stderr, "error: %s is set; the benchmark runs with none\n",
                   *env);
      std::exit(64);
    }
}

std::string config_string(const json::Value& config, const char* key) {
  const json::Value* value = config.find(key);
  return value == nullptr ? "" : value->as_string();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream file{path};
  file << text << "\n";
  if (!file) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Context ctx = parse_args(argc, argv);
  refuse_knobs();
  const json::Value report = obs::RunReporter::instance().build();
  const json::Value& config = *report.find("config");
  const std::string build_flags = config_string(config, "build_flags");
  if (build_flags.find("(Debug)") != std::string::npos) {
    std::fprintf(stderr, "error: Debug build (%s); build Release\n",
                 build_flags.c_str());
    return 64;
  }

  Outcome out;
  try {
    std::filesystem::create_directories(ctx.work_dir);
    if (ctx.workload == "cold_start")
      run_cold_start(ctx, out);
    else if (ctx.workload == "serve_zipf")
      run_serve_zipf(ctx, out);
    else if (ctx.workload == "churn")
      run_churn(ctx, out);
    else if (ctx.workload == "fig1_sweep")
      run_fig1_sweep(ctx, out);
    else
      usage(("unknown workload " + ctx.workload).c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }

  const json::Value provenance = json::Value::object(
      {{"workload", json::Value::string(ctx.workload)},
       {"seed", json::Value::string(std::to_string(ctx.seed))},
       {"seconds", json::Value::number(ctx.seconds)},
       {"smoke", json::Value::boolean(ctx.smoke)},
       {"nproc", json::Value::integer(std::thread::hardware_concurrency())},
       {"pool_threads", json::Value::integer(parallel::thread_count())},
       {"compiler", json::Value::string(config_string(config, "compiler"))},
       {"build_flags", json::Value::string(build_flags)},
       {"graphs", json::Value::object(out.graphs)}});
  for (const NamedUnit& m : kEndToEnd)
    std::printf("metric %s %.17g %s\n", m.name, out.end_to_end[m.name], m.unit);
  if (ctx.traced()) {
    json::Object layers;
    for (const NamedUnit& m : kPerLayer) {
      const double value = out.layers[m.name];
      std::printf("metric %s %.17g %s\n", m.name, value, m.unit);
      layers.emplace_back(m.name, json::Value::object(
                                      {{"value", json::Value::number(value)},
                                       {"unit", json::Value::string(m.unit)}}));
    }
    try {
      std::filesystem::create_directories(ctx.trace_dir);
      const std::string stem = ctx.trace_dir + "/" + ctx.workload;
      obs::Tracer::instance().write_chrome_trace_file(stem + ".trace.json");
      json::Object doc{{"provenance", provenance},
                       {"metrics", json::Value::object(std::move(layers))}};
      for (json::Member& member : out.trace) doc.push_back(std::move(member));
      write_file(stem + ".layers.json",
                 json::Value::object(std::move(doc)).dump());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 2;
    }
  }
  std::printf("ops %llu\nops_failed %llu\nprovenance %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              provenance.dump().c_str());
  return g_checks_ok ? 0 : 1;
}
