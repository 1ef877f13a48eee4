// Closed-loop trust-query serving bench (the north star's "Sybil-resistance
// as a service" workload, DESIGN.md §15).
//
// A TrustService builds its serving snapshot — the per-defense artifacts
// for one seed set on a Table-I analogue — and then C closed-loop client
// threads replay a heavy-traffic query mix — Zipf-skewed targets (hot
// suspects attract most of the lookups), a configurable admission/read
// blend — through ask_batch. Reported: warm-path QPS, per-call latency
// quantiles (p50/p99/p999 via the serve.query_ms histograms, which also
// land in the run report's telemetry section), the cold snapshot build
// cost, and the naive recompute-per-query baseline the snapshot is
// measured against.
//
// Every query trace is a pure function of kBenchSeed, so answers replay
// identically run-to-run; the bench hard-fails (exit 1) if ask_batch or
// answer() diverge bytewise from the uncached recompute reference. Graph
// loading goes through bench::dataset_graph, so SNTRUST_SNAPSHOT serves
// the CSR from the zero-copy mmap cache.
//
// SNTRUST_SCALE scales the dataset and the query count (1,000,000 *
// scale); 4 closed-loop clients replay a Zipf(0.99) mix, half of it
// admissions.
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/quantile.hpp"
#include "report/table.hpp"
#include "serve/trust_service.hpp"
#include "serve/zipf.hpp"
#include "util/format.hpp"

namespace {

using namespace sntrust;
using serve::Answer;
using serve::Defense;
using serve::Query;
using serve::QueryKind;
using serve::QueryStatus;

/// Deterministic query mix: Zipf-skewed target, admission/read blend.
Query next_query(Rng& rng, const serve::ZipfGenerator& zipf,
                 double admit_frac) {
  Query query;
  query.vertex = static_cast<VertexId>(zipf(rng));
  const double mix = rng.uniform_real();
  if (mix < admit_frac) {
    query.kind = QueryKind::kAdmission;
    query.defense =
        rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
  } else {
    const double read = (mix - admit_frac) / (1.0 - admit_frac);
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

bool answers_equal(const Answer& a, const Answer& b) {
  // Bitwise comparison (not operator==): the acceptance criterion is byte
  // identity between the snapshot and uncached paths.
  return std::memcmp(&a, &b, sizeof(Answer)) == 0;
}

}  // namespace

int main() {
  return exec::guarded_main([] {
    bench::Section section{"Application: trust-query serving layer"};
    obs::RunReporter::instance().set_config("bench", "app_serving");

    const double admit_frac = 0.5;
    const double zipf_s = 0.99;
    const auto total_queries =
        static_cast<std::uint64_t>(1'000'000 * exec::applied_config().scale);
    const std::uint32_t clients = 4;
    const std::uint32_t client_batch = 64;

    const DatasetSpec& spec = dataset_by_id("epinion");
    Graph graph = bench::dataset_graph(spec, 0.35);
    const VertexId n = graph.num_vertices();
    std::cout << "dataset " << spec.id << ": n=" << with_thousands(n)
              << " m=" << with_thousands(graph.num_edges()) << ", "
              << with_thousands(total_queries) << " queries, " << clients
              << " clients, zipf s=" << zipf_s << "\n\n";

    serve::TrustService::Options options;
    options.config.seeds = {0, 1, 2, 3, 4};
    options.config.gatekeeper.seed = bench::kBenchSeed;
    options.precompute = false;
    serve::TrustService service{graph, std::move(options)};
    obs::RunReporter::instance().set_config("serve_queries", total_queries);
    obs::RunReporter::instance().set_config("serve_clients", clients);
    obs::RunReporter::instance().set_config("serve_zipf", zipf_s);

    const serve::ZipfGenerator zipf{n, zipf_s};

    // --- Naive recompute-per-query reference (the "before"): every query
    // rebuilds the artifact it needs from scratch, as the batch pipeline
    // did before this layer existed.
    double naive_qps = 0.0;
    {
      bench::Section naive{"naive recompute-per-query reference"};
      Rng rng{stream_seed(bench::kBenchSeed, 9999)};
      const std::uint32_t naive_queries = 8;
      obs::Stopwatch timer;
      for (std::uint32_t i = 0; i < naive_queries; ++i)
        (void)service.answer_uncached(next_query(rng, zipf, admit_frac));
      const double ms = timer.elapsed_ms();
      naive_qps = 1000.0 * naive_queries / ms;
      std::cout << "naive: " << naive_queries << " queries in "
                << fixed(ms, 1) << " ms = " << fixed(naive_qps, 1)
                << " qps\n";
    }

    // --- Cold build: the one-time snapshot (artifact) build cost.
    double cold_build_ms = 0.0;
    {
      bench::Section cold{"cold snapshot build (artifact precompute)"};
      obs::Stopwatch timer;
      service.start();
      cold_build_ms = timer.elapsed_ms();
      std::cout << "snapshot built in " << fixed(cold_build_ms, 1)
                << " ms\n";
    }
    obs::RunReporter::instance().set_config("cold_build_ms", cold_build_ms);

    // --- Identity: ask_batch and answer() must byte-match the uncached
    // recompute reference.
    bool identical = true;
    {
      bench::Section check{"snapshot vs uncached identity"};
      Rng rng{stream_seed(bench::kBenchSeed, 4242)};
      std::vector<Query> queries;
      for (std::uint32_t i = 0; i < 12; ++i)
        queries.push_back(next_query(rng, zipf, admit_frac));
      std::vector<Answer> asked(queries.size());
      service.ask_batch(queries, asked);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const Answer reference = service.answer_uncached(queries[i]);
        const Answer direct = service.answer(queries[i]);
        if (!answers_equal(asked[i], reference) ||
            !answers_equal(direct, reference))
          identical = false;
      }
      std::cout << "snapshot == uncached reference: "
                << (identical ? "yes" : "NO — DIVERGED") << "\n";
    }
    obs::RunReporter::instance().set_config("identical", identical);
    if (!identical) {
      std::cerr << "error: snapshot answers diverged from the uncached "
                   "reference\n";
      return 1;
    }

    // --- Closed-loop warm drive: C clients, Zipf targets, 64-query
    // ask_batch calls back to back.
    double warm_qps = 0.0;
    {
      bench::Section drive{"closed-loop warm drive"};
      std::vector<std::thread> workers;
      obs::Stopwatch timer;
      for (std::uint32_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          Rng rng{stream_seed(bench::kBenchSeed, c)};
          std::uint64_t budget = total_queries / clients +
                                 (c < total_queries % clients ? 1 : 0);
          std::vector<Query> queries(client_batch);
          std::vector<Answer> answers(client_batch);
          while (budget > 0) {
            const std::size_t take =
                budget < client_batch ? static_cast<std::size_t>(budget)
                                      : client_batch;
            for (std::size_t i = 0; i < take; ++i)
              queries[i] = next_query(rng, zipf, admit_frac);
            service.ask_batch(
                std::span<const Query>{queries.data(), take},
                std::span<Answer>{answers.data(), take});
            budget -= take;
          }
        });
      }
      for (std::thread& t : workers) t.join();
      const double ms = timer.elapsed_ms();
      warm_qps = 1000.0 * static_cast<double>(total_queries) / ms;
      const obs::QuantileSnapshot lat =
          obs::metrics_quantile("serve.query_ms").snapshot();
      std::cout << with_thousands(total_queries) << " queries in "
                << fixed(ms, 1) << " ms = " << fixed(warm_qps, 0)
                << " qps\n"
                << "ask_batch latency p50="
                << fixed(lat.value_at_quantile(0.5), 3)
                << " ms  p99=" << fixed(lat.value_at_quantile(0.99), 3)
                << " ms  p999=" << fixed(lat.value_at_quantile(0.999), 3)
                << " ms\n";
    }

    const obs::MetricsSnapshot metrics = obs::Metrics::instance().snapshot();
    const double speedup = naive_qps == 0.0 ? 0.0 : warm_qps / naive_qps;

    obs::RunReporter::instance().set_config("qps_warm", warm_qps);
    obs::RunReporter::instance().set_config("qps_naive", naive_qps);
    obs::RunReporter::instance().set_config("warm_speedup_vs_naive", speedup);

    Table table{{"metric", "value"}};
    table.add_row({"warm qps", fixed(warm_qps, 0)});
    table.add_row({"naive qps", fixed(naive_qps, 1)});
    table.add_row({"speedup (warm/naive)", fixed(speedup, 1) + "x"});
    table.add_row({"queries served",
                   with_thousands(metrics.counters.at("serve.queries"))});
    table.print(std::cout);
    std::cout << "Expected shape: the warm path answers from precomputed "
                 "per-seed artifacts (array reads), so throughput sits "
                 "orders of magnitude above the naive recompute-per-query "
                 "baseline.\n";
    return 0;
  });
}
