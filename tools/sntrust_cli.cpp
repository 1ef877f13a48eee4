// sntrust command-line tool: the library's measurement pipeline for
// downstream users with their own edge lists.
//
//   sntrust_cli generate <dataset_id> <scale> <out.txt>
//       Writes a synthetic analogue as a SNAP-format edge list.
//   sntrust_cli measure <graph> [sources]
//       Loads a graph — text edge list or mmap snapshot (format sniffed
//       by magic) — reduces to the largest component, and
//       prints the full property report (mixing, cores, expansion) plus
//       per-phase wall-clock timings.
//   sntrust_cli attack <edgelist.txt> <sybils> <attack_edges>
//       Attaches a Sybil region and reports GateKeeper and SybilLimit
//       outcomes.
//   sntrust_cli datasets
//       Lists the registered Table-I analogues.
//
// Global flags:
//   --trace <out.json>   Record a hierarchical trace of the run and write
//                        it as Chrome trace_event JSON (chrome://tracing /
//                        Perfetto). SNTRUST_TRACE=<path> does the same for
//                        any binary in the repo.
//   --threads <n>        Worker threads for the per-source sweeps (same as
//                        SNTRUST_THREADS; 1 = serial). Results are
//                        identical for any value.
//   --report <out.json>  Write the unified JSON run report (config, metrics
//                        snapshot, per-span wall/cpu/alloc table, totals) at
//                        exit. SNTRUST_REPORT=<path> does the same for any
//                        binary; diff two reports with sntrust_benchdiff.
//   --deadline <ms>      Cooperative wall-clock budget: sweeps drain, write
//                        their checkpoint, and the run exits 75 with a
//                        report naming the interruption (same as
//                        SNTRUST_DEADLINE_MS).
//   --checkpoint <path>  Persist completed per-source work to <path> and
//                        restore from it on the next run (same as
//                        SNTRUST_CHECKPOINT). --resume is an alias; both
//                        read and write the same file.
//   --telemetry <path[:period_ms]>
//                        Stream live telemetry frames (JSONL, schema v2:
//                        counters, gauges, latency quantiles, resource
//                        totals) to <path> every period_ms (default 1000)
//                        while the run executes; each sweep's
//                        sweep.<kind>.source_ms count is its progress.
//                        Same as SNTRUST_TELEMETRY.
//   --diag               Record estimator diagnostics (convergence traces,
//                        CI95s) in the run report (same as SNTRUST_DIAG=1).
// Each flag sets the field of its SNTRUST_* knob in the run's RunConfig
// (exec/run_config.hpp) and is read by the same rule; the flag wins over
// the variable, and the run report's config records the value either way.
// Any other argument starting with "--" is a usage error, and so is a
// number that is not a whole decimal string in range (util/parse.hpp's
// parse_count and parse_nonnegative): threads in [1, 256], deadline in
// [1, 10^12], sources, Sybils and attack edges at least 1, scale above 0.
//
// Exit codes (exec::guarded_main): 0 success, 64 usage error, 65 bad input
// (unreadable or malformed graph files), 75 interrupted (signal or
// deadline), 1 internal error.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/property_suite.hpp"
#include "exec/run_config.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "markov/spectral.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "report/table.hpp"
#include "sybil/gatekeeper.hpp"
#include "sybil/sybillimit.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace {

using namespace sntrust;

int usage() {
  std::cerr << "usage:\n"
               "  sntrust_cli datasets\n"
               "  sntrust_cli generate <dataset_id> <scale> <out.txt>\n"
               "  sntrust_cli measure <edgelist.txt> [mixing_sources]\n"
               "  sntrust_cli attack <edgelist.txt> <sybils> <attack_edges>\n"
               "flags:\n"
               "  --trace <out.json>   write a Chrome trace-event JSON of "
               "the run\n"
               "  --threads <n>        worker threads for the measurement "
               "sweeps (1 = serial)\n"
               "  --report <out.json>  write the unified JSON run report "
               "at exit\n"
               "  --deadline <ms>      cooperative wall-clock budget; "
               "interrupted runs exit 75\n"
               "  --checkpoint <path>  persist/restore per-source sweep "
               "progress (alias: --resume)\n"
               "  --telemetry <path[:period_ms]> stream live JSONL telemetry "
               "frames during the run\n"
               "  --diag               record estimator diagnostics "
               "(convergence traces, CI95s) in the report\n";
  return 64;  // EX_USAGE
}

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxVertices = std::numeric_limits<VertexId>::max();

int cmd_datasets() {
  Table table{{"id", "name", "paper n", "paper m", "class"}};
  for (const DatasetSpec& spec : all_datasets())
    table.add_row({spec.id, spec.name, with_thousands(spec.paper_nodes),
                   with_thousands(spec.paper_edges),
                   to_string(spec.expected_class)});
  table.print(std::cout);
  return 0;
}

int cmd_generate(const std::string& id, double scale,
                 const std::string& path) {
  const Graph g = dataset_by_id(id).generate(scale, 2026);
  write_edge_list_file(g, path);
  std::cout << "wrote " << with_thousands(g.num_vertices()) << " vertices / "
            << with_thousands(g.num_edges()) << " edges to " << path << "\n";
  return 0;
}

int cmd_measure(const std::string& path, std::uint32_t sources) {
  // Per-phase timings are part of the measure report, so tracing is always
  // on for this command; --trace / SNTRUST_TRACE additionally export the
  // full span tree as JSON at exit.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  const obs::Span root{"cli.measure", "cli"};

  const Graph raw = [&] {
    const obs::Span span{"load", "cli"};
    return read_graph_auto(path);
  }();
  const Graph g = largest_component(raw).graph;
  std::cout << "loaded " << path << ": n=" << with_thousands(g.num_vertices())
            << " m=" << with_thousands(g.num_edges())
            << " (largest component of " << with_thousands(raw.num_vertices())
            << ")\n";

  obs::RunReporter& reporter = obs::RunReporter::instance();
  reporter.set_config("command", "measure");
  reporter.set_config("edgelist", path);
  reporter.set_config("graph_n", g.num_vertices());
  reporter.set_config("graph_m", g.num_edges());
  // Provenance: benchdiff/diag refuse to diff reports whose graph.*
  // fingerprints disagree — two runs over different graphs are not
  // comparable.
  reporter.set_config("graph.measured", to_hex(g.fingerprint()));
  reporter.set_config("mixing_sources", sources);

  PropertySuiteOptions options;
  options.mixing_sources = sources;
  options.mixing_max_walk = 200;
  options.expansion_sources = 1000;
  const PropertyReport report = measure_properties(g, options);
  const DegreeStats degrees = degree_stats(g);

  Table table{{"property", "value"}};
  table.add_row({"mean degree", fixed(degrees.mean, 2)});
  table.add_row({"clustering (avg local)",
                 fixed(average_local_clustering(g), 4)});
  table.add_row({"assortativity", fixed(degree_assortativity(g), 4)});
  table.add_row({"diameter (>=)",
                 std::to_string(double_sweep_diameter(g))});
  table.add_row({"mu (SLEM)", format_mu(report.slem.mu, report.slem.certified, 5)});
  table.add_row({"T(1/n) sampled",
                 report.mixing_time == 0xFFFFFFFFu
                     ? "> " + std::to_string(options.mixing_max_walk)
                     : std::to_string(report.mixing_time)});
  table.add_row({"Sinclair bounds",
                 fixed(report.bounds.lower, 1) + " .. " +
                     fixed(report.bounds.upper, 1)});
  table.add_row({"degeneracy", std::to_string(report.degeneracy)});
  table.add_row({"max #cores", std::to_string(report.max_core_count)});
  table.add_row({"min expansion factor",
                 fixed(report.min_expansion_factor, 4)});
  table.print(std::cout);

  // Timing section: where the run's wall-clock went, phase by phase.
  std::cout << "timings (wall-clock per span)\n";
  tracer.timing_table().print(std::cout);
  return 0;
}

int cmd_attack(const std::string& path, VertexId sybils,
               std::uint32_t attack_edges) {
  const Graph g = largest_component(read_graph_auto(path)).graph;
  obs::RunReporter& reporter = obs::RunReporter::instance();
  reporter.set_config("command", "attack");
  reporter.set_config("edgelist", path);
  reporter.set_config("graph_n", g.num_vertices());
  reporter.set_config("graph_m", g.num_edges());
  reporter.set_config("graph.measured", to_hex(g.fingerprint()));
  reporter.set_config("sybils", sybils);
  reporter.set_config("attack_edges", attack_edges);
  AttackParams attack;
  attack.num_sybils = sybils;
  attack.attack_edges = attack_edges;
  attack.seed = 2026;
  const AttackedGraph attacked{g, attack};
  std::cout << "honest n=" << with_thousands(g.num_vertices()) << ", sybils="
            << with_thousands(sybils) << ", attack edges=" << attack_edges
            << " (unfiltered "
            << fixed(static_cast<double>(sybils) / attack_edges, 1)
            << " sybils/edge)\n";

  Table table{{"defense", "honest accepted", "sybils per attack edge"}};
  {
    GateKeeperParams params;
    params.seed = 2026;
    const GateKeeperEvaluation eval = evaluate_gatekeeper(attacked, 0, params);
    table.add_row({"GateKeeper (f=0.1)",
                   fixed(100 * eval.honest_accept_fraction, 1) + "%",
                   fixed(eval.sybils_per_attack_edge, 2)});
  }
  {
    SybilLimitParams params;
    params.seed = 2026;
    const PairwiseEvaluation eval =
        evaluate_sybillimit(attacked, 0, params, 100, 100, 2026);
    table.add_row({"SybilLimit",
                   fixed(100 * eval.honest_accept_fraction, 1) + "%",
                   fixed(eval.sybils_per_attack_edge, 2)});
  }
  table.print(std::cout);
  return 0;
}

/// The flags that take a value, and the knob each one sets.
struct ValueFlag {
  std::string_view flag;
  std::string_view knob;
};
constexpr ValueFlag kValueFlags[] = {
    {"--trace", "SNTRUST_TRACE"},
    {"--threads", "SNTRUST_THREADS"},
    {"--report", "SNTRUST_REPORT"},
    {"--deadline", "SNTRUST_DEADLINE_MS"},
    {"--checkpoint", "SNTRUST_CHECKPOINT"},
    {"--resume", "SNTRUST_CHECKPOINT"},
    {"--telemetry", "SNTRUST_TELEMETRY"},
};

/// Peels the global flags off argv into `config`; returns the positionals.
std::vector<std::string> parse_flags(int argc, char** argv,
                                     exec::RunConfig& config) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--diag") {
      exec::set_knob(config, "SNTRUST_DIAG", "1", arg);
      continue;
    }
    const auto flag =
        std::find_if(std::begin(kValueFlags), std::end(kValueFlags),
                     [&](const ValueFlag& f) { return f.flag == arg; });
    if (flag != std::end(kValueFlags)) {
      if (i + 1 >= argc) {
        usage();
        throw exec::UsageError(std::string{arg} + " needs a value");
      }
      exec::set_knob(config, flag->knob, argv[++i], arg);
      continue;
    }
    // An unknown flag would otherwise land among the positionals, where
    // `measure g.txt --flag` reads it as the source count.
    if (arg.starts_with("--")) {
      usage();
      throw exec::UsageError("unknown flag " + std::string{arg});
    }
    args.emplace_back(arg);
  }
  return args;
}

int run_command(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string& command = args[0];
  const std::size_t n = args.size();
  if (command == "datasets" && n == 1) return cmd_datasets();
  if (command == "generate" && n == 4) {
    const auto scale = parse_nonnegative(args[2]);
    return scale && *scale > 0.0 ? cmd_generate(args[1], *scale, args[3])
                                 : usage();
  }
  if (command == "measure" && (n == 2 || n == 3)) {
    const std::optional<std::uint64_t> sources =
        n == 3 ? parse_count(args[2], 1, kMaxU32) : 20;
    return sources ? cmd_measure(args[1], static_cast<std::uint32_t>(*sources))
                   : usage();
  }
  if (command == "attack" && n == 4) {
    const auto sybils = parse_count(args[2], 1, kMaxVertices);
    const auto attack_edges = parse_count(args[3], 1, kMaxU32);
    return sybils && attack_edges
               ? cmd_attack(args[1], static_cast<VertexId>(*sybils),
                            static_cast<std::uint32_t>(*attack_edges))
               : usage();
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  return exec::guarded_main(
      [&] { return run_command(args); },
      [&](exec::RunConfig& config) { args = parse_flags(argc, argv, config); });
}
