// sntrust_serve: stand up a TrustService on a graph and answer trust
// queries from the command line or a script (serve/trust_service.hpp).
//
//   sntrust_serve query <graph> <seeds> <command...>
//       One-shot: loads the graph (a text edge list or an mmap snapshot,
//       sniffed by magic), builds the serving snapshot, runs the
//       commands, exits. <seeds> is a comma-separated vertex list.
//   sntrust_serve repl <graph> <seeds>
//       Reads one command per line from stdin until EOF ("quit" also exits).
//   sntrust_serve bench-gen <dataset_id> <scale> <seeds> <command...>
//       Same as `query` against a generated Table-I analogue (bench seed),
//       so answers can be cross-checked against the serving bench/tests
//       without an on-disk graph.
//
// Commands:
//   admit <defense> <v>   admission verdict (defense: sybilrank|gatekeeper)
//   trust <defense> <v>   trust value + percentile under <defense>
//   coreness <v>          coreness + ECDF percentile
//   landmark <v>          landmark-walk probability at v (rel. stationary)
//   stats                 epoch + service counters
//
// Queries run through ask(), the cancellation-checked read of the service's
// snapshot; answers are bitwise identical to the direct and uncached paths.
// SNTRUST_DEADLINE_MS and SIGINT cancel cooperatively: queries after the
// cancellation report status=cancelled and the process exits 75 with
// whatever completed.
//
// Exit codes (exec::guarded_main): 0 success, 64 usage error (also a
// vertex, seed or scale that is not a whole decimal string in range, and a
// malformed SNTRUST_* value), 65 bad input (unreadable graph,
// out-of-range vertex/seed, unknown command), 75 interrupted,
// 1 internal error. In the REPL a bad line prints an error and the loop
// goes on.
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/run_config.hpp"
#include "gen/datasets.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "serve/trust_service.hpp"
#include "util/format.hpp"
#include "util/parse.hpp"

namespace {

using namespace sntrust;
using serve::Answer;
using serve::Defense;
using serve::Query;
using serve::QueryKind;
using serve::QueryStatus;

constexpr std::uint64_t kBenchSeed = 20110621;

int usage() {
  std::cerr
      << "usage:\n"
         "  sntrust_serve query <graph> <seeds> <command...>\n"
         "  sntrust_serve repl <graph> <seeds>\n"
         "  sntrust_serve bench-gen <dataset_id> <scale> <seeds> "
         "<command...>\n"
         "commands: admit <sybilrank|gatekeeper> <v> | trust "
         "<sybilrank|gatekeeper> <v> | coreness <v> | landmark <v> | stats\n"
         "<seeds> is comma-separated, e.g. 0,1,2,3,4\n";
  return 64;  // EX_USAGE
}

VertexId parse_vertex(const std::string& text) {
  const auto vertex =
      parse_count(text, 0, std::numeric_limits<VertexId>::max());
  if (!vertex) throw exec::UsageError("not a vertex id: " + text);
  return static_cast<VertexId>(*vertex);
}

std::vector<VertexId> parse_seeds(const std::string& text) {
  std::vector<VertexId> seeds;
  std::istringstream in{text};
  std::string item;
  while (std::getline(in, item, ',')) seeds.push_back(parse_vertex(item));
  if (seeds.empty()) throw exec::UsageError("empty seed list");
  return seeds;
}

Defense parse_defense(const std::string& name) {
  if (name == "sybilrank") return Defense::kSybilRank;
  if (name == "gatekeeper") return Defense::kGateKeeper;
  throw std::invalid_argument("unknown defense: " + name +
                              " (want sybilrank|gatekeeper)");
}

/// Prints one answer line; returns false for a cancelled answer, which
/// maps to exit 75.
bool print_answer(const Query& query, const Answer& answer) {
  switch (answer.status) {
    case QueryStatus::kCancelled:
      std::cout << "v=" << query.vertex << " status=cancelled\n";
      return false;
    case QueryStatus::kUnavailable:
      // The service builds its snapshot before the first query, so this is
      // an internal error rather than a partial.
      throw std::logic_error("no snapshot covers vertex " +
                             std::to_string(query.vertex));
    case QueryStatus::kInvalidVertex:
      throw std::invalid_argument("vertex out of range: " +
                                  std::to_string(query.vertex));
    case QueryStatus::kOk:
      break;
  }
  std::cout << "v=" << query.vertex;
  switch (query.kind) {
    case QueryKind::kAdmission:
      std::cout << (query.defense == Defense::kGateKeeper ? " gatekeeper"
                                                          : " sybilrank")
                << " admitted=" << (answer.admitted ? "yes" : "no")
                << " value=" << answer.value
                << " percentile=" << fixed(answer.percentile, 4);
      break;
    case QueryKind::kTrustScore:
      std::cout << (query.defense == Defense::kGateKeeper ? " gatekeeper"
                                                          : " sybilrank")
                << " trust=" << answer.value
                << " percentile=" << fixed(answer.percentile, 4);
      break;
    case QueryKind::kCoreness:
      std::cout << " coreness=" << static_cast<std::uint64_t>(answer.value)
                << " percentile=" << fixed(answer.percentile, 4);
      break;
    case QueryKind::kLandmark:
      std::cout << " landmark_p=" << answer.value
                << " vs_stationary=" << fixed(answer.percentile, 3) << "x";
      break;
  }
  std::cout << "\n";
  return true;
}

void print_stats(const serve::TrustService& service) {
  const obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  const auto counter = [&snap](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  std::cout << "graph: n=" << with_thousands(service.graph().num_vertices())
            << " m=" << with_thousands(service.graph().num_edges())
            << " fingerprint=" << to_hex(service.graph().fingerprint())
            << "\n"
            << "epoch: " << service.epoch()
            << " rebuild_failures=" << counter("serve.rebuild_failures")
            << "\n"
            << "served: queries=" << counter("serve.queries")
            << " cancelled=" << counter("serve.cancelled")
            << " degraded=" << counter("serve.degraded")
            << " unavailable=" << counter("serve.unavailable") << "\n";
}

/// Executes one command (a token list); returns false once cancelled.
bool run_command(serve::TrustService& service,
                 const std::vector<std::string>& words) {
  if (words.empty()) return true;
  const std::string& op = words[0];
  if (op == "stats") {
    print_stats(service);
    return true;
  }
  Query query;
  if ((op == "admit" || op == "trust") && words.size() == 3) {
    query.kind = op == "admit" ? QueryKind::kAdmission : QueryKind::kTrustScore;
    query.defense = parse_defense(words[1]);
    query.vertex = parse_vertex(words[2]);
  } else if ((op == "coreness" || op == "landmark") && words.size() == 2) {
    query.kind = op == "coreness" ? QueryKind::kCoreness : QueryKind::kLandmark;
    query.vertex = parse_vertex(words[1]);
  } else {
    throw std::invalid_argument("unknown command: " + op);
  }
  return print_answer(query, service.ask(query));
}

int serve_commands(Graph graph, const std::vector<VertexId>& seeds,
                   const std::vector<std::vector<std::string>>& script,
                   bool repl) {
  serve::TrustService::Options options;
  options.config.seeds = seeds;
  options.config.gatekeeper.seed = kBenchSeed;
  serve::TrustService service{std::move(graph), std::move(options)};

  bool cancelled = false;
  const auto run = [&](const std::vector<std::string>& words) {
    if (!run_command(service, words)) cancelled = true;
  };
  for (const std::vector<std::string>& words : script) run(words);
  if (repl) {
    std::string line;
    while (!cancelled && std::getline(std::cin, line)) {
      std::istringstream in{line};
      std::vector<std::string> words;
      std::string word;
      while (in >> word) words.push_back(word);
      if (!words.empty() && (words[0] == "quit" || words[0] == "exit")) break;
      try {
        run(words);
      } catch (const std::invalid_argument& error) {
        // REPL keeps going on a bad line; scripts fail fast via exit 65.
        std::cout << "error: " << error.what() << "\n";
      }
    }
  }
  if (cancelled) return exec::interrupted_exit("some queries were cancelled");
  return 0;
}

/// Splits trailing args into commands at ";" boundaries so one invocation
/// can run several queries: `admit sybilrank 7 ; stats`.
std::vector<std::vector<std::string>> split_script(
    const std::vector<std::string>& args, std::size_t first) {
  std::vector<std::vector<std::string>> script{{}};
  for (std::size_t i = first; i < args.size(); ++i) {
    if (args[i] == ";")
      script.emplace_back();
    else
      script.back().push_back(args[i]);
  }
  if (script.back().empty()) script.pop_back();
  return script;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return exec::guarded_main([&] {
    if (args.empty()) return usage();
    const std::string& command = args[0];
    if (command == "query" && args.size() >= 4)
      return serve_commands(read_graph_auto(args[1]), parse_seeds(args[2]),
                            split_script(args, 3), /*repl=*/false);
    if (command == "repl" && args.size() == 3)
      return serve_commands(read_graph_auto(args[1]), parse_seeds(args[2]), {},
                            /*repl=*/true);
    if (command == "bench-gen" && args.size() >= 5) {
      const DatasetSpec& spec = dataset_by_id(args[1]);
      const auto scale = parse_nonnegative(args[2]);
      if (!scale) return usage();
      Graph graph = *scale == 0.0 ? spec.generate_full(kBenchSeed)
                                  : spec.generate(*scale, kBenchSeed);
      return serve_commands(std::move(graph), parse_seeds(args[3]),
                            split_script(args, 4), /*repl=*/false);
    }
    return usage();
  });
}
