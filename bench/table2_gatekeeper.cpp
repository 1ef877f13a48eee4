// Table II: GateKeeper run on four graphs with different characteristics.
// Attackers are selected randomly, 99 distributers are sampled, and the
// admission fraction f is swept. Reported: honest acceptance (% of the whole
// graph) and Sybils admitted per attack edge.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "report/table.hpp"
#include "sybil/gatekeeper.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{
      "Table II: GateKeeper honest/Sybil acceptance, 99 distributers"};

  const std::vector<double> fs = {0.05, 0.1, 0.2};
  Table table{{"Dataset", "n", "attack edges", "unfiltered/edge", "accept",
               "f=0.05", "f=0.1", "f=0.2"}};

  for (const std::string& id : table2_ids()) {
    bench::DatasetTimer dataset_timer;
    const DatasetSpec& spec = dataset_by_id(id);
    // Table II's graphs are large; keep the admission experiment affordable.
    const Graph honest =
        bench::dataset_graph(spec, 0.12);

    // A large Sybil region behind proportionally few attack edges, so the
    // per-edge bound is visible rather than saturated by a tiny region.
    AttackParams attack;
    attack.num_sybils = std::max<VertexId>(100, honest.num_vertices() / 4);
    attack.attack_edges =
        std::max<std::uint32_t>(10, honest.num_vertices() / 500);
    attack.seed = bench::kBenchSeed;
    const AttackedGraph attacked{honest, attack};

    // Only the admission threshold depends on f: one run scores all three.
    GateKeeperParams params;
    params.num_distributers = 99;
    params.seed = bench::kBenchSeed;
    const std::vector<GateKeeperEvaluation> evals =
        evaluate_gatekeeper(attacked, 0, params, fs);
    std::string honest_row[3], sybil_row[3];
    for (int i = 0; i < 3; ++i) {
      honest_row[i] = fixed(100 * evals[i].honest_accept_fraction, 1) + "%";
      sybil_row[i] = fixed(evals[i].sybils_per_attack_edge, 2);
    }
    const double unfiltered = static_cast<double>(attacked.num_sybils()) /
                              attacked.num_attack_edges();
    table.add_row({spec.name, with_thousands(honest.num_vertices()),
                   std::to_string(attacked.num_attack_edges()),
                   fixed(unfiltered, 1), "Honest", honest_row[0],
                   honest_row[1], honest_row[2]});
    table.add_row({"", "", "", "", "Sybil", sybil_row[0], sybil_row[1],
                   sybil_row[2]});
    std::cerr << "  evaluated " << id << "\n";
  }

  table.print(std::cout);
  std::cout << "Expected shape (paper Table II): honest acceptance decreases "
               "as f grows (89-98% at small f down to tens of % at f=0.2+); "
               "Sybils admitted per attack edge stay a small constant, far "
               "below the unfiltered Sybil/edge ratio.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
