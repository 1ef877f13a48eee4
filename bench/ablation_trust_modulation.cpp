// Ablation A4: trust-modulated walks (the mechanism of the paper's ref [16],
// built on this paper's slow-mixing observation). Sweeps the modulation
// parameter alpha on a fast-mixing and a slow-mixing analogue and reports
// the measured mixing time — showing modulation converts a fast weak-trust
// graph into a strict-trust-like slow mixer, deliberately.
#include <iostream>

#include "bench_common.hpp"
#include "markov/modulated.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "sybil/attack.hpp"
#include "sybil/sybillimit.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Ablation A4: trust modulation vs mixing time"};

  const Graph fast =
      bench::dataset_graph(dataset_by_id("wiki_vote"), 0.5);
  const Graph slow =
      bench::dataset_graph(dataset_by_id("physics_1"), 1.0);
  std::cout << "fast analogue (Wiki-vote): n=" << fast.num_vertices()
            << ", slow analogue (Physics 1): n=" << slow.num_vertices()
            << "\n\n";

  Table table{{"alpha", "T(0.01) fast graph", "T(0.01) slow graph"}};
  for (const double alpha : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9}) {
    const std::uint32_t t_fast =
        modulated_mixing_time(fast, alpha, 0.01, 8, 2000, bench::kBenchSeed);
    const std::uint32_t t_slow =
        modulated_mixing_time(slow, alpha, 0.01, 8, 2000, bench::kBenchSeed);
    table.add_row({fixed(alpha, 1),
                   t_fast == 0xFFFFFFFFu ? "> 2000" : std::to_string(t_fast),
                   t_slow == 0xFFFFFFFFu ? "> 2000" : std::to_string(t_slow)});
    std::cerr << "  alpha " << alpha << " done\n";
  }
  table.print(std::cout);
  std::cout << "Expected shape: T scales ~ 1/(1 - alpha) on both graphs; at "
               "high alpha even the weak-trust graph mixes like a "
               "strict-trust one — modulation trades efficiency for trust, "
               "as ref [16] designed.\n\n";

  // Part 2: the tradeoff inside a deployed defense. Trust-aware SybilLimit
  // compensates modulation with longer routes; longer routes admit more
  // honest users and also give Sybil routes more chances to intersect.
  {
    bench::Section defense_section{
        "Ablation A4b: trust-aware SybilLimit tradeoff"};
    AttackParams attack;
    attack.num_sybils = fast.num_vertices() / 4;
    attack.attack_edges =
        std::max<std::uint32_t>(10, fast.num_vertices() / 150);
    attack.seed = bench::kBenchSeed;
    const AttackedGraph attacked{fast, attack};

    Table tradeoff{{"alpha", "route length", "honest accepted",
                    "sybils per attack edge"}};
    for (const double alpha : {0.0, 0.3, 0.6, 0.8}) {
      SybilLimitParams params;
      params.seed = bench::kBenchSeed;
      params.trust_alpha = alpha;
      const SybilLimit limit{attacked.graph(), params};
      const PairwiseEvaluation eval = evaluate_sybillimit(
          attacked, 0, params, 100, 100, bench::kBenchSeed);
      tradeoff.add_row({fixed(alpha, 1),
                        std::to_string(limit.route_length()),
                        fixed(100 * eval.honest_accept_fraction, 1) + "%",
                        fixed(eval.sybils_per_attack_edge, 2)});
      std::cerr << "  alpha " << alpha << " done\n";
    }
    tradeoff.print(std::cout);
    std::cout << "Expected shape: route length grows 1/(1 - alpha); honest "
               "acceptance stays high while Sybil leakage grows with the "
               "longer routes — the security cost of accounting for "
               "distrust, ref [16]'s central tradeoff.\n";
  }
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
