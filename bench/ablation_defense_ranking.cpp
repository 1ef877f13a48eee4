// Ablation A2: "defenses rank by connectivity to the trusted node"
// (Viswanath et al., echoed in the paper's related work). Builds an attacked
// graph, derives a trust ranking from each defense, and reports (i) each
// ranking's honest-vs-Sybil AUC and (ii) the pairwise top-k overlap between
// defense rankings.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "centrality/centrality.hpp"
#include "markov/distribution.hpp"
#include "markov/walker.hpp"
#include "report/table.hpp"
#include "sybil/attack.hpp"
#include "sybil/community_defense.hpp"
#include "sybil/gatekeeper.hpp"
#include "sybil/sybilinfer.hpp"
#include "sybil/sybillimit.hpp"
#include "sybil/sybilrank.hpp"
#include "util/format.hpp"

static int run_bench() {
  using namespace sntrust;
  bench::Section section{"Ablation A2: defense ranking agreement"};

  const Graph honest =
      bench::dataset_graph(dataset_by_id("wiki_vote"), 0.2);
  AttackParams attack;
  attack.num_sybils = honest.num_vertices() / 4;
  attack.attack_edges = std::max<std::uint32_t>(5, honest.num_vertices() / 100);
  attack.seed = bench::kBenchSeed;
  const AttackedGraph attacked{honest, attack};
  const Graph& g = attacked.graph();
  const VertexId n = g.num_vertices();
  std::cout << "honest=" << attacked.num_honest()
            << " sybil=" << attacked.num_sybils()
            << " attack_edges=" << attacked.num_attack_edges() << "\n\n";

  std::vector<std::string> names;
  std::vector<Ranking> rankings;

  {  // GateKeeper: rank by admission count.
    GateKeeperParams params;
    params.num_distributers = 40;
    params.f_admit = 0.1;
    params.seed = bench::kBenchSeed;
    const GateKeeperResult result = run_gatekeeper(g, 0, params);
    std::vector<double> scores(n);
    for (VertexId v = 0; v < n; ++v) scores[v] = result.admissions[v];
    names.push_back("GateKeeper");
    rankings.push_back(ranking_from_scores(scores));
  }
  {  // SybilLimit: rank by acceptance across repeated verifier instances.
    SybilLimitParams params;
    params.seed = bench::kBenchSeed;
    params.route_factor = 0.5;
    const SybilLimit limit{g, params};
    std::vector<double> scores(n, 0.0);
    for (int round = 0; round < 3; ++round) {
      auto verifier = limit.make_verifier(0);
      for (VertexId v = 0; v < n; ++v)
        if (verifier.accepts(v)) scores[v] += 1.0;
    }
    names.push_back("SybilLimit");
    rankings.push_back(ranking_from_scores(scores));
    std::cerr << "  SybilLimit ranked\n";
  }
  {  // SybilInfer-lite: its native score.
    SybilInferParams params;
    params.seed = bench::kBenchSeed;
    const SybilInferResult result = run_sybilinfer(g, 0, params);
    names.push_back("SybilInfer");
    rankings.push_back(result.ranking);
  }
  {  // SybilRank: early-terminated power iteration from honest seeds.
    names.push_back("SybilRank");
    rankings.push_back(run_sybilrank(g, {0, 1, 2}).ranking);
  }
  {  // Community expansion (Viswanath et al.'s replacement argument: local
     // community detection around the trusted node IS the shared signal).
    names.push_back("CommunityExp");
    rankings.push_back(community_expansion(g, 0).ranking);
    std::cerr << "  CommunityExp ranked\n";
  }
  {  // Betweenness ranking (Quercia & Hailes-style defenses rank by
     // centrality; honest vertices sit on far more shortest paths than a
     // Sybil region behind few attack edges).
    CentralityOptions options;
    options.num_sources = std::min<VertexId>(n, 400);
    options.seed = bench::kBenchSeed;
    names.push_back("Betweenness");
    rankings.push_back(
        ranking_from_scores(betweenness_centrality(g, options)));
    std::cerr << "  Betweenness ranked\n";
  }
  {  // Plain random-walk hit rate (the "connectivity to trusted node"
     // baseline all of the above allegedly reduce to).
    RandomWalker walker{g, bench::kBenchSeed};
    std::vector<double> scores(n, 0.0);
    const std::uint64_t traces = 30ull * n;
    for (std::uint64_t i = 0; i < traces; ++i)
      scores[walker.walk_endpoint(0, 10)] += 1.0;
    const Distribution pi = stationary_distribution(g);
    for (VertexId v = 0; v < n; ++v)
      scores[v] = pi[v] > 0 ? scores[v] / pi[v] : 0.0;
    names.push_back("WalkBaseline");
    rankings.push_back(ranking_from_scores(scores));
  }

  Table auc_table{{"defense", "ranking AUC (honest above sybil)"}};
  for (std::size_t i = 0; i < names.size(); ++i)
    auc_table.add_row({names[i], fixed(ranking_auc(rankings[i], attacked), 3)});
  auc_table.print(std::cout);

  std::cout << "\nPairwise top-k overlap between rankings:\n";
  Table overlap_table{{"pair", "overlap"}};
  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t j = i + 1; j < names.size(); ++j)
      overlap_table.add_row(
          {names[i] + " vs " + names[j],
           fixed(ranking_overlap(rankings[i], rankings[j]), 3)});
  overlap_table.print(std::cout);

  std::cout << "Expected shape: the walk-based defenses (GateKeeper, "
               "SybilLimit, SybilInfer, WalkBaseline) all reach AUC ~1 with "
               "pairwise overlaps far above random — one shared "
               "connectivity-to-trusted-node signal. The two non-walk "
               "signals fail instructively: betweenness barely separates, "
               "and greedy community expansion is actively fooled (AUC << "
               "0.5) because the densely wired Sybil region is a *tighter "
               "community* than the honest periphery — the known fragility "
               "of community-detection defenses, and the reason the "
               "walk-based family (whose volume-flow signal the attacker "
               "cannot fake without attack edges) prevailed.\n";
  return 0;
}

int main() { return sntrust::exec::guarded_main(run_bench); }
