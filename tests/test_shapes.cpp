// End-to-end "shape" tests: miniature versions of every reproduced artifact
// asserting the paper's qualitative claims, so a regression in any substrate
// that would silently bend a figure fails the suite.
#include <gtest/gtest.h>

#include <cmath>

#include "anon/social_mix.hpp"
#include "cores/core_profile.hpp"
#include "dht/social_dht.hpp"
#include "expansion/expansion_profile.hpp"
#include "gen/datasets.hpp"
#include "markov/mixing.hpp"
#include "markov/modulated.hpp"
#include "markov/spectral.hpp"
#include "sybil/gatekeeper.hpp"

namespace sntrust {
namespace {

// Shared tiny analogues (generated once; the suite reuses them).
const Graph& fast_graph() {
  static const Graph g = dataset_by_id("wiki_vote").generate(0.15, 77);
  return g;
}
const Graph& slow_graph() {
  static const Graph g = dataset_by_id("physics_1").generate(0.6, 77);
  return g;
}

TEST(Shapes, Table1FastSlowMuSplit) {
  const double mu_fast = second_largest_eigenvalue(fast_graph()).mu;
  const double mu_slow = second_largest_eigenvalue(slow_graph()).mu;
  EXPECT_LT(mu_fast, 0.95);
  EXPECT_GT(mu_slow, 0.98);
}

TEST(Shapes, Figure1TvdOrderingAtEveryCheckpoint) {
  MixingOptions options;
  options.num_sources = 6;
  options.max_walk_length = 60;
  options.seed = 77;
  const auto fast = measure_mixing(fast_graph(), options).mean_curve();
  const auto slow = measure_mixing(slow_graph(), options).mean_curve();
  for (const std::uint32_t t : {10u, 20u, 40u, 60u})
    EXPECT_LT(fast[t], slow[t]) << "t=" << t;
}

TEST(Shapes, Figure2FastMixerKeepsMassAtHighCoreness) {
  const auto ecdf_fast = coreness_ecdf(core_decomposition(fast_graph()));
  const auto ecdf_slow = coreness_ecdf(core_decomposition(slow_graph()));
  // Fraction of vertices with coreness <= 5: slow graph saturates earlier.
  EXPECT_LT(ecdf_fast[std::min<std::size_t>(5, ecdf_fast.size() - 1)],
            ecdf_slow[std::min<std::size_t>(5, ecdf_slow.size() - 1)]);
}

TEST(Shapes, Figure5SingleVsMultipleCores) {
  std::uint32_t fast_cores = 0, slow_cores = 0;
  for (const CoreLevel& level : core_profile(fast_graph()))
    fast_cores = std::max(fast_cores, level.num_components);
  for (const CoreLevel& level : core_profile(slow_graph()))
    slow_cores = std::max(slow_cores, level.num_components);
  EXPECT_EQ(fast_cores, 1u);
  EXPECT_GT(slow_cores, 1u);
}

TEST(Shapes, Figure4ExpansionOrderingMatchesMixing) {
  ExpansionOptions options;
  options.num_sources = 300;
  options.seed = 77;
  const double alpha_fast =
      measure_expansion(fast_graph(), options)
          .min_alpha(fast_graph().num_vertices());
  const double alpha_slow =
      measure_expansion(slow_graph(), options)
          .min_alpha(slow_graph().num_vertices());
  EXPECT_GT(alpha_fast, alpha_slow);
}

TEST(Shapes, Table2SybilsBelowUnfilteredAndFMonotone) {
  AttackParams attack;
  attack.num_sybils = fast_graph().num_vertices() / 4;
  attack.attack_edges = 10;
  attack.seed = 77;
  const AttackedGraph attacked{fast_graph(), attack};
  const double unfiltered =
      static_cast<double>(attacked.num_sybils()) / attacked.num_attack_edges();

  double previous_honest = 1.1;
  for (const double f : {0.05, 0.1, 0.2}) {
    GateKeeperParams params;
    params.num_distributers = 40;
    params.f_admit = f;
    params.seed = 77;
    const GateKeeperEvaluation eval = evaluate_gatekeeper(attacked, 0, params);
    EXPECT_LE(eval.honest_accept_fraction, previous_honest + 1e-9);
    previous_honest = eval.honest_accept_fraction;
    EXPECT_LT(eval.sybils_per_attack_edge, unfiltered);
  }
}

TEST(Shapes, ModulationScalesMixingTimeInversely) {
  const std::uint32_t t0 =
      modulated_mixing_time(fast_graph(), 0.0, 0.05, 5, 1000, 77);
  const std::uint32_t t5 =
      modulated_mixing_time(fast_graph(), 0.5, 0.05, 5, 1000, 77);
  ASSERT_NE(t0, 0xFFFFFFFFu);
  ASSERT_NE(t5, 0xFFFFFFFFu);
  const double ratio = static_cast<double>(t5) / t0;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 3.5);
}

TEST(Shapes, AnonymityFastGraphReachesHigherEntropy) {
  const AnonymityCurve fast = measure_anonymity(fast_graph(), 0, 30, true);
  const AnonymityCurve slow = measure_anonymity(slow_graph(), 0, 30, true);
  EXPECT_GT(fast.entropy_bits.back() / fast.max_entropy_bits,
            slow.entropy_bits.back() / slow.max_entropy_bits);
}

TEST(Shapes, DhtPoisonNearTheoreticalBound) {
  AttackParams attack;
  attack.num_sybils = fast_graph().num_vertices() / 4;
  attack.attack_edges =
      std::max<std::uint32_t>(5, fast_graph().num_vertices() / 100);
  attack.seed = 77;
  const AttackedGraph attacked{fast_graph(), attack};
  SocialDhtParams params;
  params.table_size = 48;
  params.seed = 77;
  const SocialDhtEvaluation eval =
      evaluate_social_dht(fast_graph(), attacked, params, 200);

  std::uint32_t walk_length = 3;
  for (VertexId x = attacked.graph().num_vertices(); x > 1; x /= 2)
    ++walk_length;
  const double bound =
      static_cast<double>(walk_length) * attacked.num_attack_edges() /
      (2.0 * static_cast<double>(attacked.graph().num_edges()));
  EXPECT_LT(eval.poison_rate, 3.0 * bound);
  EXPECT_GT(eval.clean_success, 0.7);
}

}  // namespace
}  // namespace sntrust
