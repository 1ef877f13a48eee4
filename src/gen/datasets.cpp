#include "gen/datasets.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>
#include <unordered_map>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "util/rng.hpp"

namespace sntrust {

std::string to_string(MixingClass c) {
  switch (c) {
    case MixingClass::kFast: return "fast";
    case MixingClass::kModerate: return "moderate";
    case MixingClass::kSlow: return "slow";
  }
  return "?";
}

namespace {

using Recipe = std::function<Graph(VertexId n, std::uint64_t seed)>;

/// Heavy-tailed analogue with tunable residual community structure (the
/// weak-trust class keeps a large global fraction; lowering it moves the
/// analogue toward the strict-trust class). global_fraction ~1 reduces to a
/// plain configuration model.
Recipe powerlaw_recipe(double gamma, VertexId dmin, double cap_fraction,
                       VertexId block_size, double global_fraction) {
  return [=](VertexId n, std::uint64_t seed) {
    PowerlawCommunityParams params;
    params.num_vertices = n;
    params.gamma = gamma;
    params.min_degree = dmin;
    params.max_degree_cap = static_cast<VertexId>(
        std::max<double>(dmin + 1, cap_fraction * n));
    params.blocks = std::max<std::uint32_t>(
        1, n / std::max<VertexId>(2, block_size));
    params.global_fraction = global_fraction;
    return powerlaw_community(params, seed);
  };
}

/// Co-authorship analogue (strict-trust class): regional affiliation model.
/// groups_per_actor controls density.
Recipe affiliation_recipe(double groups_per_actor, std::uint32_t min_group,
                          std::uint32_t max_group, std::uint32_t regions_per_10k,
                          double cross_region_p, double preferential) {
  return [=](VertexId n, std::uint64_t seed) {
    AffiliationParams params;
    params.num_actors = n;
    params.num_groups = static_cast<std::uint32_t>(
        std::max(1.0, groups_per_actor * n));
    params.min_group = min_group;
    params.max_group = max_group;
    params.regions = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               static_cast<double>(regions_per_10k) * n / 10000.0));
    // Keep every region big enough to host the largest group.
    while (params.regions > 1 && n / params.regions < max_group * 2)
      params.regions /= 2;
    params.cross_region_p = cross_region_p;
    params.preferential = preferential;
    return affiliation_graph(params, seed);
  };
}

struct Entry {
  DatasetSpec spec;
  Recipe recipe;
};

const std::vector<Entry>& registry() {
  static const std::vector<Entry> entries = [] {
    std::vector<Entry> list;
    const auto add = [&](DatasetSpec spec, Recipe recipe) {
      list.push_back({std::move(spec), std::move(recipe)});
    };

    add({"wiki_vote", "Wiki-vote", "who-votes-on-whom; weak trust",
         MixingClass::kFast, 7066, 100736, 0.899, 1.0},
        powerlaw_recipe(1.75, 8, 0.05, 250, 0.15));
    add({"slashdot_a", "Slashdot 1", "declared friend/foe; weak trust",
         MixingClass::kFast, 77360, 469180, 0.987, 1.0},
        powerlaw_recipe(2.05, 3, 0.02, 300, 0.05));
    add({"slashdot_b", "Slashdot 2", "declared friend/foe; weak trust",
         MixingClass::kFast, 82168, 504230, 0.987, 1.0},
        powerlaw_recipe(2.05, 3, 0.02, 300, 0.05));
    add({"epinion", "Epinion", "who-trusts-whom reviews; weak trust",
         MixingClass::kFast, 75879, 405740, 0.947, 1.0},
        powerlaw_recipe(2.0, 2, 0.03, 280, 0.1));
    add({"enron", "Enron", "email exchanges; organizational communities",
         MixingClass::kModerate, 33696, 180811, 0.997, 1.0},
        powerlaw_recipe(1.9, 2, 0.04, 200, 0.06));
    add({"physics_1", "Physics 1", "co-authorship (relativity); strict trust",
         MixingClass::kSlow, 4158, 13422, 0.998, 1.0},
        affiliation_recipe(0.9, 2, 5, 110, 0.06, 0.55));
    add({"physics_2", "Physics 2", "co-authorship (hep); strict trust",
         MixingClass::kSlow, 11204, 117619, 0.998, 1.0},
        affiliation_recipe(0.75, 3, 10, 90, 0.06, 0.60));
    add({"physics_3", "Physics 3", "co-authorship (astro); strict trust",
         MixingClass::kSlow, 17903, 196972, 0.998, 1.0},
        affiliation_recipe(0.70, 3, 10, 70, 0.06, 0.60));
    add({"dblp", "DBLP", "co-authorship (CS); strict trust",
         MixingClass::kSlow, 614981, 1871070, 0.997, 0.1},
        affiliation_recipe(1.1, 2, 4, 80, 0.06, 0.55));
    add({"facebook_a", "Facebook A", "friendship; strict trust",
         MixingClass::kSlow, 1000000, 20353734, std::nullopt, 0.1},
        powerlaw_recipe(2.8, 12, 0.004, 400, 0.02));
    add({"facebook_b", "Facebook B", "friendship; strict trust",
         MixingClass::kSlow, 3097165, 23667394, 0.99, 0.04},
        powerlaw_recipe(2.8, 8, 0.004, 420, 0.02));
    add({"livejournal_a", "LiveJournal A", "blog friendship; mixed trust",
         MixingClass::kModerate, 4843953, 42845684, std::nullopt, 0.025},
        powerlaw_recipe(2.3, 4, 0.01, 280, 0.03));
    add({"youtube", "Youtube", "subscription links; weak trust",
         MixingClass::kModerate, 1134890, 2987624, std::nullopt, 0.1},
        powerlaw_recipe(2.35, 2, 0.02, 220, 0.04));
    add({"rice_grad", "Rice-cs-grad", "department community; strict trust",
         MixingClass::kFast, 501, 3255, std::nullopt, 1.0},
        affiliation_recipe(1.4, 2, 6, 20, 0.25, 0.55));
    return list;
  }();
  return entries;
}

const Entry& entry_by_id(const std::string& id) {
  for (const Entry& e : registry())
    if (e.spec.id == id) return e;
  throw std::invalid_argument("unknown dataset id: " + id);
}

}  // namespace

Graph DatasetSpec::generate(double scale, std::uint64_t seed) const {
  const double effective = scale * default_scale;
  if (effective <= 0.0)
    throw std::invalid_argument("DatasetSpec::generate: scale must be > 0");
  const auto n = static_cast<VertexId>(
      std::max<double>(16.0, std::round(effective * paper_nodes)));
  const Graph raw = entry_by_id(id).recipe(n, seed);
  return largest_component(raw).graph;
}

const std::vector<DatasetSpec>& all_datasets() {
  static const std::vector<DatasetSpec> specs = [] {
    std::vector<DatasetSpec> out;
    for (const Entry& e : registry()) out.push_back(e.spec);
    return out;
  }();
  return specs;
}

const DatasetSpec& dataset_by_id(const std::string& id) {
  return entry_by_id(id).spec;
}

std::vector<std::string> figure1_small_ids() {
  return {"wiki_vote", "enron", "physics_1", "physics_2", "physics_3",
          "slashdot_a", "epinion"};
}

std::vector<std::string> figure1_large_ids() {
  return {"facebook_a", "facebook_b", "livejournal_a", "dblp", "youtube"};
}

std::vector<std::string> figure2_small_ids() {
  return {"physics_1", "physics_2", "wiki_vote", "epinion", "enron"};
}

std::vector<std::string> figure2_large_ids() {
  return {"dblp", "youtube", "facebook_a", "facebook_b", "livejournal_a"};
}

std::vector<std::string> figure3_ids() {
  return {"physics_1", "physics_2", "physics_3", "wiki_vote", "facebook_a",
          "livejournal_a", "slashdot_a", "enron", "epinion", "rice_grad"};
}

std::vector<std::string> figure5_ids() {
  return {"physics_1", "physics_2", "epinion", "wiki_vote", "facebook_a"};
}

std::vector<std::string> table2_ids() {
  return {"physics_3", "facebook_a", "livejournal_a", "slashdot_a"};
}

}  // namespace sntrust
