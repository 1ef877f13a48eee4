// Registry of synthetic analogues of the paper's Table-I datasets.
//
// The paper measures 14 real social graphs. Those graphs are not
// redistributable here, so each registry entry pairs the paper's reported
// metadata (size, second largest eigenvalue where legible, social model)
// with a generator recipe that reproduces the *class* of the graph:
//
//   - weak-trust interaction graphs (Wiki-vote, Epinion, Slashdot):
//     heavy-tailed, randomly wired -> fast mixing, one giant core;
//   - strict-trust collaboration/friendship graphs (Physics co-authorships,
//     DBLP, Facebook): strong community structure -> slow mixing,
//     fragmented cores.
//
// Large graphs are scaled down (default_scale) so the full benchmark suite
// runs on one core in minutes; all of the paper's claims are about shapes
// and orderings, which are preserved under scaling (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

/// Mixing class the paper associates with the dataset's social model.
enum class MixingClass { kFast, kModerate, kSlow };

/// Human-readable label for a MixingClass.
std::string to_string(MixingClass c);

struct DatasetSpec {
  std::string id;            ///< stable identifier, e.g. "wiki_vote"
  std::string name;          ///< display name, e.g. "Wiki-vote"
  std::string social_model;  ///< one-line description of the trust model
  MixingClass expected_class = MixingClass::kFast;
  std::uint64_t paper_nodes = 0;  ///< size reported in Table I
  std::uint64_t paper_edges = 0;
  /// Second largest eigenvalue of the transition matrix as reported in
  /// Table I (nullopt where the paper's value is not legible / not given).
  std::optional<double> paper_mu;
  /// Scale applied to paper_nodes by default when generating the analogue.
  double default_scale = 1.0;

  /// Generates the analogue at `scale * default_scale * paper_nodes`
  /// vertices, reduced to its largest connected component. Deterministic in
  /// `seed`.
  Graph generate(double scale, std::uint64_t seed) const;
  Graph generate(std::uint64_t seed) const { return generate(1.0, seed); }

  /// Full-paper-scale analogue: cancels default_scale so the generator
  /// targets the Table-I vertex count itself (livejournal ~4.8M vertices).
  /// Expect minutes of generation and GBs of CSR for the largest entries —
  /// pair with graph/snapshot.hpp so the cost is paid once.
  Graph generate_full(std::uint64_t seed) const {
    return generate(1.0 / default_scale, seed);
  }
};

/// All 14 Table-I analogues, in the paper's order.
const std::vector<DatasetSpec>& all_datasets();

/// Lookup by id; throws std::invalid_argument for unknown ids.
const DatasetSpec& dataset_by_id(const std::string& id);

/// The subsets plotted in the paper's figures.
std::vector<std::string> figure1_small_ids();   ///< Fig. 1(a)
std::vector<std::string> figure1_large_ids();   ///< Fig. 1(b)
std::vector<std::string> figure2_small_ids();   ///< Fig. 2(a)
std::vector<std::string> figure2_large_ids();   ///< Fig. 2(b)
std::vector<std::string> figure3_ids();         ///< Fig. 3(a)-(j)
std::vector<std::string> figure5_ids();         ///< Fig. 5(a)-(e)
std::vector<std::string> table2_ids();          ///< Table II rows

}  // namespace sntrust
