// A Whānau-style Sybil-proof DHT (Lesniewski-Laas & Kaashoek, NSDI 2010 —
// the paper's refs [3], [10]): a one-hop distributed hash table whose
// routing tables are populated by *random walks on the social graph*, so an
// attacker's ability to pollute tables is bounded by attack edges rather
// than by Sybil count — provided the graph mixes fast.
//
// Simplified faithful model:
//   - every node draws `table_size` (id, address) finger entries by running
//     w-step random walks and sampling the endpoint's key;
//   - keys live on a ring; a lookup for key k asks the `lookup_fanout`
//     fingers nearest to k whether they hold it (one-hop routing);
//   - Sybil nodes answer lookups incorrectly; a lookup succeeds when an
//     honest finger within the fanout holds/stores the key.
//
// The evaluation mirrors the defense evaluations elsewhere in this repo:
// lookup success on honest keys under an attack region, on fast- vs
// slow-mixing graphs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/attack.hpp"

namespace sntrust {

struct SocialDhtParams {
  /// Finger entries per node (Whānau uses O(sqrt(m) log m); we scale down).
  std::uint32_t table_size = 64;
  /// Random-walk length used to sample fingers; 0 = floor(log2 n) + 3.
  std::uint32_t walk_length = 0;
  /// Fingers consulted per lookup.
  std::uint32_t lookup_fanout = 8;
  std::uint64_t seed = 1;
};

/// Keys are 64-bit ring positions; each vertex owns the key equal to a hash
/// of its id (one record per node, as in Whānau's layered ring).
class SocialDht {
 public:
  /// Builds all routing tables. `is_sybil[v]` marks adversarial vertices
  /// whose records and answers are poisoned; pass an empty vector for a
  /// clean network.
  SocialDht(const Graph& g, const SocialDhtParams& params,
            std::vector<std::uint8_t> is_sybil = {});

  /// The key owned by vertex v.
  std::uint64_t key_of(VertexId v) const;

  /// Runs a lookup from `source` for the key owned by `target`. Returns
  /// true when an honest finger among the fanout-nearest fingers to the key
  /// resolves it (i.e. equals the target or is the target's honest
  /// successor on the ring).
  bool lookup(VertexId source, VertexId target) const;

  /// Fraction of `trials` honest-source -> honest-target lookups that
  /// succeed.
  double lookup_success_rate(std::uint32_t trials, std::uint64_t seed) const;

  /// Fraction of table entries pointing at Sybil vertices, averaged over
  /// honest nodes — the table-poisoning rate the defense bounds.
  double table_poison_rate() const;

 private:
  const Graph& graph_;
  SocialDhtParams params_;
  std::vector<std::uint8_t> is_sybil_;
  /// Position of each vertex's key in the global ring order.
  std::vector<std::uint64_t> ring_rank_;
  /// Length of each node's successor window (records it stores), in ranks.
  std::uint32_t successors_ = 2;
  /// fingers_[v] = sorted (ring rank, vertex) pairs.
  std::vector<std::vector<std::pair<std::uint64_t, VertexId>>> fingers_;
};

/// End-to-end evaluation on an attacked graph.
struct SocialDhtEvaluation {
  double clean_success = 0.0;     ///< success rate with no attack
  double attacked_success = 0.0;  ///< success rate under the Sybil region
  double poison_rate = 0.0;       ///< fraction of honest table entries Sybil
};

SocialDhtEvaluation evaluate_social_dht(const Graph& honest,
                                        const AttackedGraph& attacked,
                                        const SocialDhtParams& params,
                                        std::uint32_t trials);

}  // namespace sntrust
