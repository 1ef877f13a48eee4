// SybilLimit (Yu, Gibbons, Kaminsky, Xiao — Oakland 2008): near-optimal
// random-route Sybil defense. Verifier and suspect each run r = r0 * sqrt(m)
// independent random routes of length w = Theta(mixing time); the suspect is
// accepted when some suspect-route *tail* (its last directed edge) equals a
// verifier-route tail, subject to the balance condition that spreads
// acceptances evenly over the verifier's tails.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sybil/attack.hpp"
#include "sybil/eval.hpp"

namespace sntrust {

struct SybilLimitParams {
  /// Route length w; on a fast-mixing graph O(log n). 0 means floor(log2 n)+4.
  std::uint32_t route_length = 0;
  /// Route count multiplier: r = route_factor * sqrt(m). The protocol's r0;
  /// it must be large enough that two honest tail sets intersect w.h.p.
  /// (expected collisions ~= route_factor^2 / 2), hence the default of 4.
  double route_factor = 4.0;
  /// Balance condition slack (h = max(balance_h0, (1+balance_slack)*avg)).
  double balance_slack = 4.0;
  /// Trust modulation (Mohaisen et al., INFOCOM 2011): a lazy walk with
  /// hesitation alpha needs 1/(1-alpha) times the steps to mix, so the
  /// trust-aware protocol scales its route length accordingly. 0 = the
  /// plain protocol; larger alpha = more distrust = longer routes = higher
  /// honest acceptance *and* more room for Sybil tails (the tradeoff the
  /// A4 ablation sweeps). Must be in [0, 1).
  double trust_alpha = 0.0;
  std::uint64_t seed = 1;
};

class SybilLimit {
 public:
  SybilLimit(const Graph& g, const SybilLimitParams& params);

  std::uint32_t route_length() const noexcept { return route_length_; }
  std::uint32_t num_routes() const noexcept { return num_routes_; }

  /// A verifier instance holds the verifier's tail set and its balance
  /// counters (acceptances mutate the counters, as in the protocol).
  class Verifier {
   public:
    Verifier(const SybilLimit& parent, VertexId verifier);

    /// Runs the suspect's routes and applies intersection + balance.
    bool accepts(VertexId suspect);

    VertexId vertex() const noexcept { return verifier_; }

   private:
    const SybilLimit& parent_;
    VertexId verifier_;
    /// tail -> index in load counters.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> tails_;  // sorted
    std::vector<std::uint32_t> load_;
    std::uint64_t accepted_total_ = 0;
  };

  Verifier make_verifier(VertexId verifier) const {
    return Verifier{*this, verifier};
  }

 private:
  friend class Verifier;

  /// Directed-edge tails of `r` routes from `v` (encoded u << 32 | w).
  std::vector<std::uint64_t> tails_of(VertexId v) const;

  const Graph& graph_;
  std::uint32_t route_length_ = 0;
  std::uint32_t num_routes_ = 0;
  double balance_slack_;
  std::uint64_t seed_;
};

PairwiseEvaluation evaluate_sybillimit(const AttackedGraph& attacked,
                                       VertexId verifier,
                                       const SybilLimitParams& params,
                                       std::uint32_t honest_samples,
                                       std::uint32_t sybil_samples,
                                       std::uint64_t seed);

}  // namespace sntrust
