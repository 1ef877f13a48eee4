// Spectral machinery: the second largest eigenvalue modulus (SLEM) of the
// transition matrix with a residual bracket, the lambda_2 eigenvector, and
// the Sinclair mixing-time bounds built from them (paper Sec. III-C and
// Table I).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace sntrust {

/// A bracket on mu narrower than this certifies it.
inline constexpr double kSlemBracketWidth = 1e-6;
/// Lanczos steps after which the solver gives up on the certificate.
inline constexpr std::uint32_t kSlemMaxSteps = 3000;

/// The spectrum the mixing story reads. P = D^{-1} A is similar to the
/// symmetric N = D^{-1/2} A D^{-1/2}; lambda_2 and lambda_n are N's second
/// largest and smallest eigenvalues.
struct SlemResult {
  /// mu = max(lambda_2, -lambda_n): the larger modulus of the Rayleigh
  /// quotients of the two end Ritz vectors. A Rayleigh quotient never
  /// overshoots its end of the spectrum, so mu is also the bracket's `lo`.
  double mu = 0.0;
  /// Residual bracket on mu (DESIGN.md §5 states its one assumption).
  double lo = 0.0;
  double hi = 0.0;
  /// Rayleigh quotient of lambda2_vector, whose residual is under
  /// kSlemBracketWidth when certified.
  double lambda2 = 0.0;
  /// D^{-1/2} y for the unit top Ritz vector y: the lambda_2 eigenvector in
  /// vertex space, the ordering conductance_sweep takes.
  std::vector<double> lambda2_vector;
  std::uint32_t steps = 0;    ///< Lanczos steps of the forward pass
  std::uint32_t matvecs = 0;  ///< applications of N over both passes
  /// hi - lo and lambda2_vector's residual are under kSlemBracketWidth.
  /// False after a kSlemMaxSteps exit.
  bool certified = false;
};

/// Runs a plain Lanczos recurrence (three n-vectors, no reorthogonalization,
/// no restart) on N restricted to the complement of its principal
/// eigenvector D^{1/2} 1, from a fixed start vector. The extreme Ritz values
/// of T_k and their estimates |beta_k s_k| bracket mu and lambda_2; the
/// first T_k with both brackets narrower than kSlemBracketWidth stands once
/// the step count has doubled with no Ritz value beyond them (DESIGN.md
/// §5), and the run stops there or after kSlemMaxSteps steps. A replay of
/// the same recurrence then forms that T_k's Ritz vectors of both ends,
/// whose true Rayleigh quotients and residual norms give the returned
/// bracket. Bitwise identical at any thread count. Requires a connected
/// graph with >= 1 edge (throws std::invalid_argument otherwise).
SlemResult second_largest_eigenvalue(const Graph& g);

/// mu as the tables print it: `digits` decimals, then " uncertified" when
/// the solver stopped at its step cap.
std::string format_mu(double mu, bool certified, int digits);

/// Sinclair bounds on the mixing time T(epsilon) from mu (paper Sec. III-C):
///   lower: (mu / (1 - mu)) * ln(1 / (2 epsilon))
///   upper: (ln n + ln(1 / epsilon)) / (1 - mu)
struct MixingBounds {
  double lower = 0.0;
  double upper = 0.0;
};

/// Preconditions: 0 < mu < 1, 0 < epsilon < 1, n >= 2.
MixingBounds sinclair_bounds(double mu, double epsilon, VertexId n);

}  // namespace sntrust
