#include "markov/spectral.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/components.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

using Vector = std::vector<double>;

constexpr std::uint64_t kStartSeed = 7;

double dot(const Vector& a, const Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// The plain Lanczos recurrence on N = D^{-1/2} A D^{-1/2} restricted to the
/// complement of its principal eigenvector phi = D^{1/2} 1 (unit). Besides
/// D^{-1/2} and phi it holds three n-vectors: the last two basis vectors
/// and the next one.
class Recurrence {
 public:
  explicit Recurrence(const Graph& g) : g_{g} {
    const VertexId n = g.num_vertices();
    inv_sqrt_deg_.resize(n);
    phi_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      const double degree = static_cast<double>(g.degree(v));
      inv_sqrt_deg_[v] = 1.0 / std::sqrt(degree);
      phi_[v] = std::sqrt(degree);
    }
    const double phi_norm = std::sqrt(dot(phi_, phi_));
    for (double& value : phi_) value /= phi_norm;
  }

  /// Rewinds to q_1, the deflated unit start vector (a fixed seed).
  void restart() {
    Rng rng{kStartSeed};
    q_.resize(g_.num_vertices());
    for (double& value : q_) value = rng.uniform_real() - 0.5;
    deflate(q_);
    const double q_norm = std::sqrt(dot(q_, q_));
    if (q_norm == 0.0)
      throw std::logic_error("second_largest_eigenvalue: degenerate start");
    for (double& value : q_) value /= q_norm;
    prev_.assign(q_.size(), 0.0);
    beta_prev_ = 0.0;
  }

  /// One step from q_j: w = N q_j - beta_{j-1} q_{j-1}, alpha_j = w . q_j,
  /// w -= alpha_j q_j, and phi deflated from w. Returns {alpha_j, |w|}. The
  /// forward pass and the replay both run it, so the replay reproduces
  /// every q_j bitwise.
  std::pair<double, double> step() {
    apply(q_, w_);
    for (std::size_t v = 0; v < w_.size(); ++v) w_[v] -= beta_prev_ * prev_[v];
    const double alpha = dot(w_, q_);
    for (std::size_t v = 0; v < w_.size(); ++v) w_[v] -= alpha * q_[v];
    deflate(w_);
    return {alpha, std::sqrt(dot(w_, w_))};
  }

  /// q_{j+1} = w / beta_j, where beta_j = |w| from the last step.
  void advance(double beta) {
    prev_.swap(q_);
    q_.swap(w_);
    for (double& value : q_) value /= beta;
    beta_prev_ = beta;
  }

  const Vector& q() const { return q_; }

  /// Normalizes y in place (after deflating phi) and returns its Rayleigh
  /// quotient rho and residual norm |N y - rho y|.
  std::pair<double, double> rayleigh(Vector& y) {
    deflate(y);
    const double y_norm = std::sqrt(dot(y, y));
    for (double& value : y) value /= y_norm;
    apply(y, w_);
    const double rho = dot(y, w_);
    double residual_sq = 0.0;
    for (std::size_t v = 0; v < y.size(); ++v) {
      const double e = w_[v] - rho * y[v];
      residual_sq += e * e;
    }
    return {rho, std::sqrt(residual_sq)};
  }

  /// y = D^{-1/2} y: from N's eigenvector space to P's (vertex space).
  void to_vertex_space(Vector& y) const {
    for (std::size_t v = 0; v < y.size(); ++v) y[v] *= inv_sqrt_deg_[v];
  }

  std::uint32_t matvecs() const { return matvecs_; }

 private:
  /// y = N x, the one application of N in the library. Row-partitioned
  /// gather over the pool: each output row sums its neighbours'
  /// contributions in adjacency order, independent of chunking.
  void apply(const Vector& x, Vector& y) {
    const auto& offsets = g_.offsets();
    const auto& targets = g_.targets();
    y.resize(x.size());
    parallel::parallel_for(
        0, x.size(),
        [&](std::size_t v, std::uint32_t) {
          double acc = 0.0;
          for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i)
            acc += x[targets[i]] * inv_sqrt_deg_[targets[i]];
          y[v] = acc * inv_sqrt_deg_[v];
        },
        /*grain=*/2048);
    ++matvecs_;
  }

  void deflate(Vector& x) const {
    const double projection = dot(x, phi_);
    for (std::size_t v = 0; v < x.size(); ++v) x[v] -= projection * phi_[v];
  }

  const Graph& g_;
  Vector inv_sqrt_deg_, phi_;
  Vector prev_, q_, w_;
  double beta_prev_ = 0.0;
  std::uint32_t matvecs_ = 0;
};

/// Number of eigenvalues below x of the symmetric tridiagonal T with
/// diagonal a and off-diagonal b[0..size(a)-1): the negative pivots of the
/// LDL^T of T - x I (a Sturm sequence count).
std::size_t count_below(const Vector& a, const Vector& b, double x) {
  std::size_t count = 0;
  double pivot = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double off_sq = i > 0 ? b[i - 1] * b[i - 1] : 0.0;
    pivot = a[i] - x - (pivot != 0.0 ? off_sq / pivot : off_sq / 1e-300);
    if (pivot < 0.0) ++count;
  }
  return count;
}

/// An eigenpair (theta, s) of T, s a unit vector.
struct RitzPair {
  double theta = 0.0;
  Vector s;
};

/// The extreme eigenpair of T (diagonal a, off-diagonal b): the largest
/// when `top`, else the smallest. T's eigenvalues are Ritz values of N, so
/// they lie in [-1, 1] up to rounding; Sturm bisection narrows a slightly
/// wider interval around theta. Its outer end is a shift at or just past
/// the spectrum, so M = +-(shift I - T) is positive semidefinite and its
/// LDL^T needs no pivoting. Inverse iteration with M from the all-ones
/// vector then gives s.
RitzPair extreme_ritz_pair(const Vector& a, const Vector& b, bool top) {
  const std::size_t k = a.size();
  const std::size_t index = top ? k - 1 : 0;
  double lo = -1.01, hi = 1.01;
  while (hi - lo > 1e-13) {
    const double mid = 0.5 * (lo + hi);
    if (count_below(a, b, mid) > index) hi = mid;
    else lo = mid;
  }

  // M = sign (shift I - T): diagonal sign (shift - a_i), off-diagonal
  // -sign b_i. Pivots that rounding pushes to or below zero are floored.
  const double shift = top ? hi : lo;
  const double sign = top ? 1.0 : -1.0;
  Vector pivots(k), multipliers(k);
  for (std::size_t i = 0; i < k; ++i) {
    double pivot = sign * (shift - a[i]);
    if (i > 0) pivot += multipliers[i - 1] * sign * b[i - 1];
    pivots[i] = std::max(pivot, 1e-16);
    if (i + 1 < k) multipliers[i] = -sign * b[i] / pivots[i];
  }
  Vector x(k, 1.0);
  for (int solve = 0; solve < 3; ++solve) {
    for (std::size_t i = 1; i < k; ++i) x[i] -= multipliers[i - 1] * x[i - 1];
    for (std::size_t i = 0; i < k; ++i) x[i] /= pivots[i];
    for (std::size_t i = k - 1; i-- > 0;) x[i] -= multipliers[i] * x[i + 1];
    const double x_norm = std::sqrt(dot(x, x));
    for (double& value : x) value /= x_norm;
  }
  return {0.5 * (lo + hi), std::move(x)};
}

/// The bracket on mu = max(lambda_2, -lambda_n) from the top and bottom
/// ends' values (Ritz values or Rayleigh quotients) and residuals.
struct Bracket {
  double lo = 0.0;
  double hi = 0.0;
};
Bracket mu_bracket(double top, double top_residual, double bottom,
                   double bottom_residual) {
  return {std::max(top, -bottom),
          std::max(top + top_residual, -bottom + bottom_residual)};
}

/// Diagnostics (SNTRUST_DIAG): the forward pass's certificate widths, the
/// returned bracket on mu and on the gap 1 - mu, and a flag on a cap exit.
void record_diag(const SlemResult& result,
                 const obs::ConvergenceTrace& widths) {
  obs::DiagRegistry& registry = obs::DiagRegistry::instance();
  registry.record_trace(
      obs::summarize_trace("slem.lanczos", 0, widths, result.certified));
  registry.record_estimate("slem.mu",
                           {result.mu, result.lo, result.hi, 1, 1.0});
  registry.record_estimate(
      "slem.spectral_gap",
      {1.0 - result.mu, 1.0 - result.hi, 1.0 - result.lo, 1, 1.0});
  if (!result.certified)
    registry.record_nonconverged("slem.lanczos", 0, result.steps, result.mu);
}

}  // namespace

SlemResult second_largest_eigenvalue(const Graph& g) {
  const obs::Span span{"slem.lanczos", "markov"};
  if (g.num_vertices() == 0 || g.num_edges() == 0)
    throw std::invalid_argument(
        "second_largest_eigenvalue: graph must have edges");
  if (!is_connected(g))
    throw std::invalid_argument(
        "second_largest_eigenvalue: graph must be connected");

  Recurrence lanczos{g};
  lanczos.restart();
  // T_k: alpha on the diagonal, beta[0..k-1) beside it; beta[k-1] couples
  // T_k to the next basis vector, so |beta[k-1] s_k| is a Ritz pair's
  // residual estimate.
  Vector alpha, beta;
  // The Ritz pairs of the first T_k whose bracket on mu, and whose top
  // pair's residual estimate (lambda_2's), are under kSlemBracketWidth. A
  // later T with a Ritz value beyond either upper end shows that the
  // Krylov space had missed an eigenvalue, and drops it. It stands once
  // the step count has doubled without one (or at the cap), and at once
  // when beta_k is at rounding level: then the Krylov space is invariant
  // and its Ritz values are eigenvalues.
  struct Candidate {
    std::size_t steps = 0;  // 0 while there is none
    RitzPair top, bottom;
    double mu_hi = 0.0;
    double lambda2_hi = 0.0;
  } candidate;
  const bool diag = obs::diag_enabled();
  obs::ConvergenceTrace widths;
  for (std::uint32_t j = 0;; ++j) {  // step j + 1
    const auto [a, b] = lanczos.step();
    alpha.push_back(a);
    beta.push_back(b);
    const std::size_t k = j + 1;
    const bool invariant = b < 1e-10;
    const bool last = k == kSlemMaxSteps;
    // The Ritz pairs cost O(k), so after the first 64 steps the bracket is
    // formed 32 times per doubling of j, which overshoots a step count by at
    // most j/32 steps.
    if (j >= 32 && j % (std::bit_floor(j) / 32) != 0 && !invariant && !last) {
      lanczos.advance(b);
      continue;
    }
    RitzPair top = extreme_ritz_pair(alpha, beta, /*top=*/true);
    RitzPair bottom = extreme_ritz_pair(alpha, beta, /*top=*/false);
    const double top_residual = std::fabs(b * top.s.back());
    const Bracket estimate = mu_bracket(top.theta, top_residual, bottom.theta,
                                        std::fabs(b * bottom.s.back()));
    const double width = std::max(estimate.hi - estimate.lo, top_residual);
    if (diag) widths.add_at(j, width);
    if (candidate.steps != 0 && (estimate.lo > candidate.mu_hi ||
                                 top.theta > candidate.lambda2_hi))
      candidate = {};
    // At the cap the last pairs feed the replay, certified or not.
    if (candidate.steps == 0 && (width < kSlemBracketWidth || last)) {
      const double lambda2_hi = top.theta + top_residual;
      candidate = {k, std::move(top), std::move(bottom), estimate.hi,
                   lambda2_hi};
    }
    if (invariant || last ||
        (candidate.steps != 0 && k >= 2 * candidate.steps))
      break;
    lanczos.advance(b);
  }

  // Replay: regenerate the candidate's q_1..q_k and sum the Ritz vectors of
  // both ends.
  const std::size_t k = candidate.steps;
  const RitzPair& top = candidate.top;
  const RitzPair& bottom = candidate.bottom;
  Vector y_top(g.num_vertices(), 0.0), y_bottom(g.num_vertices(), 0.0);
  lanczos.restart();
  for (std::size_t j = 0; j < k; ++j) {
    if (j > 0) {
      const auto [a, b] = lanczos.step();
      if (a != alpha[j - 1] || b != beta[j - 1])
        throw std::logic_error("second_largest_eigenvalue: replay diverged");
      lanczos.advance(b);
    }
    const Vector& q = lanczos.q();
    for (std::size_t v = 0; v < q.size(); ++v) {
      y_top[v] += top.s[j] * q[v];
      y_bottom[v] += bottom.s[j] * q[v];
    }
  }
  const auto [rho_top, residual_top] = lanczos.rayleigh(y_top);
  const auto [rho_bottom, residual_bottom] = lanczos.rayleigh(y_bottom);
  const Bracket bracket =
      mu_bracket(rho_top, residual_top, rho_bottom, residual_bottom);

  SlemResult result;
  result.mu = result.lo = bracket.lo;
  result.hi = bracket.hi;
  result.lambda2 = rho_top;
  lanczos.to_vertex_space(y_top);
  result.lambda2_vector = std::move(y_top);
  result.steps = static_cast<std::uint32_t>(alpha.size());
  result.matvecs = lanczos.matvecs();
  result.certified = bracket.hi - bracket.lo < kSlemBracketWidth &&
                     residual_top < kSlemBracketWidth;
  obs::count("slem.matvecs", result.matvecs);
  if (diag) record_diag(result, widths);
  return result;
}

std::string format_mu(double mu, bool certified, int digits) {
  return certified ? fixed(mu, digits) : fixed(mu, digits) + " uncertified";
}

MixingBounds sinclair_bounds(double mu, double epsilon, VertexId n) {
  if (!(mu > 0.0) || !(mu < 1.0))
    throw std::invalid_argument("sinclair_bounds: mu must be in (0,1)");
  if (!(epsilon > 0.0) || !(epsilon < 1.0))
    throw std::invalid_argument("sinclair_bounds: epsilon must be in (0,1)");
  if (n < 2) throw std::invalid_argument("sinclair_bounds: n must be >= 2");
  MixingBounds bounds;
  bounds.lower = mu / (1.0 - mu) * std::log(1.0 / (2.0 * epsilon));
  bounds.upper =
      (std::log(static_cast<double>(n)) + std::log(1.0 / epsilon)) /
      (1.0 - mu);
  return bounds;
}

}  // namespace sntrust
