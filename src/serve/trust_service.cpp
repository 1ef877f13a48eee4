#include "serve/trust_service.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "dynamic/evolution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sntrust::serve {

/// Immutable once built; a call answers from the one its reader slot (or,
/// without a slot, its own shared_ptr copy) holds.
struct ServingSnapshot {
  Graph graph;
  std::uint64_t epoch = 0;
  SybilRankArtifact sybilrank;
  GateKeeperArtifact gatekeeper;
  CorenessArtifact coreness;
  LandmarkArtifact landmark;
  std::uint64_t built_ns = 0;  ///< steady clock when the build finished
};

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The four per-artifact answer kernels. answer_uncached feeds them freshly
// computed artifacts and the snapshot paths feed them the snapshot's, so
// all serving paths are bitwise identical by construction. Each kernel
// derives n from the artifact itself.

Answer answer_sybilrank(const SybilRankArtifact& a, VertexId v) {
  Answer answer;
  answer.status = QueryStatus::kOk;
  answer.source = AnswerSource::kSybilRank;
  answer.value = a.scores[v];
  answer.percentile = 1.0 - static_cast<double>(a.rank_of[v]) /
                                static_cast<double>(a.rank_of.size());
  answer.admitted = a.rank_of[v] < a.admit_rank;
  return answer;
}

Answer answer_gatekeeper(const GateKeeperArtifact& a, VertexId v) {
  Answer answer;
  answer.status = QueryStatus::kOk;
  answer.source = AnswerSource::kGateKeeper;
  answer.value = static_cast<double>(a.admissions[v]);
  answer.percentile = static_cast<double>(a.admissions[v]) /
                      static_cast<double>(a.num_distributers);
  answer.admitted = a.admissions[v] >= a.threshold;
  return answer;
}

Answer answer_coreness(const CorenessArtifact& a, VertexId v) {
  Answer answer;
  answer.status = QueryStatus::kOk;
  answer.source = AnswerSource::kCoreness;
  answer.value = static_cast<double>(a.coreness[v]);
  answer.percentile = a.percentile[v];
  answer.admitted = false;
  return answer;
}

Answer answer_landmark(const LandmarkArtifact& a, const Graph& g, VertexId v) {
  Answer answer;
  answer.status = QueryStatus::kOk;
  answer.source = AnswerSource::kLandmark;
  answer.value = a.distribution[v];
  const double degree = static_cast<double>(g.degree_unchecked(v));
  answer.percentile =
      degree == 0.0
          ? 0.0
          : a.distribution[v] * 2.0 *
                static_cast<double>(g.num_edges()) / degree;
  answer.admitted = false;
  return answer;
}

}  // namespace

TrustService::TrustService(Graph graph, Options options)
    : graph_(std::move(graph)),
      options_(std::move(options)),
      query_ms_(obs::metrics_quantile("serve.query_ms")),
      queries_served_(obs::metrics_counter("serve.queries")),
      queries_cancelled_(obs::metrics_counter("serve.cancelled")),
      queries_degraded_(obs::metrics_counter("serve.degraded")),
      queries_unavailable_(obs::metrics_counter("serve.unavailable")),
      rebuild_failures_(obs::metrics_counter("serve.rebuild_failures")) {
  if (graph_.num_vertices() == 0 || graph_.num_edges() == 0)
    throw std::invalid_argument("TrustService: graph must have edges");
  if (options_.config.seeds.empty())
    throw std::invalid_argument("TrustService: config needs >= 1 seed");
  for (const VertexId s : options_.config.seeds)
    if (s >= graph_.num_vertices())
      throw std::invalid_argument("TrustService: seed out of range");
  if (options_.config.controller >= graph_.num_vertices())
    throw std::invalid_argument("TrustService: controller out of range");
  latest_vertices_.store(graph_.num_vertices(), std::memory_order_relaxed);
  if (options_.precompute) publish(build_snapshot(graph_, 0, nullptr));
}

TrustService::~TrustService() {
  wait_for_refresh();
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

std::shared_ptr<const ServingSnapshot> TrustService::build_snapshot(
    Graph graph, std::uint64_t epoch, const ServingSnapshot* previous) const {
  obs::Span span{"serve.build_snapshot", "serve"};
  auto snapshot = std::make_shared<ServingSnapshot>();
  WalkArtifacts walks = compute_walk_artifacts(graph, options_.config);
  snapshot->sybilrank = std::move(walks.sybilrank);
  snapshot->landmark = std::move(walks.landmark);
  GateKeeperHints hints;
  if (previous)
    hints = {previous->gatekeeper.distributers, previous->gatekeeper.budgets};
  snapshot->gatekeeper =
      compute_gatekeeper_artifact(graph, options_.config, hints);
  snapshot->coreness = compute_coreness_artifact(graph);
  snapshot->graph = std::move(graph);
  snapshot->epoch = epoch;
  snapshot->built_ns = steady_now_ns();
  return snapshot;
}

void TrustService::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (published()) return;
  publish(build_snapshot(graph_, epoch_.load(), nullptr));
}

void TrustService::publish(std::shared_ptr<const ServingSnapshot> snapshot) {
  std::shared_ptr<const ServingSnapshot> current = snapshot;
  std::uint64_t generation = 0;
  {
    // The previous snapshot, now in `snapshot`, is released after the lock.
    std::lock_guard<std::shared_mutex> lock(snapshot_mutex_);
    snapshot_.swap(snapshot);
    generation = generation_.load(std::memory_order_relaxed) + 1;
    generation_.store(generation, std::memory_order_release);
  }
  // Hand every idle reader slot the new snapshot, so that no thread keeps
  // the previous one alive until its next call: on churn, the next batch's
  // graph is allocated before a 1 kHz reader calls again (+5 MiB peak RSS
  // in the e2e churn workload). A slot busy with a call takes the new
  // snapshot on its thread's next call.
  for (ReaderSlot& slot : reader_slots_) {
    std::unique_lock<ReaderSlot> lock(slot, std::try_to_lock);
    if (!lock.owns_lock() || !slot.snapshot) continue;
    const std::shared_ptr<const ServingSnapshot> previous =
        std::exchange(slot.snapshot, current);
    slot.generation = generation;
    lock.unlock();
  }
}

std::shared_ptr<const ServingSnapshot> TrustService::published() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mutex_);
  return snapshot_;
}

TrustService::View TrustService::view() {
  View view;
  const std::size_t index = obs::thread_slot();
  if (index < reader_slots_.size()) {
    ReaderSlot& slot = reader_slots_[index];
    view.slot_lock = std::unique_lock<ReaderSlot>(slot);
    if (slot.generation != generation_.load(std::memory_order_acquire)) {
      std::shared_lock<std::shared_mutex> lock(snapshot_mutex_);
      slot.snapshot = snapshot_;
      slot.generation = generation_.load(std::memory_order_relaxed);
    }
    view.snapshot = slot.snapshot.get();
  } else {
    view.owner = published();
    view.snapshot = view.owner.get();
  }
  // Epoch before vertex count: apply_edges stores them in the other order,
  // so a reader that sees an epoch also sees that epoch's vertex count.
  const std::uint64_t latest = epoch_.load(std::memory_order_acquire);
  view.latest_vertices = latest_vertices_.load(std::memory_order_acquire);
  if (view.snapshot && view.snapshot->epoch < latest) {
    view.degraded = true;
    view.staleness_ms =
        static_cast<double>(steady_now_ns() - view.snapshot->built_ns) * 1e-6;
  }
  return view;
}

Answer TrustService::answer_from(const View& view, const Query& query) {
  Answer answer;
  const VertexId v = query.vertex;
  if (v >= view.latest_vertices) {
    answer.status = QueryStatus::kInvalidVertex;
    return answer;
  }
  const ServingSnapshot* snapshot = view.snapshot;
  if (snapshot == nullptr || v >= snapshot->graph.num_vertices()) {
    answer.status = QueryStatus::kUnavailable;
    return answer;
  }
  switch (query.kind) {
    case QueryKind::kAdmission:
    case QueryKind::kTrustScore:
      answer = query.defense == Defense::kGateKeeper
                   ? answer_gatekeeper(snapshot->gatekeeper, v)
                   : answer_sybilrank(snapshot->sybilrank, v);
      break;
    case QueryKind::kCoreness:
      answer = answer_coreness(snapshot->coreness, v);
      break;
    case QueryKind::kLandmark:
      answer = answer_landmark(snapshot->landmark, snapshot->graph, v);
      break;
    default:
      answer.status = QueryStatus::kInvalidVertex;
      return answer;
  }
  answer.degraded = view.degraded;
  answer.staleness_ms = view.staleness_ms;
  return answer;
}

std::size_t TrustService::answer_all(std::span<const Query> queries,
                                     std::span<Answer> answers) {
  if (queries.size() != answers.size())
    throw std::invalid_argument("answer_batch: span sizes differ");
  const View current = view();
  std::size_t unavailable = 0;
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    answers[i] = answer_from(current, queries[i]);
    unavailable += answers[i].status == QueryStatus::kUnavailable;
    degraded += answers[i].degraded;
  }
  queries_served_.add(queries.size());
  if (unavailable != 0) queries_unavailable_.add(unavailable);
  if (degraded != 0) queries_degraded_.add(degraded);
  return queries.size() - unavailable;
}

Answer TrustService::answer(const Query& query) {
  Answer answer;
  answer_all(std::span<const Query>{&query, 1}, std::span<Answer>{&answer, 1});
  return answer;
}

void TrustService::answer_batch(std::span<const Query> queries,
                                std::span<Answer> answers) {
  answer_all(queries, answers);
}

Answer TrustService::answer_uncached(const Query& query) const {
  if (query.vertex >= graph_.num_vertices()) {
    Answer answer;
    answer.status = QueryStatus::kInvalidVertex;
    answer.admitted = false;
    return answer;
  }
  switch (query.kind) {
    case QueryKind::kAdmission:
    case QueryKind::kTrustScore:
      if (query.defense == Defense::kGateKeeper)
        return answer_gatekeeper(
            compute_gatekeeper_artifact(graph_, options_.config),
            query.vertex);
      return answer_sybilrank(
          compute_sybilrank_artifact(graph_, options_.config), query.vertex);
    case QueryKind::kCoreness:
      return answer_coreness(compute_coreness_artifact(graph_), query.vertex);
    case QueryKind::kLandmark:
      return answer_landmark(
          compute_landmark_artifact(graph_, options_.config), graph_,
          query.vertex);
  }
  Answer answer;
  answer.status = QueryStatus::kInvalidVertex;
  return answer;
}

Answer TrustService::ask(const Query& query) {
  Answer answer;
  ask_batch(std::span<const Query>{&query, 1}, std::span<Answer>{&answer, 1});
  return answer;
}

std::size_t TrustService::ask_batch(std::span<const Query> queries,
                                    std::span<Answer> answers) {
  if (queries.size() != answers.size())
    throw std::invalid_argument("ask_batch: span sizes differ");
  if (options_.token.cancelled()) {
    // Exit-75-style partials: explicit kCancelled answers, never a block.
    for (Answer& answer : answers) {
      answer = Answer{};
      answer.status = QueryStatus::kCancelled;
    }
    queries_cancelled_.add(queries.size());
    return 0;
  }
  const std::uint64_t start = steady_now_ns();
  const std::size_t served = answer_all(queries, answers);
  query_ms_.record(static_cast<double>(steady_now_ns() - start) * 1e-6);
  return served;
}

void TrustService::apply_edges(const EdgeBatch& batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  Graph updated = apply_edge_batch(graph_, batch);
  if (updated.num_vertices() == 0 || updated.num_edges() == 0)
    throw std::invalid_argument("apply_edges: result must have edges");
  graph_ = std::move(updated);
  latest_vertices_.store(graph_.num_vertices(), std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  if (rebuild_running_) {
    rebuild_again_ = true;  // coalesce: one more pass covers this batch
    return;
  }
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  // The worker starts by taking mutex_, so it sees the flag set below.
  rebuild_thread_ = std::thread([this] { rebuild_worker(); });
  rebuild_running_ = true;
}

void TrustService::rebuild_worker() {
  std::unique_lock<std::mutex> lock(mutex_);
  do {
    rebuild_again_ = false;
    Graph graph = graph_;  // shallow: shares the CSR
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    lock.unlock();
    // Build without the lock: queries never take it, and apply_edges only
    // waits to publish the next graph. The published snapshot's GateKeeper
    // budgets are the build's hints.
    std::shared_ptr<const ServingSnapshot> built;
    try {
      built = build_snapshot(std::move(graph), epoch, published().get());
    } catch (...) {
      rebuild_failures_.add();
    }
    lock.lock();
    // A batch that moved the epoch meanwhile set rebuild_again_; this
    // snapshot would be stale on arrival, so only the next pass swaps in.
    if (built && epoch_.load(std::memory_order_relaxed) == epoch)
      publish(std::move(built));
  } while (rebuild_again_);
  rebuild_running_ = false;
  rebuild_done_.notify_all();
}

void TrustService::wait_for_refresh() {
  std::unique_lock<std::mutex> lock(mutex_);
  rebuild_done_.wait(lock, [this] { return !rebuild_running_; });
}

}  // namespace sntrust::serve
