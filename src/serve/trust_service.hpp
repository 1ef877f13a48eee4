// Long-lived in-process trust-query service (DESIGN.md §15, §16).
//
// A `TrustService` serves one graph and answers point queries — "is v
// admissible under SybilRank/GateKeeper?", "trust score of v from the seed
// set", "coreness/percentile of v", "landmark walk probability at v" — from
// one immutable `ServingSnapshot`: the graph, its epoch, the four per-defense
// artifacts and the time the build finished. A rebuild publishes a new one
// and bumps the publish generation. Each calling thread keeps its own
// reader slot (obs::thread_slot) holding the generation it last copied and
// a `shared_ptr` to that snapshot. A warm call takes its slot's flag, loads
// the generation once, finds it equal to its slot's, and answers from the
// slot's snapshot without touching the shared lock or a reference count.
// A thread's first call, a call that finds a newer generation, and every
// call of a thread without a slot copy the pointer under a shared lock.
// A publish hands every idle slot the new snapshot, so no idle thread keeps
// the previous one alive; the slot keeps its snapshot alive until then or
// until the service is destroyed, so a swap never frees memory under a
// query.
//
//   * `answer()` / `answer_batch()`: plain caller-thread reads. The warm
//     path performs **no heap allocation** per query (fixed-size Answer,
//     cached metric handles) — pinned by ServeAllocTest.
//   * `ask()` / `ask_batch()`: the same read, preceded by the cancellation
//     check; each call's latency lands in the `serve.query_ms` quantile
//     histogram. Warm, they allocate nothing either.
//   * `answer_uncached()`: the naive recompute-per-query reference the
//     serving bench measures the snapshot against, and the identity oracle
//     the tests pin fresh answers to.
//
// A warm call of any read path writes only cache lines its own thread owns:
// its reader slot's flag, and its shards of the `serve.*` counters and of
// `serve.query_ms` (obs/metrics, obs/quantile).
//
// Answers are pure functions of (snapshot, query) and snapshots are built by
// the library's deterministic kernels, so every path agrees bitwise at any
// thread count and arrival order — for answers that are not *degraded*.
//
// Churn (DESIGN.md §16). `apply_edges()` applies an edge batch to the latest
// graph, bumps the epoch and starts a single-flight background rebuild;
// batches that land mid-rebuild coalesce into one more pass. Until the new
// snapshot swaps in — and for good if the rebuild throws — the old snapshot
// keeps answering, flagged `degraded` with `staleness_ms` = now minus its
// build time. A rebuild swaps in only if the epoch has not moved since it
// read the graph.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>

#include "exec/cancel.hpp"
#include "graph/graph.hpp"
#include "obs/thread_slot.hpp"
#include "serve/artifacts.hpp"

namespace sntrust {
struct EdgeBatch;  // dynamic/evolution.hpp
}

namespace sntrust::obs {
class Counter;
class QuantileHistogram;
}  // namespace sntrust::obs

namespace sntrust::serve {

enum class Defense : std::uint8_t { kSybilRank = 0, kGateKeeper = 1 };

enum class QueryKind : std::uint8_t {
  kAdmission = 0,   ///< is `vertex` admitted under `defense`?
  kTrustScore = 1,  ///< defense's trust value at `vertex`
  kCoreness = 2,    ///< coreness + ECDF percentile of `vertex`
  kLandmark = 3,    ///< landmark-walk probability mass at `vertex`
};

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kInvalidVertex = 1,  ///< vertex not in the latest graph
  kCancelled = 2,      ///< refused due to cancellation
  kUnavailable = 3,    ///< no snapshot covers this vertex yet
};

/// The artifact kind an answer was computed from: the query's primary kind.
enum class AnswerSource : std::uint8_t {
  kSybilRank = 0,
  kGateKeeper = 1,
  kCoreness = 2,
  kLandmark = 3,
};

/// Fixed-size request with no implicit padding, so its bytes are defined
/// wherever a trace or digest hashes them.
struct Query {
  QueryKind kind = QueryKind::kTrustScore;
  Defense defense = Defense::kSybilRank;
  std::uint8_t reserved[2] = {};
  VertexId vertex = 0;
};
static_assert(sizeof(Query) == 8, "Query must carry no implicit padding");

/// Fixed-size answer — the admission hot path allocates nothing per query.
/// Field meaning by source:
///   kSybilRank: value = degree-normalized trust, percentile = 1 - rank/n
///     (1 = most trusted), admitted = rank cutoff;
///   kGateKeeper: value = admitting distributers, percentile =
///     value / num_distributers, admitted = vote threshold;
///   kCoreness: value = coreness, percentile = coreness ECDF at v;
///   kLandmark: value = walk probability at v, percentile = value relative
///     to the stationary mass deg(v)/2m (>1 = walk favours v).
///
/// `degraded` marks answers served from a snapshot older than the latest
/// graph epoch; only then is `staleness_ms` nonzero (the snapshot's age).
/// Fresh answers have staleness_ms == 0, so the memcmp bitwise-identity
/// contract covers every non-degraded answer.
struct Answer {
  QueryStatus status = QueryStatus::kCancelled;
  bool admitted = false;
  bool degraded = false;
  AnswerSource source = AnswerSource::kSybilRank;
  /// Explicit (zeroed) padding so the struct has no indeterminate bytes and
  /// the bitwise-identity contract can be checked with memcmp.
  std::uint8_t reserved[4] = {};
  double value = 0.0;
  double percentile = 0.0;
  /// Age (ms) of the snapshot behind a degraded answer; 0 when fresh.
  double staleness_ms = 0.0;

  friend bool operator==(const Answer&, const Answer&) = default;
};
static_assert(sizeof(Answer) == 32, "Answer must carry no implicit padding");

/// Everything one graph epoch is answered from (trust_service.cpp).
struct ServingSnapshot;

class TrustService {
 public:
  struct Options {
    ServiceConfig config;
    /// Build the first snapshot in the constructor; otherwise start() does,
    /// and queries answer kUnavailable until then.
    bool precompute = true;
    /// Cancellation observed by ask/ask_batch *in addition to* the process
    /// state (signals, SNTRUST_DEADLINE_MS).
    exec::CancelToken token;
  };

  /// Serves `graph`. Throws std::invalid_argument for empty/edgeless graphs
  /// or out-of-range config vertices, and whatever the first snapshot build
  /// throws when `precompute` is set.
  TrustService(Graph graph, Options options);
  ~TrustService();

  TrustService(const TrustService&) = delete;
  TrustService& operator=(const TrustService&) = delete;

  /// The latest graph. Not safe to call concurrently with apply_edges.
  const Graph& graph() const noexcept { return graph_; }
  const ServiceConfig& config() const noexcept { return options_.config; }

  /// Builds the first snapshot unless one exists (idempotent); throws what
  /// the build throws.
  void start();

  /// Caller-thread read; no per-query heap allocation, and no latency
  /// sample.
  Answer answer(const Query& query);
  void answer_batch(std::span<const Query> queries, std::span<Answer> answers);

  /// Naive recompute-per-query reference: rebuilds the artifact the query
  /// needs from scratch against the latest graph. The serving bench's
  /// "before" and the tests' identity oracle.
  Answer answer_uncached(const Query& query) const;

  /// answer()/answer_batch() after the cancellation check: once cancelled,
  /// every answer is kCancelled. Each call that is not cancelled records
  /// one `serve.query_ms` sample. ask_batch returns the number of answers
  /// whose status is neither kCancelled nor kUnavailable.
  Answer ask(const Query& query);
  std::size_t ask_batch(std::span<const Query> queries,
                        std::span<Answer> answers);

  /// Applies a batched edge insert/delete to the latest graph, bumps the
  /// epoch and starts (or extends) the background rebuild; queries keep
  /// answering, degraded, from the previous snapshot meanwhile. A rebuild
  /// that throws counts in `serve.rebuild_failures` and leaves the previous
  /// snapshot answering until the next apply_edges. Throws
  /// std::invalid_argument when the result would have no edges.
  void apply_edges(const EdgeBatch& batch);

  /// Monotonic graph epoch; bumped by apply_edges.
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Blocks until no background rebuild is running (tests, benches).
  void wait_for_refresh();

 private:
  /// A thread's copy of the published snapshot and the generation it was
  /// published at. The thread holding the slot's obs::thread_slot() index
  /// locks it for each call; publish() only tries the lock, to hand an idle
  /// slot the new snapshot; the destructor releases it. A flag rather than
  /// a std::mutex: one atomic exchange per call on a line only its thread
  /// writes (the mutex's two cost 20–30 ns more per call on a 4-vCPU x86
  /// host).
  struct alignas(obs::kCacheLineBytes) ReaderSlot {
    std::atomic_flag busy;
    std::uint64_t generation = 0;
    std::shared_ptr<const ServingSnapshot> snapshot;

    void lock() {
      while (busy.test_and_set(std::memory_order_acquire))
        std::this_thread::yield();
    }
    bool try_lock() { return !busy.test_and_set(std::memory_order_acquire); }
    void unlock() { busy.clear(std::memory_order_release); }
  };

  /// One call's view of the service: the snapshot it answers from and how
  /// it relates to the latest graph.
  struct View {
    /// Kept alive by the caller's reader slot, or by `owner`.
    const ServingSnapshot* snapshot = nullptr;
    /// Holds the caller's reader slot for the call, so a publish leaves it
    /// alone until the call returns.
    std::unique_lock<ReaderSlot> slot_lock;
    /// Holds the snapshot for a thread that has no reader slot.
    std::shared_ptr<const ServingSnapshot> owner;
    VertexId latest_vertices = 0;
    bool degraded = false;
    double staleness_ms = 0.0;
  };

  View view();
  std::shared_ptr<const ServingSnapshot> published() const;
  void publish(std::shared_ptr<const ServingSnapshot> snapshot);
  static Answer answer_from(const View& view, const Query& query);
  /// Answers every query from one view; returns how many are not
  /// kUnavailable.
  std::size_t answer_all(std::span<const Query> queries,
                         std::span<Answer> answers);
  /// `previous`, the published snapshot or null, lends its GateKeeper
  /// budgets as hints; the snapshot is the same without them.
  std::shared_ptr<const ServingSnapshot> build_snapshot(
      Graph graph, std::uint64_t epoch,
      const ServingSnapshot* previous) const;
  void rebuild_worker();

  Graph graph_;  ///< latest graph; written under mutex_
  Options options_;
  /// Held only to copy (shared) or swap (exclusive) the pointer, so readers
  /// never wait on each other. Not std::atomic<shared_ptr>: GCC 12's load()
  /// drops its internal lock with relaxed ordering, a data race
  /// ThreadSanitizer reports.
  mutable std::shared_mutex snapshot_mutex_;
  std::shared_ptr<const ServingSnapshot> snapshot_;
  /// Bumped by every publish, under snapshot_mutex_. Generation 0 is the
  /// empty snapshot_, which is what a fresh ReaderSlot holds.
  std::atomic<std::uint64_t> generation_{0};
  std::array<ReaderSlot, obs::kThreadSlots> reader_slots_;
  std::atomic<std::uint64_t> epoch_{0};
  /// graph_'s vertex count, readable without mutex_.
  std::atomic<VertexId> latest_vertices_{0};

  // Cached metric handles: the per-query hot path must not look up names.
  obs::QuantileHistogram& query_ms_;
  obs::Counter& queries_served_;
  obs::Counter& queries_cancelled_;
  obs::Counter& queries_degraded_;
  obs::Counter& queries_unavailable_;
  obs::Counter& rebuild_failures_;

  // Single-flight background rebuild; all under mutex_. The thread comes
  // last: it uses every member above.
  std::mutex mutex_;
  std::condition_variable rebuild_done_;
  bool rebuild_running_ = false;
  bool rebuild_again_ = false;
  std::thread rebuild_thread_;
};

}  // namespace sntrust::serve
