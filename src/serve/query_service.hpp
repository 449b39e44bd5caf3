// QueryService — the front door for concurrent point queries against live
// vertex state (docs/SERVING.md).
//
// The engine's state_of() requires quiescence; a serving workload cannot
// wait for that. The service instead publishes immutable StateViews cut by
// Engine::collect_versioned_shards — the Chandy-Lamport-style epoch cut
// that never pauses ingestion — and answers every query from a *pinned*
// view. One cut covers every served program: each rank copies its state
// maps, and a view keeps those per-rank copies, so a point read is the
// partitioner's owner(v) and one hash probe. Pinning a view (a shared_ptr
// copy) is the read-epoch pin: the answer set a reader computes is the
// program's exact converged state at one cut, so readers can never observe
// a half-applied delete wave or a torn repair — those intermediate states
// are simply never published.
//
// The background refresher publishes once the engine's ingested watermark
// has moved since its last round began and the engine is idle again, then
// waits three times as long as that round took (at least 2 ms, at most
// refresh_period_ms). Under light writes that publishes each write within
// milliseconds; under a write flood the engine is never idle and views come
// once per refresh_period_ms, which also bounds the gap between publishes
// when nothing is written. Publishing takes at most a quarter of one thread
// while three refreshes fit in the period; a shorter period publishes once
// per period.
//
// Consistency contract (stated precisely in docs/SERVING.md, verified by
// tests/serve/test_query_service.cpp under TSan):
//  * every answer equals some published versioned snapshot's state;
//  * views carry monotonically increasing versions; staleness is bounded
//    by the refresh period plus one epoch-drain;
//  * queries on one pinned view are mutually consistent (same cut), and
//    all views of one refresh_all() share one cut.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "runtime/partitioner.hpp"

namespace remo::obs {
class SpanRecorder;
}

namespace remo::serve {

/// How the service interprets a program's state words — which catalog
/// queries apply and whether a refresh precomputes extras (top-k).
enum class ViewRole : std::uint8_t {
  kGeneric,    ///< state()/reachable() only
  kDistance,   ///< DynamicBfs/DynamicSssp/WeightedSssp: distance + reachability
  kComponent,  ///< DynamicCc: component_of + connected
  kDegree,     ///< DegreeTracker: degree + top_k_degree
  kRank,       ///< PageRankDelta: rank_of + top_k_rank (bit-cast doubles)
};

/// One immutable published cut of one program's state: the per-rank state
/// copies of one harvest plus the partitioner that says which copy owns a
/// vertex. Readers hold these by shared_ptr; a handle stays valid (and
/// frozen) after newer views are published.
class StateView {
 public:
  StateView(ShardedState state, const Partitioner& part, std::uint64_t version,
            std::uint64_t watermark, std::uint64_t publish_ns)
      : state_(std::move(state)),
        part_(part),
        version_(version),
        watermark_(watermark),
        publish_ns_(publish_ns) {}

  /// State of `v` at this cut (program identity when untouched).
  StateWord at(VertexId v) const noexcept {
    const StateWord* s = state_.shards[part_.owner(v)].find(v);
    return s ? *s : state_.identity;
  }

  StateWord identity() const noexcept { return state_.identity; }
  /// The whole cut as a sorted Snapshot (a copy; for tests and tools).
  Snapshot snapshot() const { return state_.to_snapshot(); }
  /// Service-local publication counter, strictly increasing.
  std::uint64_t version() const noexcept { return version_; }
  /// Engine epoch stamped on the cut (Snapshot::epoch()); every view of
  /// one refresh_all() carries the same one.
  std::uint16_t epoch() const noexcept { return state_.epoch; }
  /// events_ingested gauge sampled just before the cut: everything counted
  /// here is included in (or ordered before) this view.
  std::uint64_t watermark() const noexcept { return watermark_; }
  std::uint64_t publish_ns() const noexcept { return publish_ns_; }

  /// Precomputed top-k (value desc, vertex asc, identity left out) —
  /// filled at publish time for ViewRole::kDegree and kRank, empty
  /// otherwise.
  const std::vector<std::pair<VertexId, StateWord>>& top() const noexcept {
    return top_;
  }

 private:
  friend class QueryService;
  ShardedState state_;
  Partitioner part_;
  std::uint64_t version_ = 0;
  std::uint64_t watermark_ = 0;
  std::uint64_t publish_ns_ = 0;
  std::vector<std::pair<VertexId, StateWord>> top_;
};

struct QueryServiceConfig {
  /// Longest the background refresher goes without publishing: the
  /// staleness bound (writes are published sooner once the engine is idle
  /// and the refresher's pacing allows). 0 disables the refresher thread
  /// (manual refresh()/refresh_all() only); start() is a no-op at 0.
  std::uint32_t refresh_period_ms = 50;
  /// Run decremental repair for delete-capable programs before each
  /// background refresh, so published views reflect deletes promptly.
  /// repair() pauses streams for the wave — leave off for pure-add
  /// workloads.
  bool repair_on_refresh = false;
  /// Entries precomputed per kDegree view.
  std::size_t top_k = 16;
  /// Write-path span recorder (docs/OBSERVABILITY.md §spans). When set,
  /// the service installs the engine's epoch-drain hook for the recorder
  /// and notifies it after every view publish, closing write-to-readable
  /// spans whose admission watermark the view covers. The recorder must
  /// outlive the service.
  obs::SpanRecorder* spans = nullptr;
};

/// Serving counters (docs/OBSERVABILITY.md §serving). Point-in-time; the
/// lag/age fields are computed against the engine at stats() time.
struct ServeStats {
  std::uint64_t queries_served = 0;   ///< catalog queries answered
  std::uint64_t refreshes = 0;        ///< views published (all programs)
  std::uint64_t served_programs = 0;  ///< active serving slots
  /// Read-epoch lag: engine events_ingested minus the OLDEST active view's
  /// watermark — how many accepted events the most stale published answer
  /// set can be missing.
  std::uint64_t read_epoch_lag_events = 0;
  /// Age of the oldest active view (monotonic-clock ns).
  std::uint64_t view_age_ns = 0;

  Json to_json() const;
};

class QueryService {
 public:
  /// The engine must outlive the service; destroy the service first.
  explicit QueryService(Engine& engine, QueryServiceConfig cfg = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Register program `p` for serving and publish its first view (an
  /// immediate refresh). Call before readers query `p`; registrations are
  /// cheap and idempotent (re-serving updates the role).
  void serve(ProgramId p, ViewRole role = ViewRole::kGeneric);

  /// Start the background refresher (no-op when refresh_period_ms == 0 or
  /// already running).
  void start();
  /// Stop the background refresher; published views stay queryable.
  void stop();

  /// Cut a fresh view of `p` now and publish it. Thread-safe; serialised
  /// against the background refresher.
  void refresh(ProgramId p);
  /// Cut every served program at once and publish all the views together:
  /// they share one epoch and one watermark.
  void refresh_all();

  /// Pin the current view of `p` — the epoch-consistent read handle. All
  /// reads through one handle see one cut.
  std::shared_ptr<const StateView> view(ProgramId p) const;

  // --- Point-query catalog (each pins the current view internally) --------

  /// Program state at the current view's cut (distance for kDistance,
  /// component label for kComponent, degree for kDegree).
  StateWord state(ProgramId p, VertexId v) const;
  /// BFS/SSSP distance; kInfiniteState when unreached at the cut.
  StateWord distance(ProgramId p, VertexId v) const { return state(p, v); }
  /// s-t reachability against the program's instantiated source(s): true
  /// iff `v`'s state differs from the program identity at the cut.
  bool reachable(ProgramId p, VertexId v) const;
  /// Component label at the cut (0 = not yet touched by any edge).
  StateWord component_of(ProgramId p, VertexId v) const;
  /// True iff `u` and `v` carry the same non-identity component label at
  /// the cut. Two untouched vertices are NOT reported connected.
  bool connected(ProgramId p, VertexId u, VertexId v) const;
  /// Top-k vertices by state (degree for kDegree views), value desc then
  /// vertex asc, clipped to the view's precomputed list (cfg.top_k).
  std::vector<std::pair<VertexId, StateWord>> top_k_degree(ProgramId p,
                                                           std::size_t k) const;
  /// Decoded PageRank score at the cut (kRank views). State words are the
  /// bit pattern of the vertex's rank (PageRankDelta's encoding); the
  /// identity word 0 decodes to the base mass 1 - damping — a vertex no
  /// edge has touched yet. `damping` must match the served program's.
  double rank_of(ProgramId p, VertexId v, double damping = 0.85) const;
  /// Top-k vertices by decoded rank, desc then vertex asc. Sound because
  /// ranks are positive doubles, whose bit patterns order identically to
  /// their values — the kDegree precompute is reused verbatim.
  std::vector<std::pair<VertexId, double>> top_k_rank(
      ProgramId p, std::size_t k, double damping = 0.85) const;

  ServeStats stats() const;

 private:
  struct Slot {
    std::atomic<bool> active{false};
    ViewRole role = ViewRole::kGeneric;
    mutable std::mutex mu;                  // guards `view`
    std::shared_ptr<const StateView> view;  // never null once active
  };

  std::shared_ptr<const StateView> pin(ProgramId p) const;
  /// One cut of `programs`, published as one view each.
  void publish(const std::vector<ProgramId>& programs);
  std::vector<ProgramId> active_programs() const;
  void refresher_main();

  Engine& engine_;
  QueryServiceConfig cfg_;
  std::vector<std::unique_ptr<Slot>> slots_;  // one per engine program slot

  std::mutex refresh_mutex_;  // serialises publish() and role changes
  std::atomic<std::uint64_t> next_version_{1};
  mutable std::atomic<std::uint64_t> queries_served_{0};
  std::atomic<std::uint64_t> refreshes_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread refresher_;
};

}  // namespace remo::serve
