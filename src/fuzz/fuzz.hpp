// remo::fuzz — seeded differential testing of the incremental engine.
//
// The paper's central correctness claim (Section II-D) is that REMO's
// event-driven state monotonically converges to the deterministic answer
// for the graph-so-far, regardless of how events interleave across ranks.
// This subsystem turns that claim into a machine-checked property: a
// seeded generator produces a randomized add/delete event stream plus a
// randomized EngineConfig (rank count, both termination detectors,
// coalescing on/off, ring capacity, batch size, chaos delays, ...), the
// runner drives it to quiescence, and every vertex's converged state is
// diffed against the matching static oracle in src/graph. A divergence is
// a reproducible engine bug: the (seed, config, event stream) triple is
// self-contained, serialisable (repro.hpp), and shrinkable (shrink.hpp).
//
// Determinism contract: the *converged state* is a pure function of the
// event multiset (that is the property under test), so replaying a case
// reproduces the identical state diff on every run even though thread
// schedules vary. The schedule itself is additionally seed-derived via
// EngineConfig::DebugHooks::schedule_seed, so replays explore the same
// interleaving neighbourhood; with ranks == 1 execution is exactly
// deterministic. docs/TESTING.md is the full treatment.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/engine_config.hpp"
#include "gen/stream.hpp"
#include "graph/edge_list.hpp"

namespace remo::fuzz {

/// Which engine algorithm a case runs — each diffs against its own static
/// oracle (static_bfs / static_sssp_dijkstra / static_cc_union_find /
/// static_multi_st / static_pagerank).
enum class Algo : std::uint8_t {
  kBfs = 0,
  kSssp = 1,
  kCc = 2,
  kSt = 3,
  kPagerank = 4,  ///< non-monotone memo-delta family (DESIGN.md §8)
  kWsssp = 5,     ///< weighted SSSP with weight increases AND decreases
};
inline constexpr std::uint32_t kNumAlgos = 6;

const char* algo_name(Algo a) noexcept;
bool algo_from_name(const std::string& name, Algo& out) noexcept;

/// Deletes (and the repair wave they need) are only meaningful for the
/// delete-capable programs; CC and multi-ST streams are add-only.
inline bool algo_supports_deletes(Algo a) noexcept {
  return a == Algo::kBfs || a == Algo::kSssp || a == Algo::kPagerank ||
         a == Algo::kWsssp;
}

/// The deletion-capable non-monotone family additionally ingests weight
/// *mutations*: re-adds of a live pair with a different weight, which the
/// engine routes to on_weight_change. For the legacy monotone family the
/// generator keeps weights a pure function of the endpoint pair (a
/// duplicate add with a differing weight would make the converged state
/// depend on arrival order — a generator artefact, not an engine bug);
/// these two programs are exactly the ones whose semantics make the
/// last-write weight well-defined, so their streams may vary it per event.
inline bool algo_mutates_weights(Algo a) noexcept {
  return a == Algo::kPagerank || a == Algo::kWsssp;
}

/// PageRank converges to within its publish tolerance of the fixpoint, not
/// to bit-equality with the oracle — its states diff under this absolute
/// tolerance (decoded doubles). Every integer-state algorithm stays exact.
inline constexpr double kPagerankAtol = 1e-5;

/// Every EngineConfig knob a case randomizes, in repro-serialisable form.
/// `schedule_seed`/`drop_nth_update` map onto EngineConfig::DebugHooks.
struct CaseConfig {
  Algo algo = Algo::kBfs;
  std::uint32_t ranks = 2;
  std::uint32_t streams = 2;
  TerminationMode termination = TerminationMode::kCounting;
  bool coalesce = true;
  std::uint32_t batch_size = 128;
  std::uint32_t ring_capacity = 16384;
  std::uint32_t stream_chunk = 64;
  std::uint32_t chaos_delay_us = 0;
  bool nbr_cache_filter = true;
  std::uint32_t promote_threshold = 8;
  std::uint64_t schedule_seed = 0;
  std::uint32_t drop_nth_update = 0;  // fault injection (self-test only)

  friend bool operator==(const CaseConfig&, const CaseConfig&) = default;
};

/// A self-contained fuzz case: everything needed to replay a run
/// byte-for-byte. `events` is the generation-order stream; the runner
/// splits it with split_events_keyed(events, config.streams, seed), so the
/// per-stream assignment is a pure function of this struct.
struct FuzzCase {
  std::uint64_t seed = 0;
  CaseConfig config;
  VertexId source = 0;
  std::vector<EdgeEvent> events;

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

/// Generator tuning.
struct GenOptions {
  std::uint32_t num_vertices = 96;
  std::uint32_t num_events = 600;
  /// Per-event delete probability (‰) where the algorithm supports
  /// deletes; a small slice of these target already-absent edges (no-op
  /// hazard coverage).
  std::uint32_t delete_permille = 250;
  /// Per-event probability (‰) of deliberately re-adding a live pair with
  /// a fresh weight — a weight change — for the algo_mutates_weights
  /// family (organic duplicate adds provide more on top).
  std::uint32_t mutate_permille = 250;
  Weight max_weight = 8;
};

/// Build the case for `seed`: random events plus random config knobs.
/// Deterministic — identical seed and options yield an identical case.
FuzzCase make_case(std::uint64_t seed, const GenOptions& opts = {});

/// As make_case, but the big axes are cycled from the case index so that
/// every window of 48 consecutive indices covers the full
/// {6 algorithms} x {1,2,4,8 ranks} x {both detectors} matrix exactly
/// (the remaining knobs stay seed-random). This is what `remo fuzz` runs.
FuzzCase make_case_indexed(std::uint64_t index, std::uint64_t base_seed,
                           const GenOptions& opts = {});

/// One vertex whose converged state disagrees with the oracle.
struct Divergence {
  VertexId vertex = 0;
  StateWord got = 0;
  StateWord want = 0;

  friend bool operator==(const Divergence&, const Divergence&) = default;
};

struct RunResult {
  std::vector<Divergence> divergences;  ///< sorted by vertex id
  /// Query-observer mode only: vertices whose answer in the view published
  /// at quiescence disagrees with the oracle (sorted by vertex id).
  std::vector<Divergence> served_divergences;
  std::size_t vertices_checked = 0;
  std::size_t surviving_edges = 0;
  bool ok() const noexcept { return divergences.empty() && served_divergences.empty(); }
};

/// Runner knobs that are NOT part of the case identity. A repro records
/// query_observer (repro.hpp), since served answers are part of the
/// verdict in that mode.
struct RunOptions {
  /// Query-observer mode (`remo fuzz --query-observer`): from the start of
  /// ingest to the end of repair, a serve::QueryService auto-refreshes
  /// versioned views of the program and an observer thread hammers the
  /// point-query catalog, checking every pinned view for internal
  /// consistency (frozen answers, monotone versions). At quiescence one
  /// more view is published and every checked vertex's served answer is
  /// diffed against the oracle too (served_divergences), so a serving-plane
  /// bug fails the case even when the live state is right. Off by default
  /// because it roughly doubles a case's wall-clock. docs/TESTING.md
  /// §fuzzing covers the interplay.
  bool query_observer = false;

  friend bool operator==(const RunOptions&, const RunOptions&) = default;
};

/// Replay a case to quiescence and diff against the static oracle.
/// Deterministic in its verdict: the converged state is
/// schedule-independent, so the divergence list is identical on every
/// replay of the same case (RunOptions never affect it; query-observer
/// mode only adds served_divergences).
RunResult run_case(const FuzzCase& fc, const RunOptions& run = {});

/// The final topology a case's event stream describes: fold per unordered
/// pair in generation order (the keyed split serialises each pair onto one
/// stream, so this order is the one the engine observes). This is the
/// graph the static oracles run on.
EdgeList surviving_edges(const std::vector<EdgeEvent>& events);

/// Human-readable one-line summary of a case's config (logs, CLI).
std::string describe(const FuzzCase& fc);

/// Batch driver: run cases [0, num_cases) via make_case_indexed and
/// collect the failures. `on_case` (optional) observes every result as it
/// lands — the CLI uses it for progress output and early exit.
struct CampaignOptions {
  std::uint64_t base_seed = 1;
  std::uint32_t num_cases = 50;
  GenOptions gen{};
  RunOptions run{};
  /// Pin every case to one algorithm instead of cycling the matrix
  /// (`remo fuzz --algo`); the event stream is regenerated to match the
  /// pinned algorithm's delete/weight-mutation profile.
  std::optional<Algo> force_algo;
  /// Return false to stop the campaign after this case.
  std::function<bool(const FuzzCase&, const RunResult&)> on_case;
};

struct CampaignResult {
  std::uint32_t cases_run = 0;
  std::vector<FuzzCase> failures;
  std::vector<RunResult> failure_results;
};

CampaignResult run_campaign(const CampaignOptions& opts);

}  // namespace remo::fuzz
