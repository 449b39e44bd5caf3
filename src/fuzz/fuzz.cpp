#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <thread>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "core/algorithms/dynamic_bfs.hpp"
#include "core/algorithms/dynamic_cc.hpp"
#include "core/algorithms/dynamic_sssp.hpp"
#include "core/algorithms/multi_st.hpp"
#include "core/algorithms/pagerank_delta.hpp"
#include "core/algorithms/weighted_sssp.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/static_bfs.hpp"
#include "graph/static_cc.hpp"
#include "graph/static_pagerank.hpp"
#include "graph/static_sssp.hpp"
#include "graph/static_st.hpp"
#include "serve/query_service.hpp"
#include "storage/robin_hood_map.hpp"

namespace remo::fuzz {
namespace {

// Seed-space salts: each derived stream of randomness gets its own lane so
// knob choices never correlate with event choices.
constexpr std::uint64_t kKnobSalt = 0x8f1b'74c3'9a2e'5d07ULL;
constexpr std::uint64_t kEventSalt = 0x3c6e'f372'fe94'f82aULL;
constexpr std::uint64_t kWeightSalt = 0xd1b5'4a32'd192'ed03ULL;
constexpr std::uint64_t kScheduleSalt = 0x94d0'49bb'1331'11ebULL;

// Weights must be a pure function of the unordered endpoint pair: the
// engine collapses parallel edges (last weight wins) while the oracle sees
// one edge per pair, so duplicate adds with differing weights would make
// the converged distances depend on arrival order — a generator artefact,
// not an engine bug.
Weight pair_weight(std::uint64_t pair_key, std::uint64_t seed, Weight max_weight) {
  if (max_weight <= 1) return 1;
  return 1 + static_cast<Weight>(splitmix64(pair_key ^ seed ^ kWeightSalt) %
                                 max_weight);
}

template <typename T, std::size_t N>
T pick(Xoshiro256& rng, const T (&options)[N]) {
  return options[rng.bounded(N)];
}

/// What kind of event stream an algorithm can consume: everything that
/// changes which generator branch fires. Streams are regenerated whenever
/// the matrix cycling (or --algo pinning) lands on an algorithm with a
/// different profile than the seed-random one the events were made for.
struct StreamProfile {
  bool deletes;
  bool mutate_weights;
  friend bool operator==(const StreamProfile&, const StreamProfile&) = default;
};

StreamProfile profile_of(Algo a, const GenOptions& opts) {
  return {algo_supports_deletes(a) && opts.delete_permille > 0,
          algo_mutates_weights(a)};
}

}  // namespace

const char* algo_name(Algo a) noexcept {
  switch (a) {
    case Algo::kBfs: return "bfs";
    case Algo::kSssp: return "sssp";
    case Algo::kCc: return "cc";
    case Algo::kSt: return "st";
    case Algo::kPagerank: return "pagerank";
    case Algo::kWsssp: return "wsssp";
  }
  return "?";
}

bool algo_from_name(const std::string& name, Algo& out) noexcept {
  for (const Algo a : {Algo::kBfs, Algo::kSssp, Algo::kCc, Algo::kSt,
                       Algo::kPagerank, Algo::kWsssp}) {
    if (name == algo_name(a)) {
      out = a;
      return true;
    }
  }
  return false;
}

namespace {

/// Generate the event stream (and source) for `fc` under the given
/// algorithm's profile. Deterministic in (seed, opts, profile).
void gen_events(FuzzCase& fc, const GenOptions& opts, StreamProfile prof) {
  const std::uint64_t seed = fc.seed;
  Xoshiro256 rng(splitmix64(seed ^ kEventSalt));

  // Live unordered pairs, for picking meaningful delete targets (and, in
  // the weight-mutating family, live pairs to re-weight). The map stores
  // each live pair's slot in the vector; erase swaps the tail in.
  struct LivePair {
    VertexId src, dst;
    std::uint64_t key;
  };
  std::vector<LivePair> live;
  RobinHoodMap<std::uint64_t, std::uint32_t> live_slot;

  // Weight drawing: the monotone family keeps weights a pure function of
  // the endpoint pair (see algo_mutates_weights); the non-monotone family
  // draws fresh, so a duplicate add becomes a weight change.
  auto draw_weight = [&](std::uint64_t pair_key) -> Weight {
    if (!prof.mutate_weights) return pair_weight(pair_key, seed, opts.max_weight);
    if (opts.max_weight <= 1) return 1;
    return 1 + static_cast<Weight>(rng.bounded(opts.max_weight));
  };

  fc.events.clear();
  fc.events.reserve(opts.num_events);
  for (std::uint32_t i = 0; i < opts.num_events; ++i) {
    const bool want_delete =
        prof.deletes && !live.empty() && rng.bounded(1000) < opts.delete_permille;
    if (want_delete) {
      if (rng.bounded(16) == 0) {
        // Occasional delete of an edge that does not exist: the engine
        // must treat it as a no-op (no reverse propagation, no repair
        // anchor) — a hazard class worth keeping in the stream.
        const VertexId u = rng.bounded(opts.num_vertices);
        VertexId v = rng.bounded(opts.num_vertices);
        if (v == u) v = (v + 1) % opts.num_vertices;
        const std::uint64_t key = event_pair_key(EdgeEvent{u, v});
        if (!live_slot.contains(key)) {
          fc.events.push_back(EdgeEvent{u, v, 1, EdgeOp::kDelete});
          continue;
        }
      }
      const std::uint32_t slot =
          static_cast<std::uint32_t>(rng.bounded(live.size()));
      const LivePair p = live[slot];
      fc.events.push_back(
          EdgeEvent{p.src, p.dst, draw_weight(p.key), EdgeOp::kDelete});
      live[slot] = live.back();
      live_slot.insert_or_assign(live[slot].key, slot);
      live.pop_back();
      live_slot.erase(p.key);
      continue;
    }
    if (prof.mutate_weights && !live.empty() &&
        rng.bounded(1000) < opts.mutate_permille) {
      // Deliberate weight change: re-add a live pair with a fresh weight.
      // The engine must route this through on_weight_change, never through
      // a delete+add decomposition.
      const LivePair& p = live[rng.bounded(live.size())];
      fc.events.push_back(
          EdgeEvent{p.src, p.dst, draw_weight(p.key), EdgeOp::kAdd});
      continue;
    }
    const VertexId u = rng.bounded(opts.num_vertices);
    VertexId v = rng.bounded(opts.num_vertices);
    if (v == u) v = (v + 1) % opts.num_vertices;  // no self-loops
    const EdgeEvent probe{u, v};
    const std::uint64_t key = event_pair_key(probe);
    fc.events.push_back(EdgeEvent{u, v, draw_weight(key), EdgeOp::kAdd});
    if (!live_slot.contains(key)) {
      live_slot.insert_or_assign(key, static_cast<std::uint32_t>(live.size()));
      live.push_back(LivePair{u, v, key});
    }
  }

  // Source: the first add's source endpoint — guaranteed to exist, and in
  // the graph unless heavy deletion later isolates it (a case the differ
  // handles explicitly).
  fc.source = 0;
  for (const EdgeEvent& e : fc.events) {
    if (e.op == EdgeOp::kAdd) {
      fc.source = e.src;
      break;
    }
  }
}

/// Re-point a case at `algo`, regenerating its events when the stream
/// profile (deletes allowed / weights mutable) differs from what they were
/// generated under.
void retarget_algo(FuzzCase& fc, Algo algo, const GenOptions& opts) {
  const StreamProfile before = profile_of(fc.config.algo, opts);
  const StreamProfile after = profile_of(algo, opts);
  fc.config.algo = algo;
  if (before != after) gen_events(fc, opts, after);
}

}  // namespace

FuzzCase make_case(std::uint64_t seed, const GenOptions& opts) {
  REMO_CHECK(opts.num_vertices >= 2);
  REMO_CHECK(opts.num_events >= 1);
  FuzzCase fc;
  fc.seed = seed;

  // --- Config knobs -------------------------------------------------------
  static constexpr std::uint32_t kRankChoices[] = {1, 2, 4, 8};
  static constexpr std::uint32_t kBatchChoices[] = {1, 4, 32, 128, 256};
  // Tiny rings force the mailbox overflow/spill path; the default exercises
  // the pure lock-free path.
  static constexpr std::uint32_t kRingChoices[] = {8, 64, 1024, 16384};
  static constexpr std::uint32_t kChunkChoices[] = {1, 16, 64};
  static constexpr std::uint32_t kChaosChoices[] = {0, 0, 0, 20, 100};
  static constexpr std::uint32_t kPromoteChoices[] = {2, 8};
  Xoshiro256 knobs(splitmix64(seed ^ kKnobSalt));
  CaseConfig& c = fc.config;
  c.algo = static_cast<Algo>(knobs.bounded(kNumAlgos));
  c.ranks = pick(knobs, kRankChoices);
  c.termination = knobs.bounded(2) == 0 ? TerminationMode::kCounting
                                        : TerminationMode::kSafra;
  c.coalesce = knobs.bounded(2) == 0;
  c.batch_size = pick(knobs, kBatchChoices);
  c.ring_capacity = pick(knobs, kRingChoices);
  c.stream_chunk = pick(knobs, kChunkChoices);
  c.chaos_delay_us = pick(knobs, kChaosChoices);
  c.nbr_cache_filter = knobs.bounded(4) != 0;  // mostly on (the default)
  c.promote_threshold = pick(knobs, kPromoteChoices);
  c.schedule_seed = splitmix64(seed ^ kScheduleSalt) | 1;  // nonzero
  c.streams = c.ranks;

  gen_events(fc, opts, profile_of(c.algo, opts));
  return fc;
}

FuzzCase make_case_indexed(std::uint64_t index, std::uint64_t base_seed,
                           const GenOptions& opts) {
  FuzzCase fc = make_case(hash_combine(splitmix64(base_seed), index), opts);
  // Cycle the coverage-critical axes deterministically: 6 algorithms x 4
  // rank counts x 2 detectors = 48 combos per index window.
  constexpr Algo kAlgos[] = {Algo::kBfs,      Algo::kSssp, Algo::kCc,
                             Algo::kSt,       Algo::kPagerank,
                             Algo::kWsssp};
  constexpr std::uint32_t kRanks[] = {1, 2, 4, 8};
  fc.config.ranks = kRanks[(index / kNumAlgos) % 4];
  fc.config.streams = fc.config.ranks;
  fc.config.termination = ((index / (kNumAlgos * 4)) % 2) == 0
                              ? TerminationMode::kCounting
                              : TerminationMode::kSafra;
  retarget_algo(fc, kAlgos[index % kNumAlgos], opts);
  return fc;
}

EdgeList surviving_edges(const std::vector<EdgeEvent>& events) {
  struct PairState {
    VertexId src = 0, dst = 0;
    Weight weight = kDefaultWeight;
    bool present = false;
  };
  RobinHoodMap<std::uint64_t, std::uint32_t> slot_of;
  std::vector<PairState> pairs;
  for (const EdgeEvent& e : events) {
    const std::uint64_t key = event_pair_key(e);
    auto [slot, fresh] = slot_of.find_or_emplace(key, [&] {
      pairs.emplace_back();
      return static_cast<std::uint32_t>(pairs.size() - 1);
    });
    PairState& p = pairs[*slot];
    if (e.op == EdgeOp::kAdd) {
      p.src = e.src;
      p.dst = e.dst;
      p.weight = e.weight;
      p.present = true;
    } else {
      p.present = false;
    }
  }
  EdgeList out;
  for (const PairState& p : pairs)
    if (p.present) out.push_back(Edge{p.src, p.dst, p.weight});
  return out;
}

RunResult run_case(const FuzzCase& fc, const RunOptions& run) {
  const CaseConfig& c = fc.config;
  REMO_CHECK(c.ranks >= 1 && c.streams >= 1);

  const bool has_deletes =
      std::any_of(fc.events.begin(), fc.events.end(),
                  [](const EdgeEvent& e) { return e.op == EdgeOp::kDelete; });

  EngineConfig cfg;
  cfg.num_ranks = c.ranks;
  cfg.batch_size = c.batch_size;
  cfg.coalesce = c.coalesce;
  cfg.mailbox_ring_capacity = c.ring_capacity;
  cfg.stream_chunk = c.stream_chunk;
  cfg.termination = c.termination;
  cfg.nbr_cache_filter = c.nbr_cache_filter;
  cfg.chaos_delay_us = c.chaos_delay_us;
  cfg.store.promote_threshold = c.promote_threshold;
  cfg.debug.schedule_seed = c.schedule_seed;
  cfg.debug.drop_nth_update = c.drop_nth_update;

  Engine engine(cfg);
  ProgramId id = 0;
  switch (c.algo) {
    case Algo::kBfs: {
      auto [i, p] = engine.attach_make<DynamicBfs>(
          fc.source, DynamicBfs::Options{.deterministic_parents = false,
                                         .support_deletes = has_deletes});
      id = i;
      engine.inject_init(id, fc.source);
      break;
    }
    case Algo::kSssp: {
      auto [i, p] = engine.attach_make<DynamicSssp>(
          fc.source, DynamicSssp::Options{.deterministic_parents = false,
                                          .support_deletes = has_deletes});
      id = i;
      engine.inject_init(id, fc.source);
      break;
    }
    case Algo::kCc:
      id = engine.attach(std::make_shared<DynamicCc>());
      break;
    case Algo::kSt: {
      auto [i, p] = engine.attach_make<MultiStConnectivity>(
          std::vector<VertexId>{fc.source});
      id = i;
      inject_st_sources(engine, id, *p);
      break;
    }
    case Algo::kPagerank:
      // No init: a vertex bootstraps its base mass on first topology touch
      // (on_add publishes whenever the residual exceeds the tolerance).
      id = engine.attach(std::make_shared<PageRankDelta>());
      break;
    case Algo::kWsssp: {
      auto [i, p] = engine.attach_make<WeightedSssp>(fc.source);
      id = i;
      engine.inject_init(id, fc.source);
      break;
    }
  }

  // Query-observer mode: a serving plane auto-refreshes versioned views
  // from the start of ingest to the end of repair, and one observer thread
  // hammers the catalog, checking that every pinned view is frozen (two
  // reads agree) and that published versions only move forward. At
  // quiescence one more publish is checked against the oracle below.
  std::unique_ptr<serve::QueryService> qs;
  std::atomic<bool> settled{false};
  std::thread observer;
  if (run.query_observer) {
    qs = std::make_unique<serve::QueryService>(
        engine, serve::QueryServiceConfig{.refresh_period_ms = 2});
    qs->serve(id);
    qs->start();
    observer = std::thread([&] {
      Xoshiro256 rng(fc.seed ^ 0x9e3779b97f4a7c15ULL);
      std::uint64_t last_version = 0;
      while (!settled.load(std::memory_order_acquire)) {
        const VertexId v = static_cast<VertexId>(rng.bounded(96));
        const auto view = qs->view(id);
        REMO_CHECK_MSG(view->version() >= last_version,
                       "published view version went backwards");
        last_version = view->version();
        const StateWord first = view->at(v);
        REMO_CHECK_MSG(first == view->at(v), "pinned view answer not frozen");
        (void)qs->reachable(id, v);
      }
    });
  }
  engine.ingest(split_events_keyed(fc.events, c.streams, fc.seed));
  // Weighted SSSP needs the repair wave even in add-only streams: a weight
  // *increase* on a parent edge marks the child dirty exactly like a delete
  // does. PageRank never needs one — the memo-delta policy absorbs every
  // mutation locally (repair would be a harmless no-op).
  if (c.algo == Algo::kWsssp || (has_deletes && c.algo != Algo::kPagerank))
    engine.repair(id);
  std::shared_ptr<const serve::StateView> served;
  if (qs) {
    settled.store(true, std::memory_order_release);
    observer.join();
    qs->stop();
    qs->refresh(id);
    served = qs->view(id);
  }

  // --- Differential check against the static oracle -----------------------
  RunResult rr;
  const EdgeList surviving = surviving_edges(fc.events);
  rr.surviving_edges = surviving.size();
  const CsrGraph g = CsrGraph::build(with_reverse_edges(surviving));
  const CsrGraph::Dense s = g.dense_of(fc.source);
  const StateWord identity = engine.program(id).identity();

  std::vector<StateWord> oracle;
  switch (c.algo) {
    case Algo::kBfs:
      if (s != CsrGraph::kNoVertex) oracle = static_bfs(g, s);
      break;
    case Algo::kSssp:
    case Algo::kWsssp:
      if (s != CsrGraph::kNoVertex) oracle = static_sssp_dijkstra(g, s);
      break;
    case Algo::kCc:
      oracle = static_cc_union_find(g);
      break;
    case Algo::kSt:
      if (s != CsrGraph::kNoVertex) oracle = static_multi_st(g, {s});
      break;
    case Algo::kPagerank:
      // Stored as raw IEEE bits so the uniform StateWord plumbing (and the
      // repro format) carries them; the comparator decodes.
      for (const double r : static_pagerank(g))
        oracle.push_back(std::bit_cast<StateWord>(r));
      break;
  }

  // Integer-state algorithms diff exactly; PageRank converges to within
  // its publish tolerance of the oracle fixpoint, so its states compare as
  // decoded doubles under kPagerankAtol (identity bits decode to the base
  // mass an untouched/orphaned vertex holds).
  auto states_equal = [&](StateWord got, StateWord want) {
    if (c.algo != Algo::kPagerank) return got == want;
    const PageRankDelta pr;
    return std::abs(pr.rank_of(got) - pr.rank_of(want)) <= kPagerankAtol;
  };

  auto check = [&](VertexId ext, StateWord want) {
    ++rr.vertices_checked;
    const StateWord got = engine.state_of(id, ext);
    if (!states_equal(got, want)) rr.divergences.push_back(Divergence{ext, got, want});
    if (served && !states_equal(served->at(ext), want))
      rr.served_divergences.push_back(Divergence{ext, served->at(ext), want});
  };

  // Every vertex of the surviving graph. When heavy deletion isolated the
  // source entirely (oracle empty for the source-rooted algorithms),
  // nothing is reachable: every survivor must sit at identity.
  for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v) {
    const VertexId ext = g.external_of(v);
    if (ext == fc.source) continue;  // handled below, survivor or not
    check(ext, oracle.empty() ? identity : oracle[v]);
  }

  // The source itself (source-rooted algorithms only; CC has no source and
  // its vertex set is exactly the survivors). An isolated source keeps its
  // init state: level/distance 1, or source-bit 1 for multi-ST.
  switch (c.algo) {
    case Algo::kBfs:
    case Algo::kSssp:
    case Algo::kWsssp:
      check(fc.source, s != CsrGraph::kNoVertex ? oracle[s] : 1);
      break;
    case Algo::kSt:
      check(fc.source, s != CsrGraph::kNoVertex ? oracle[s] : 1);
      break;
    case Algo::kCc:
      if (s != CsrGraph::kNoVertex) check(fc.source, oracle[s]);
      break;
    case Algo::kPagerank:
      // No distinguished source, but fc.source is a real vertex the main
      // loop skipped: a survivor diffs against its oracle rank, an
      // isolated one must have retracted back to the base mass (identity
      // decodes to exactly that).
      check(fc.source, s != CsrGraph::kNoVertex ? oracle[s] : identity);
      break;
  }

  // Orphans: vertices that appeared in events but lost every edge. The
  // repair wave must have returned them to identity (delete-capable
  // algorithms only — add-only streams cannot orphan a vertex).
  if (has_deletes) {
    RobinHoodMap<VertexId, std::uint8_t> seen;
    for (const EdgeEvent& e : fc.events) {
      seen.insert_or_assign(e.src, 1);
      seen.insert_or_assign(e.dst, 1);
    }
    seen.for_each([&](const VertexId& ext, std::uint8_t&) {
      if (ext == fc.source) return;
      if (g.dense_of(ext) != CsrGraph::kNoVertex) return;
      check(ext, identity);
    });
  }

  const auto by_vertex = [](const Divergence& a, const Divergence& b) {
    return a.vertex < b.vertex;
  };
  std::sort(rr.divergences.begin(), rr.divergences.end(), by_vertex);
  std::sort(rr.served_divergences.begin(), rr.served_divergences.end(), by_vertex);
  return rr;
}

std::string describe(const FuzzCase& fc) {
  const CaseConfig& c = fc.config;
  return strfmt(
      "seed=%llu algo=%s ranks=%u term=%s coalesce=%d batch=%u ring=%u "
      "chunk=%u chaos=%uus events=%zu",
      static_cast<unsigned long long>(fc.seed), algo_name(c.algo), c.ranks,
      c.termination == TerminationMode::kSafra ? "safra" : "counting",
      c.coalesce ? 1 : 0, c.batch_size, c.ring_capacity, c.stream_chunk,
      c.chaos_delay_us, fc.events.size());
}

CampaignResult run_campaign(const CampaignOptions& opts) {
  CampaignResult res;
  for (std::uint64_t i = 0; i < opts.num_cases; ++i) {
    FuzzCase fc = make_case_indexed(i, opts.base_seed, opts.gen);
    if (opts.force_algo) retarget_algo(fc, *opts.force_algo, opts.gen);
    const RunResult rr = run_case(fc, opts.run);
    ++res.cases_run;
    const bool keep_going = !opts.on_case || opts.on_case(fc, rr);
    if (!rr.ok()) {
      res.failures.push_back(fc);
      res.failure_results.push_back(rr);
    }
    if (!keep_going) break;
  }
  return res;
}

}  // namespace remo::fuzz
