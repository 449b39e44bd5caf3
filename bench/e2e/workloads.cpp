// The four remo-bench workloads. Why each one exists is in README.md; the
// comments here cover what the code must keep true.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <thread>

#include "run.hpp"

namespace remo_bench {
namespace {

using namespace remo;
using serve::ViewRole;

EdgeList rmat(std::uint32_t scale, std::uint32_t edge_factor, std::uint64_t seed) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  return generate_rmat(p);
}

std::uint64_t pair_key(VertexId a, VertexId b) {
  return event_pair_key(EdgeEvent{a, b, 1, EdgeOp::kAdd});
}

/// Drop self-loops and repeated unordered pairs, so every oracle sees one
/// well-defined edge (and weight) per pair. With max_weight > 0 the weights
/// are drawn uniformly from [1, max_weight]: the distribution the workload's
/// own weight changes keep, so the timed phase does not drift as they
/// replace the base weights.
EdgeList simplify(const EdgeList& raw, Weight max_weight, std::uint64_t seed) {
  RobinHoodMap<std::uint64_t, std::uint8_t> seen;
  Xoshiro256 rng(seed ^ 0x77e1'6b75ULL);
  EdgeList out;
  for (const Edge& e : raw) {
    if (e.src == e.dst) continue;
    if (!seen.find_or_emplace(pair_key(e.src, e.dst), [] { return std::uint8_t{1}; }).second)
      continue;
    out.push_back(Edge{e.src, e.dst,
                       max_weight ? static_cast<Weight>(1 + rng.bounded(max_weight))
                                  : kDefaultWeight});
  }
  return out;
}

/// Highest-degree vertex: inside the giant component, so traversals from it
/// reach most of the graph.
VertexId hub_of(const EdgeList& edges) {
  RobinHoodMap<VertexId, std::uint64_t> degree;
  for (const Edge& e : edges) {
    ++degree.get_or_insert(e.src);
    ++degree.get_or_insert(e.dst);
  }
  VertexId hub = 0;
  std::uint64_t best = 0;
  degree.for_each([&](const VertexId& v, std::uint64_t& d) {
    if (d > best || (d == best && v < hub)) {
      best = d;
      hub = v;
    }
  });
  return hub;
}

/// `edges` in the order a BFS over `g` from `root` first reaches one of their
/// endpoints; edges it never reaches keep their order at the end. Each edge
/// of root's component then touches a vertex that earlier edges already
/// connected to root.
EdgeList grown_from(const CsrGraph& g, CsrGraph::Dense root, const EdgeList& edges) {
  constexpr std::uint64_t kUnreached = ~std::uint64_t{0};
  std::vector<std::uint64_t> reached(g.num_vertices(), kUnreached);
  std::vector<CsrGraph::Dense> queue{root};
  reached[root] = 0;
  for (std::size_t i = 0; i < queue.size(); ++i)
    for (const CsrGraph::Dense n : g.neighbours(queue[i]))
      if (reached[n] == kUnreached) {
        reached[n] = queue.size();
        queue.push_back(n);
      }
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    keyed[i] = {std::min(reached[g.dense_of(edges[i].src)], reached[g.dense_of(edges[i].dst)]),
                i};
  std::sort(keyed.begin(), keyed.end());
  EdgeList out;
  out.reserve(edges.size());
  for (const auto& [key, i] : keyed) out.push_back(edges[i]);
  return out;
}

/// Engine, programs, base preload and first view publish: one set-up.
Served make_served(Run& run, RankId ranks, const AttachFn& attach,
                   const std::vector<StreamSet>& preload) {
  Scope setup(run.spans, "e2e.setup", -1);
  Served s;
  {
    Scope c(run.spans, "core.construct", -1);
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    s.engine = std::make_unique<Engine>(cfg);
    s.views = attach(*s.engine);
  }
  for (const StreamSet& batch : preload) {
    Scope c(run.spans, "core.ingest", -1);
    s.engine->ingest(batch);
  }
  Scope p(run.spans, "serve.publish", -1);
  s.qs = std::make_unique<serve::QueryService>(
      *s.engine, serve::QueryServiceConfig{.refresh_period_ms = 50, .top_k = 16});
  for (const auto& [id, role] : s.views) s.qs->serve(id, role);
  return s;
}

/// One closed-loop batch: the generator prepares it only after the previous
/// batch converged, then `converge` makes the engine calls that bring every
/// answer up to date. `prepare` returns the batch's event count.
template <class Prepare, class Converge>
void closed_batch(Run& run, Prepare&& prepare, Converge&& converge) {
  const auto b = static_cast<std::int64_t>(run.batches);
  run.start_batch(b);
  const std::uint64_t t0 = now_ns();
  std::size_t n = 0;
  {
    Scope s(run.spans, "gen.prepare", b);
    n = prepare(b);
  }
  const std::uint64_t t1 = now_ns();
  {
    Scope s(run.spans, "e2e.batch", b);
    converge(b);
  }
  const std::uint64_t t2 = now_ns();
  run.late_us.add(static_cast<double>(t1 - t0) / 1e3);
  run.record_batch(static_cast<double>(t2 - t1) / 1e6, run.spans.enabled);
  run.busy_s += seconds_between(t1, t2);
  run.windows.add(n, seconds_between(t1, t2));
  run.events += n;
  ++run.batches;
}

/// Closed-loop workloads: batches on the set-up engine until the time is up.
template <class Prepare, class Converge>
void closed_loop(Run& run, Served& s, Prepare&& prepare, Converge&& converge) {
  run.begin_timed(*s.engine);
  run.windows.start();
  const std::uint64_t t0 = now_ns();
  while (seconds_between(t0, now_ns()) < run.opt.seconds) closed_batch(run, prepare, converge);
  run.windows.finish();
  run.timed_s = seconds_between(t0, now_ns());
  run.rss_mb = peak_rss_mb();
  run.end_timed(*s.engine);
}

/// Compare one served answer with the oracle's.
void check(Run& run, StateWord got, StateWord want) {
  ++run.checked;
  run.wrong += got != want ? 1 : 0;
}

// ---------------------------------------------------------------------------
// construct: the paper's saturation regime. A scale-17 RMAT graph streams
// into a fresh 4-rank engine in ingest batches; passes repeat on fresh
// engines, so every pass does the same work and the loop stays stationary.

class Construct final : public Workload {
 public:
  explicit Construct(const Options& opt) : scale_(opt.smoke ? 12 : 17) {}

  void generate(Run& run) override {
    graph_ = rmat(scale_, 16, run.opt.seed);
    source_ = hub_of(graph_);
    batches_ = ingest_batches(to_events(graph_), kRanks);
  }

  // Each pass's fresh engine is one set-up; timed() records them.
  int setups() const override { return 0; }

  void timed(Run& run) override {
    run.windows.start();
    const std::uint64_t t0 = now_ns();
    do {
      served.reset();
      run.spans.enabled = run.opt.trace;
      const std::uint64_t s0 = now_ns();
      setup(run);
      run.setup_s.add(seconds_between(s0, now_ns()));
      run.begin_timed(*served.engine);
      for (const StreamSet& batch : batches_)
        closed_batch(
            run, [&](std::int64_t) { return batch.total_events(); },
            [&](std::int64_t b) {
              Scope s(run.spans, "core.ingest", b);
              served.engine->ingest(batch);
            });
      run.end_timed(*served.engine);
    } while (seconds_between(t0, now_ns()) < run.opt.seconds);
    run.windows.finish();
    run.timed_s = seconds_between(t0, now_ns());
    run.rss_mb = peak_rss_mb();
  }

  void verify(Run& run) override {
    served.qs->refresh_all();
    const CsrGraph g = CsrGraph::build(with_reverse_edges(graph_));
    const std::vector<StateWord> level = static_bfs(g, g.dense_of(source_));
    for (VertexId v = 0; v < id_space(); ++v) {
      const CsrGraph::Dense d = g.dense_of(v);
      check(run, served.qs->distance(served.views[0].first, v),
            d == CsrGraph::kNoVertex ? kInfiniteState : level[d]);
    }
  }

  const EdgeList& base() const override { return graph_; }
  RankId ranks() const override { return kRanks; }
  VertexId id_space() const override { return VertexId{1} << scale_; }
  AttachFn attach() const override {
    return [this](Engine& e) {
      const ProgramId bfs = e.attach_make<DynamicBfs>(source_).first;
      e.inject_init(bfs, source_);
      return ViewList{{bfs, ViewRole::kDistance}};
    };
  }

 private:
  static constexpr RankId kRanks = 4;
  std::uint32_t scale_;
  EdgeList graph_;
  VertexId source_ = 0;
  std::vector<StreamSet> batches_;
};

// ---------------------------------------------------------------------------
// serve: writes beside reads on the serving plane. An open-loop writer sends
// 50 fresh edges every millisecond through the WriteGate and times each
// batch from its scheduled send until all three published views cover it;
// one reader runs the fig8 query mix in bursts. A closed-loop burst of 4 Ki
// chunks, each admitted and drained before the next, then measures write
// throughput with the views still publishing.

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& opt) : scale_(opt.smoke ? 11 : 16) {}

  void generate(Run& run) override {
    base_ = simplify(rmat(scale_, 16, run.opt.seed), 0, run.opt.seed);
    source_ = hub_of(base_);
    const auto open = static_cast<std::size_t>(kOpenShare * run.opt.seconds * 1000.0);
    const auto burst =
        static_cast<std::size_t>((1 - kOpenShare) * run.opt.seconds * kBurstRate);
    const std::size_t need = open * kWriteBatch + burst;
    // A component label floods its whole component whenever a vertex with a
    // larger one joins it; whether and when a seed's edge order did that to
    // the giant component would decide the message volume and peak memory.
    // So the preload grows the giant component outward from the vertex that
    // holds its final label, and fresh writes (a second RMAT draw over the
    // same id space, sized to the run) stay inside it.
    std::vector<bool> giant(id_space());
    {
      const CsrGraph g = CsrGraph::build(with_reverse_edges(base_));
      const std::vector<StateWord> label = static_cc_union_find(g);
      const StateWord hub_label = label[g.dense_of(source_)];
      CsrGraph::Dense root = 0;
      for (CsrGraph::Dense d = 0; d < g.num_vertices(); ++d) {
        giant[g.external_of(d)] = label[d] == hub_label;
        if (cc_initial_label(g.external_of(d)) == hub_label) root = d;
      }
      preload = ingest_batches(to_events(grown_from(g, root, base_)), kRanks);
    }
    const auto factor = static_cast<std::uint32_t>(
        need / (std::size_t{1} << scale_) * 3 / 2 + 1);
    std::vector<EdgeEvent> fresh;
    for (const Edge& e : rmat(scale_, factor, run.opt.seed + 1000))
      if (e.src != e.dst && giant[e.src] && giant[e.dst])
        fresh.push_back(EdgeEvent{e.src, e.dst, kDefaultWeight, EdgeOp::kAdd});
    if (fresh.size() < need) throw std::runtime_error("serve: fresh edge pool too small");
    auto it = fresh.begin();
    const auto take = [&](std::size_t n) {
      std::vector<EdgeEvent> out(it, it + static_cast<std::ptrdiff_t>(n));
      it += static_cast<std::ptrdiff_t>(n);
      return out;
    };
    for (std::size_t i = 0; i < open; ++i) writes_.push_back(take(kWriteBatch));
    for (std::size_t left = burst; left > 0; left -= burst_.back().size())
      burst_.push_back(take(std::min(left, kBurstChunk)));
  }

  void timed(Run& run) override {
    Engine& e = *served.engine;
    serve::QueryService& qs = *served.qs;
    if (run.opt.trace) run.cuts.attach(e);
    qs.start();
    serve::WriteGate gate(e, {.batch_limit = 1024, .dispatch_threads = 2});

    std::atomic<bool> reading{true};
    Samples reader_ns;
    std::uint64_t reader_count = 0;
    std::thread reader([&] { read_loop(run.opt.seed, reading, reader_ns, reader_count); });

    run.begin_timed(e);
    const std::uint64_t t0 = now_ns();
    // Serving cost per written event comes from the open loop; throughput
    // comes from the burst.
    Windows open_cost;
    open_cost.start();

    struct Pending {
      std::int64_t batch;
      std::uint64_t due, sent, admitted, watermark;
      bool traced;
    };
    std::deque<Pending> pending;
    // The writer's poll: every batch whose post-flush watermark all three
    // views now cover completes at this instant.
    const auto poll = [&] {
      if (pending.empty()) return;
      std::uint64_t visible = ~std::uint64_t{0};
      for (const auto& [id, role] : served.views)
        visible = std::min(visible, qs.view(id)->watermark());
      const std::uint64_t now = now_ns();
      while (!pending.empty() && pending.front().watermark <= visible) {
        const Pending& w = pending.front();
        run.record_batch(static_cast<double>(now - w.due) / 1e6, w.traced);
        if (w.traced) {
          const auto lane = static_cast<std::uint32_t>(16 + w.batch % 128);
          const std::int32_t root = run.spans.add("e2e.write", w.due, now, -1, w.batch, lane);
          run.spans.add("gen.late", w.due, w.sent, root, w.batch, lane);
          run.spans.add("serve.admit", w.sent, w.admitted, root, w.batch, lane);
          run.spans.add("serve.await_view", w.admitted, now, root, w.batch, lane);
        }
        pending.pop_front();
      }
      if (run.opt.trace)
        run.read_lag_events.add(static_cast<double>(qs.stats().read_epoch_lag_events));
    };

    const std::uint64_t start = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < writes_.size(); ++i) {
      const std::uint64_t due = start + i * 1'000'000;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const std::uint64_t sent = now_ns();
      run.late_us.add(static_cast<double>(sent - due) / 1e3);
      gate.submit_batch(writes_[i]);
      gate.flush();
      const std::uint64_t admitted = now_ns();
      pending.push_back(Pending{static_cast<std::int64_t>(i), due, sent, admitted,
                                e.ingested_watermark(), run.opt.trace && i % 2 == 0});
      run.events += kWriteBatch;
      ++run.batches;
      open_cost.add(kWriteBatch, 1e-3);
      poll();
    }
    open_cost.finish();
    const std::uint64_t give_up = now_ns() + 10'000'000'000ULL;
    while (!pending.empty() && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      poll();
    }
    run.failed += pending.size();
    const double open_s = seconds_between(t0, now_ns());
    reading.store(false, std::memory_order_release);
    reader.join();

    // Burst: each chunk admitted, flushed and drained before the next, so
    // no backlog builds up and every window sees the same regime. Its size
    // is fixed, so the graph ends the same whatever the speed.
    run.windows.start();
    for (const std::vector<EdgeEvent>& chunk : burst_) {
      const auto b = static_cast<std::int64_t>(run.batches);
      run.start_batch(b);
      const std::uint64_t c0 = now_ns();
      {
        Scope root(run.spans, "e2e.chunk", b);
        {
          Scope s(run.spans, "serve.admit", b);
          gate.submit_batch(chunk);
          gate.flush();
        }
        Scope s(run.spans, "core.drain", b);
        e.drain();
      }
      run.windows.add(chunk.size(), seconds_between(c0, now_ns()));
      run.events += chunk.size();
      ++run.batches;
    }
    run.windows.finish();
    run.windows.cpu_us = open_cost.cpu_us;

    qs.stop();
    CutRecorder::detach(e);
    run.timed_s = seconds_between(t0, now_ns());
    run.rss_mb = peak_rss_mb();
    run.end_timed(e);

    const serve::WriteGateStats gs = gate.stats();
    run.wave_occupancy = gs.mean_wave_occupancy;
    run.parallel_wave_share =
        gs.waves ? static_cast<double>(gs.parallel_waves) / static_cast<double>(gs.waves) : 0.0;
    run.read_ns = reader_ns;
    run.reads = reader_count;
    run.reads_per_s = static_cast<double>(reader_count) / open_s;
  }

  void verify(Run& run) override {
    EdgeList all = base_;
    for (const auto& batch : writes_)
      for (const EdgeEvent& ev : batch) all.push_back(Edge{ev.src, ev.dst, ev.weight});
    for (const auto& chunk : burst_)
      for (const EdgeEvent& ev : chunk) all.push_back(Edge{ev.src, ev.dst, ev.weight});
    const CsrGraph g = CsrGraph::build(with_reverse_edges(simplify(all, 0, 0)));
    const std::vector<StateWord> level = static_bfs(g, g.dense_of(source_));
    const std::vector<StateWord> label = static_cc_union_find(g);
    const serve::QueryService& qs = *served.qs;
    const auto check_all = [&] {
      for (VertexId v = 0; v < id_space(); ++v) {
        const CsrGraph::Dense d = g.dense_of(v);
        const bool known = d != CsrGraph::kNoVertex;
        check(run, qs.distance(bfs(), v), known ? level[d] : kInfiniteState);
        check(run, qs.component_of(cc(), v), known ? label[d] : 0);
        check(run, qs.state(deg(), v), known ? g.degree(d) : 0);
      }
    };
    // The first publish after the run is what a reader sees next, and it can
    // repeat a stale value: collect_versioned lets a rank that has already
    // harvested re-freeze a vertex it writes before the cut ends, and the
    // next cut reports that frozen copy. These wrong answers count in
    // error_rate; up to kStaleAllowance of them are put down to that known
    // bug, any more fail the run. A second publish, at quiescence, must be
    // exact.
    served.qs->refresh_all();
    check_all();
    const std::uint64_t wrong = run.wrong, checked = run.checked;
    served.qs->refresh_all();
    check_all();
    run.settled_wrong = run.wrong - wrong;
    run.wrong = wrong;
    run.checked = checked;
    run.wrong_allowed = kStaleAllowance;
  }

  const EdgeList& base() const override { return base_; }
  RankId ranks() const override { return kRanks; }
  VertexId id_space() const override { return VertexId{1} << scale_; }
  bool live_reads() const override { return true; }
  AttachFn attach() const override {
    return [this](Engine& e) {
      const ProgramId bfs = e.attach_make<DynamicBfs>(source_).first;
      const ProgramId cc = e.attach_make<DynamicCc>().first;
      const ProgramId deg = e.attach_make<DegreeTracker>().first;
      e.inject_init(bfs, source_);
      return ViewList{{bfs, ViewRole::kDistance},
                      {cc, ViewRole::kComponent},
                      {deg, ViewRole::kDegree}};
    };
  }

 private:
  ProgramId bfs() const { return served.views[0].first; }
  ProgramId cc() const { return served.views[1].first; }
  ProgramId deg() const { return served.views[2].first; }

  /// The fig8 query mix, closed loop: bursts of 1008 queries (63 timed
  /// groups of 16) with 10 ms think time.
  void read_loop(std::uint64_t seed, const std::atomic<bool>& reading, Samples& ns,
                 std::uint64_t& count) const {
    const serve::QueryService& qs = *served.qs;
    Xoshiro256 rng(seed ^ 0xf1885e41ULL);
    std::uint64_t sink = 0;
    while (reading.load(std::memory_order_acquire)) {
      for (int group = 0; group < 63; ++group) {
        const std::uint64_t t = now_ns();
        for (int q = 0; q < 16; ++q) {
          const auto u = static_cast<VertexId>(rng.bounded(id_space()));
          const std::uint64_t kind = rng.bounded(100);
          if (kind < 40) {
            sink += qs.distance(bfs(), u);
          } else if (kind < 60) {
            sink += qs.component_of(cc(), u);
          } else if (kind < 80) {
            sink += qs.connected(cc(), u, static_cast<VertexId>(rng.bounded(id_space())));
          } else if (kind < 90) {
            sink += qs.reachable(bfs(), u);
          } else {
            sink += qs.top_k_degree(deg(), 8).size();
          }
        }
        ns.add(static_cast<double>(now_ns() - t) / 16.0);
      }
      count += 63 * 16;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    static_cast<void>(*static_cast<volatile std::uint64_t*>(&sink));
  }

  static constexpr RankId kRanks = 2;
  static constexpr std::size_t kWriteBatch = 50;
  static constexpr std::size_t kBurstChunk = 4096;
  static constexpr double kOpenShare = 0.7;  // of --seconds; the burst follows
  // Burst events per second of --seconds left after the open loop; on a
  // 4-core host the burst takes about half that time.
  static constexpr double kBurstRate = 500000.0;
  // Stale answers the first publish after the run may show (see verify()).
  static constexpr std::uint64_t kStaleAllowance = 64;
  std::uint32_t scale_;
  EdgeList base_;
  VertexId source_ = 0;
  std::vector<std::vector<EdgeEvent>> writes_;
  std::vector<std::vector<EdgeEvent>> burst_;
};

// ---------------------------------------------------------------------------
// pagerank-mutate: the fig9 base graph absorbs closed-loop batches of 64
// in-place weight mutations. Weights change in place, so the graph's size
// stays fixed however many batches a run gets through.

class PageRankMutate final : public Workload {
 public:
  explicit PageRankMutate(const Options& opt) : scale_(opt.smoke ? 9 : 12) {}

  void generate(Run& run) override {
    base_ = simplify(rmat(scale_, 16, run.opt.seed), kMaxWeight, run.opt.seed);
    cur_ = base_;
    for (std::uint32_t i = 0; i < cur_.size(); ++i)
      index_.get_or_insert(pair_key(cur_[i].src, cur_[i].dst)) = i;
    preload = ingest_batches(to_events(base_), kRanks);
    refill(run.opt.seed);
  }

  void timed(Run& run) override {
    const std::uint64_t seed = run.opt.seed;
    closed_loop(
        run, served,
        [&](std::int64_t b) {
          if (pos_ + kBatch > muts_.size()) refill(seed);
          std::vector<EdgeEvent> batch(muts_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                       muts_.begin() + static_cast<std::ptrdiff_t>(pos_ + kBatch));
          pos_ += kBatch;
          // Applied as sent: cur_ is the topology the engine has seen.
          for (const EdgeEvent& m : batch) {
            cur_[*index_.find(pair_key(m.src, m.dst))].weight = m.weight;
            keep_pair(run, lookup_pairs, Edge{m.src, m.dst, m.weight});
          }
          streams_ = split_events_keyed(std::move(batch), kRanks,
                                        seed ^ static_cast<std::uint64_t>(b));
          return kBatch;
        },
        [&](std::int64_t b) {
          Scope s(run.spans, "core.ingest", b);
          served.engine->ingest(streams_);
        });
  }

  void verify(Run& run) override {
    served.qs->refresh_all();
    const CsrGraph g = CsrGraph::build(with_reverse_edges(cur_));
    const std::vector<double> want = static_pagerank(g, {.eps = 1e-12});
    for (CsrGraph::Dense d = 0; d < g.num_vertices(); ++d) {
      const double got = served.qs->rank_of(served.views[0].first, g.external_of(d));
      const double rel = std::abs(got - want[d]) / want[d];
      run.max_rel_err = std::max(run.max_rel_err, rel);
      ++run.checked;
      run.wrong += rel > kMaxRelErr ? 1 : 0;
    }
  }

  const EdgeList& base() const override { return base_; }
  RankId ranks() const override { return kRanks; }
  VertexId id_space() const override { return VertexId{1} << scale_; }
  AttachFn attach() const override {
    return [this](Engine& e) {
      const ProgramId pr = e.attach(std::make_shared<PageRankDelta>(
          PageRankDelta::Options{.tolerance = kTolerance}));
      return ViewList{{pr, ViewRole::kRank}};
    };
  }

 private:
  /// Next chunk of mutations, drawn against the weights sent so far.
  void refill(std::uint64_t seed) {
    muts_ = make_weight_mutations(cur_, {.num_events = kChunk,
                                         .min_weight = 1,
                                         .max_weight = kMaxWeight,
                                         .seed = seed * 1000003 + chunks_++});
    pos_ = 0;
  }

  static constexpr RankId kRanks = 4;
  static constexpr std::size_t kBatch = 64;
  static constexpr std::uint32_t kChunk = 64 * 1024;
  static constexpr Weight kMaxWeight = 8;
  static constexpr double kTolerance = 1e-2;  // fig9's operating point
  static constexpr double kMaxRelErr = 0.10;  // a served rank further off is wrong
  std::uint32_t scale_;
  EdgeList base_, cur_;
  RobinHoodMap<std::uint64_t, std::uint32_t> index_;
  StreamSet streams_;
  std::vector<EdgeEvent> muts_;
  std::size_t pos_ = 0;
  std::uint64_t chunks_ = 0;
};

// ---------------------------------------------------------------------------
// sssp-churn: closed-loop batches of 256 real transitions on a weighted
// graph: 96 adds of new pairs, 96 deletes of live pairs and 64 weight
// changes, each batch ingested and then repaired. Adds and deletes balance,
// so the graph keeps its size and degree shape however long the run; adds
// are drawn from further RMAT samples of the same id space.

class SsspChurn final : public Workload {
 public:
  explicit SsspChurn(const Options& opt)
      : scale_(opt.smoke ? 11 : 16), rng_(opt.seed ^ 0x5eed'c4a2'11ULL) {}

  void generate(Run& run) override {
    base_ = simplify(rmat(scale_, 16, run.opt.seed), kMaxWeight, run.opt.seed);
    source_ = hub_of(base_);
    for (const Edge& e : base_) live_add(e);
    preload = ingest_batches(to_events(base_), kRanks);
    kinds_.assign(kAdds, Kind::kAdd);
    kinds_.insert(kinds_.end(), kDeletes, Kind::kDelete);
    kinds_.insert(kinds_.end(), kReweights, Kind::kReweight);
  }

  void timed(Run& run) override {
    const std::uint64_t seed = run.opt.seed;
    closed_loop(
        run, served,
        [&](std::int64_t b) {
          std::vector<EdgeEvent> batch = make_batch(run, seed);
          streams_ = split_events_keyed(std::move(batch), kRanks,
                                        seed ^ static_cast<std::uint64_t>(b));
          return kAdds + kDeletes + kReweights;
        },
        [&](std::int64_t b) {
          {
            Scope s(run.spans, "core.ingest", b);
            served.engine->ingest(streams_);
          }
          Scope s(run.spans, "core.repair", b);
          const std::uint64_t t = now_ns();
          served.engine->repair(served.views[0].first);
          run.repair_s += seconds_between(t, now_ns());
        });
  }

  void verify(Run& run) override {
    served.qs->refresh_all();
    const CsrGraph g = CsrGraph::build(with_reverse_edges(live_));
    const CsrGraph::Dense src = g.dense_of(source_);
    std::vector<StateWord> dist;
    if (src != CsrGraph::kNoVertex) dist = static_sssp_dijkstra(g, src);
    for (VertexId v = 0; v < id_space(); ++v) {
      const CsrGraph::Dense d = g.dense_of(v);
      const StateWord want = d != CsrGraph::kNoVertex && src != CsrGraph::kNoVertex
                                 ? dist[d]
                                 : (v == source_ ? 1 : kInfiniteState);
      check(run, served.qs->distance(served.views[0].first, v), want);
    }
  }

  const EdgeList& base() const override { return base_; }
  RankId ranks() const override { return kRanks; }
  VertexId id_space() const override { return VertexId{1} << scale_; }
  AttachFn attach() const override {
    return [this](Engine& e) {
      const ProgramId sssp = e.attach_make<WeightedSssp>(source_).first;
      e.inject_init(sssp, source_);
      return ViewList{{sssp, ViewRole::kDistance}};
    };
  }

 private:
  /// 256 events in a seeded order; each one is a real transition of the
  /// live edge set, which is updated as the batch is built.
  std::vector<EdgeEvent> make_batch(const Run& run, std::uint64_t seed) {
    std::vector<Kind> kinds = kinds_;
    for (std::size_t i = kinds.size(); i > 1; --i)
      std::swap(kinds[i - 1], kinds[rng_.bounded(i)]);
    std::vector<EdgeEvent> out;
    out.reserve(kinds.size());
    for (const Kind kind : kinds) {
      if (kind == Kind::kAdd) {
        const Edge e = next_new_pair(seed);
        live_add(e);
        out.push_back(EdgeEvent{e.src, e.dst, e.weight, EdgeOp::kAdd});
      } else if (kind == Kind::kDelete) {
        const Edge e = live_remove(rng_.bounded(live_.size()));
        keep_pair(run, erase_pairs, e);
        out.push_back(EdgeEvent{e.src, e.dst, kDefaultWeight, EdgeOp::kDelete});
      } else {
        // A re-add with another weight is a weight change.
        Edge& e = live_[rng_.bounded(live_.size())];
        const Weight old = e.weight;
        while (e.weight == old) e.weight = static_cast<Weight>(1 + rng_.bounded(kMaxWeight));
        out.push_back(EdgeEvent{e.src, e.dst, e.weight, EdgeOp::kAdd});
      }
    }
    return out;
  }

  Edge next_new_pair(std::uint64_t seed) {
    for (;;) {
      if (add_pos_ == adds_.size()) {
        adds_ = rmat(scale_, 2, seed + 1000 + add_chunks_++);
        add_pos_ = 0;
      }
      const Edge& e = adds_[add_pos_++];
      if (e.src != e.dst && !index_.contains(pair_key(e.src, e.dst)))
        return Edge{e.src, e.dst, static_cast<Weight>(1 + rng_.bounded(kMaxWeight))};
    }
  }

  void live_add(const Edge& e) {
    index_.get_or_insert(pair_key(e.src, e.dst)) = static_cast<std::uint32_t>(live_.size());
    live_.push_back(e);
  }

  Edge live_remove(std::size_t i) {
    const Edge gone = live_[i];
    index_.erase(pair_key(gone.src, gone.dst));
    if (i + 1 != live_.size()) {
      live_[i] = live_.back();
      *index_.find(pair_key(live_[i].src, live_[i].dst)) = static_cast<std::uint32_t>(i);
    }
    live_.pop_back();
    return gone;
  }

  enum class Kind : std::uint8_t { kAdd, kDelete, kReweight };
  static constexpr RankId kRanks = 4;
  static constexpr std::size_t kAdds = 96, kDeletes = 96, kReweights = 64;
  static constexpr Weight kMaxWeight = 7;
  std::uint32_t scale_;
  Xoshiro256 rng_;
  EdgeList base_;
  VertexId source_ = 0;
  StreamSet streams_;
  std::vector<Kind> kinds_;
  EdgeList live_;
  RobinHoodMap<std::uint64_t, std::uint32_t> index_;  // pair -> position in live_
  EdgeList adds_;
  std::size_t add_pos_ = 0;
  std::uint64_t add_chunks_ = 0;
};

}  // namespace

void Workload::setup(Run& run) {
  served.reset();
  served = make_served(run, ranks(), attach(), preload);
}

std::vector<StreamSet> ingest_batches(const std::vector<EdgeEvent>& events, RankId ranks) {
  constexpr std::size_t kBatch = 16384;
  std::vector<StreamSet> out;
  for (std::size_t i = 0; i < events.size(); i += kBatch) {
    const auto end = std::min(events.size(), i + kBatch);
    out.push_back(split_events({events.begin() + static_cast<std::ptrdiff_t>(i),
                                events.begin() + static_cast<std::ptrdiff_t>(end)},
                               ranks));
  }
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& opt) {
  if (name == "construct") return std::make_unique<Construct>(opt);
  if (name == "serve") return std::make_unique<ServeWorkload>(opt);
  if (name == "pagerank-mutate") return std::make_unique<PageRankMutate>(opt);
  if (name == "sssp-churn") return std::make_unique<SsspChurn>(opt);
  return nullptr;
}

}  // namespace remo_bench
