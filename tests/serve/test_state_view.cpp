// StateView: views built from per-rank state copies answer exactly as the
// engine's quiescent collection does, all views of one refresh_all() share
// one cut, and the paced refresher publishes a write without waiting for
// the refresh period (docs/SERVING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "../support.hpp"

namespace remo::test {
namespace {

using TopList = std::vector<std::pair<VertexId, StateWord>>;

/// The order the top-k catalog promises: value desc, then vertex asc, with
/// identity values left out (a quiescent snapshot holds none).
TopList reference_top(const Snapshot& snap, std::size_t k) {
  TopList all(snap.begin(), snap.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

/// Every vertex of [0, id_space) reads the same through the view as through
/// the quiescent snapshot.
void expect_view_equals(const serve::StateView& view, const Snapshot& want,
                        VertexId id_space, const char* what) {
  std::size_t wrong = 0;
  for (VertexId v = 0; v < id_space; ++v) wrong += view.at(v) != want.at(v);
  EXPECT_EQ(wrong, 0u) << what << ": vertices whose view differs from collect_quiescent";
}

struct ThreeRoles {
  ProgramId bfs, cc, deg;
};

ThreeRoles attach_three(Engine& engine, VertexId source) {
  ThreeRoles ids{};
  ids.bfs = engine.attach_make<DynamicBfs>(source).first;
  ids.cc = engine.attach_make<DynamicCc>().first;
  ids.deg = engine.attach_make<DegreeTracker>().first;
  engine.inject_init(ids.bfs, source);
  return ids;
}

/// PageRankDelta owns the edge memo words, so it runs on an engine alone.
struct RankEngine {
  Engine engine{EngineConfig{.num_ranks = 4}};
  ProgramId id = engine.attach_make<PageRankDelta>().first;
};

TEST(StateViews, QuiescentViewOfEveryRoleMatchesCollectQuiescent) {
  constexpr VertexId kVerts = 500;
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = kVerts, .num_edges = 1500, .seed = 29});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = 4});
  const ThreeRoles ids = attach_three(engine, source);
  engine.ingest(make_streams(edges, 4));
  RankEngine pr_engine;
  pr_engine.engine.ingest(make_streams(edges, 4));

  serve::QueryService qs(engine, {.refresh_period_ms = 0});
  qs.serve(ids.bfs, serve::ViewRole::kDistance);
  qs.serve(ids.cc, serve::ViewRole::kComponent);
  qs.serve(ids.deg, serve::ViewRole::kDegree);
  qs.refresh_all();
  serve::QueryService pr_qs(pr_engine.engine, {.refresh_period_ms = 0});
  pr_qs.serve(pr_engine.id, serve::ViewRole::kRank);

  // Past the id space too: untouched vertices read the identity.
  const VertexId probe = kVerts + 64;
  const Snapshot bfs = engine.collect_quiescent(ids.bfs);
  const Snapshot cc = engine.collect_quiescent(ids.cc);
  const Snapshot deg = engine.collect_quiescent(ids.deg);
  const Snapshot rank = pr_engine.engine.collect_quiescent(pr_engine.id);
  expect_view_equals(*qs.view(ids.bfs), bfs, probe, "distance");
  expect_view_equals(*qs.view(ids.cc), cc, probe, "component");
  expect_view_equals(*qs.view(ids.deg), deg, probe, "degree");
  expect_view_equals(*pr_qs.view(pr_engine.id), rank, probe, "rank");

  const PageRankDelta pr;
  for (VertexId v = 0; v < probe; ++v) {
    ASSERT_EQ(qs.distance(ids.bfs, v), bfs.at(v)) << v;
    ASSERT_EQ(qs.reachable(ids.bfs, v), bfs.at(v) != kInfiniteState) << v;
    ASSERT_EQ(qs.component_of(ids.cc, v), cc.at(v)) << v;
    ASSERT_EQ(qs.state(ids.deg, v), deg.at(v)) << v;
    ASSERT_EQ(pr_qs.rank_of(pr_engine.id, v), pr.rank_of(rank.at(v))) << v;
  }
  // The sorted form of a view is the quiescent snapshot itself.
  const Snapshot as_snapshot = qs.view(ids.cc)->snapshot();
  EXPECT_EQ(as_snapshot.entries(), cc.entries());
}

TEST(StateViews, TopKKeepsValueDescVertexAscOrderWithTies) {
  // A star with 40 leaves, then 60 disjoint pairs: one hub, and long runs
  // of equal degree (1 and 2) that only the vertex tie-break orders.
  EdgeList edges;
  for (VertexId leaf = 1; leaf <= 40; ++leaf) edges.push_back({0, leaf, 1});
  for (VertexId v = 100; v < 220; v += 2) edges.push_back({v, v + 1, 1});
  for (VertexId v = 300; v < 330; ++v) edges.push_back({v, v + 1, 1});  // a path

  Engine engine(EngineConfig{.num_ranks = 4});
  const ThreeRoles ids = attach_three(engine, 0);
  engine.ingest(make_streams(edges, 4));
  RankEngine pr_engine;
  pr_engine.engine.ingest(make_streams(edges, 4));

  constexpr std::size_t kTop = 50;
  serve::QueryService qs(engine, {.refresh_period_ms = 0, .top_k = kTop});
  qs.serve(ids.deg, serve::ViewRole::kDegree);
  serve::QueryService pr_qs(pr_engine.engine, {.refresh_period_ms = 0, .top_k = kTop});
  pr_qs.serve(pr_engine.id, serve::ViewRole::kRank);

  const TopList deg_want = reference_top(engine.collect_quiescent(ids.deg), kTop);
  for (const std::size_t k : {std::size_t{1}, std::size_t{7}, kTop, kTop + 10}) {
    const TopList got = qs.top_k_degree(ids.deg, k);
    const TopList want(deg_want.begin(),
                       deg_want.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(k, deg_want.size())));
    EXPECT_EQ(got, want) << "k=" << k;
  }
  EXPECT_EQ(deg_want.front(), (std::pair<VertexId, StateWord>{0, 40}));

  const PageRankDelta pr;
  const TopList rank_want =
      reference_top(pr_engine.engine.collect_quiescent(pr_engine.id), kTop);
  const auto rank_got = pr_qs.top_k_rank(pr_engine.id, kTop);
  ASSERT_EQ(rank_got.size(), rank_want.size());
  for (std::size_t i = 0; i < rank_want.size(); ++i) {
    EXPECT_EQ(rank_got[i].first, rank_want[i].first) << i;
    EXPECT_EQ(rank_got[i].second, pr.rank_of(rank_want[i].second)) << i;
  }
}

TEST(StateViews, TopKCapLargerThanTheStateListsEveryEntry) {
  // The cap comes unchecked from `remo serve --top-k`; a publish must size
  // its list by the state, not by the cap (this one exceeds any vector's
  // max_size, so reserving it would throw).
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 300, .num_edges = 900, .seed = 5});
  Engine engine(EngineConfig{.num_ranks = 4});
  const ThreeRoles ids = attach_three(engine, 0);
  engine.ingest(make_streams(edges, 4));

  constexpr std::size_t kHuge = std::size_t{1} << 62;
  serve::QueryService qs(engine, {.refresh_period_ms = 0, .top_k = kHuge});
  qs.serve(ids.deg, serve::ViewRole::kDegree);
  const Snapshot deg = engine.collect_quiescent(ids.deg);
  EXPECT_EQ(qs.top_k_degree(ids.deg, kHuge), reference_top(deg, kHuge));
  EXPECT_EQ(qs.view(ids.deg)->top().size(), deg.size());
}

TEST(StateViews, OneRefreshAllSharesOneEpochAndWatermark) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 2000, .num_edges = 16000, .seed = 8});
  Engine engine(EngineConfig{.num_ranks = 4});
  const ThreeRoles ids = attach_three(engine, 0);

  serve::QueryService qs(engine, {.refresh_period_ms = 0});
  qs.serve(ids.bfs, serve::ViewRole::kDistance);
  qs.serve(ids.cc, serve::ViewRole::kComponent);
  qs.serve(ids.deg, serve::ViewRole::kDegree);

  // Cut while the streams run, so the watermarks differ between publishes.
  const StreamSet streams = make_streams(edges, 4);
  engine.ingest_async(streams);
  std::uint64_t last_version = 0;
  for (int round = 0; round < 5; ++round) {
    qs.refresh_all();
    const auto bfs = qs.view(ids.bfs);
    const auto cc = qs.view(ids.cc);
    const auto deg = qs.view(ids.deg);
    EXPECT_EQ(cc->epoch(), bfs->epoch()) << round;
    EXPECT_EQ(deg->epoch(), bfs->epoch()) << round;
    EXPECT_EQ(cc->watermark(), bfs->watermark()) << round;
    EXPECT_EQ(deg->watermark(), bfs->watermark()) << round;
    // Versions stay distinct and increasing, one per view.
    EXPECT_GT(bfs->version(), last_version);
    EXPECT_GT(cc->version(), bfs->version());
    EXPECT_GT(deg->version(), cc->version());
    last_version = deg->version();
  }
  engine.await_quiescence();
}

TEST(StateViews, GateWriteBecomesVisibleLongBeforeTheRefreshPeriod) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(id, 0);
  engine.inject_edge({0, 1, 1, EdgeOp::kAdd});
  engine.drain();

  // A 10 s period: only the write-triggered publish can make the write
  // visible inside the 2 s this test waits.
  serve::QueryService qs(engine, {.refresh_period_ms = 10000});
  qs.serve(id, serve::ViewRole::kDistance);
  qs.start();
  ASSERT_EQ(qs.distance(id, 2), kInfiniteState);

  serve::WriteGate gate(engine);
  gate.submit({1, 2, 1, EdgeOp::kAdd});
  gate.flush();
  const std::uint64_t admitted = engine.ingested_watermark();
  engine.drain();

  const auto t0 = std::chrono::steady_clock::now();
  bool visible = false;
  while (!visible && std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2)) {
    const auto view = qs.view(id);
    visible = view->watermark() >= admitted && view->at(2) == 3u;
    if (!visible) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  qs.stop();
  EXPECT_TRUE(visible) << "the write was not published within 2 s";
}

// The stale-cut hazard of the versioned collection (see
// Snapshots.CutAfterLiveCutsMatchesQuiescentState), driven through the
// serving plane: the paced refresher cuts three programs at once while
// streams ingest, then one publish at quiescence must equal the quiescent
// state of every program exactly.
TEST(StateViews, PacedRefresherUnderLiveIngestThenQuiescentPublishIsExact) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 3000, .num_edges = 24000, .seed = 91});
  constexpr std::size_t kBatches = 12;
  const std::size_t per_batch = edges.size() / kBatches;

  Engine engine(EngineConfig{.num_ranks = 4});
  const ThreeRoles ids = attach_three(engine, edges.front().src);
  serve::QueryService qs(engine, {.refresh_period_ms = 1});
  qs.serve(ids.bfs, serve::ViewRole::kDistance);
  qs.serve(ids.cc, serve::ViewRole::kComponent);
  qs.serve(ids.deg, serve::ViewRole::kDegree);

  for (std::size_t b = 0; b < kBatches; ++b) {
    const EdgeList batch(edges.begin() + b * per_batch,
                         edges.begin() + (b + 1) * per_batch);
    const StreamSet streams = make_streams(batch, 4, StreamOptions{.seed = b});
    qs.start();
    engine.ingest(streams);
    qs.stop();

    qs.refresh_all();
    for (const ProgramId p : {ids.bfs, ids.cc, ids.deg}) {
      const Snapshot settled = engine.collect_quiescent(p);
      const auto view = qs.view(p);
      std::size_t stale = 0;
      for (VertexId v = 0; v < 3000; ++v) stale += view->at(v) != settled.at(v);
      ASSERT_EQ(stale, 0u) << "batch " << b << " program " << int{p}
                           << ": stale values in the quiescent publish";
    }
  }
}

}  // namespace
}  // namespace remo::test
