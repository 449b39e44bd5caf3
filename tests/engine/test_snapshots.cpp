// Global state collection (Sections II-C, III-D): quiescent harvests,
// versioned (Chandy-Lamport-style) collections during live ingestion, and
// snapshot-vs-oracle consistency at the cut.
#include <gtest/gtest.h>

#include "../support.hpp"

namespace remo::test {
namespace {

TEST(Snapshots, QuiescentCollectionMatchesStateOf) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 200, .num_edges = 800, .seed = 5});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = 3});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);
  engine.ingest(make_streams(edges, 3));

  const Snapshot snap = engine.collect_quiescent(id);
  expect_snapshot_matches_oracle(snap, g, static_bfs(g, g.dense_of(source)));
  // Identity vertices are excluded from the entry list.
  for (const auto& [v, val] : snap) EXPECT_NE(val, kInfiniteState);
}

TEST(Snapshots, EmptyProgramYieldsEmptySnapshot) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(0);
  const Snapshot snap = engine.collect_quiescent(id);
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.at(123), kInfiniteState);
}

// The core Section III-D property: a versioned collection cut after prefix
// P of the stream equals the quiescent state of a run that ingested only P —
// while ingestion of the suffix continues during the collection.
TEST(Snapshots, VersionedCollectionEqualsPrefixOracle) {
  const std::uint64_t kSeed = 23;
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 300, .num_edges = 1200, .seed = kSeed});
  const CsrGraph g_full = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g_full);

  // Phase 1: ingest the prefix, collect VERSIONED while the suffix streams
  // in immediately afterwards.
  const std::size_t kPrefix = edges.size() / 2;
  EdgeList prefix(edges.begin(), edges.begin() + kPrefix);
  EdgeList suffix(edges.begin() + kPrefix, edges.end());

  Engine engine(EngineConfig{.num_ranks = 3});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);
  const StreamSet s1 = make_streams(prefix, 3, StreamOptions{.seed = kSeed});
  engine.ingest(s1);

  // Start the suffix asynchronously, then cut. The cut lands at some point
  // at-or-after the prefix; to make the expected state exact we cut
  // *before* starting the suffix ingestion.
  const Snapshot cut = engine.collect_versioned(id);

  const StreamSet s2 = make_streams(suffix, 3, StreamOptions{.seed = kSeed + 1});
  engine.ingest(s2);

  // The cut must equal the prefix oracle...
  const CsrGraph g_prefix = undirected_csr(prefix);
  expect_snapshot_matches_oracle(cut, g_prefix,
                                 static_bfs(g_prefix, g_prefix.dense_of(source)));
  // ...and the live state the full oracle.
  expect_matches_oracle(engine, id, g_full,
                        static_bfs(g_full, g_full.dense_of(source)));
}

TEST(Snapshots, VersionedCollectionDuringLiveIngestionIsConsistent) {
  // Cut while events are genuinely in flight. The exact cut point is
  // nondeterministic, so validate *consistency*: the snapshot must be a
  // valid BFS level assignment for SOME prefix — checked via causal rules:
  // level(source)=1 and every snapshotted vertex has a snapshotted
  // level-1 predecessor among the final graph's neighbours.
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 400, .num_edges = 4000, .seed = 77});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = 3});
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);
  const StreamSet streams = make_streams(edges, 3);
  engine.ingest_async(streams);
  const Snapshot cut = engine.collect_versioned(id);  // mid-flight
  engine.await_quiescence();

  EXPECT_EQ(cut.at(source), 1u);
  for (const auto& [v, level] : cut) {
    if (v == source) continue;
    ASSERT_GT(level, 1u);
    // Some neighbour in the final graph carries level-1 in the snapshot.
    const CsrGraph::Dense dv = g.dense_of(v);
    ASSERT_NE(dv, CsrGraph::kNoVertex);
    bool supported = false;
    for (const CsrGraph::Dense u : g.neighbours(dv))
      if (cut.at(g.external_of(u)) == level - 1) supported = true;
    EXPECT_TRUE(supported) << "vertex " << v << " level " << level
                           << " has no snapshot predecessor";
  }

  // And the final live state is exact.
  expect_matches_oracle(engine, id, g, static_bfs(g, g.dense_of(source)));
}

TEST(Snapshots, RepeatedVersionedCollectionsAreMonotone) {
  // BFS levels only improve; successive cuts must be pointwise no-worse.
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 300, .num_edges = 3000, .seed = 41});
  Engine engine(EngineConfig{.num_ranks = 2});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);
  auto [id, bfs] = engine.attach_make<DynamicBfs>(source);
  engine.inject_init(id, source);

  const StreamSet streams = make_streams(edges, 2);
  engine.ingest_async(streams);
  const Snapshot c1 = engine.collect_versioned(id);
  const Snapshot c2 = engine.collect_versioned(id);
  engine.await_quiescence();
  const Snapshot c3 = engine.collect_quiescent(id);

  for (const auto& [v, lvl1] : c1) {
    EXPECT_LE(c2.at(v), lvl1) << "vertex " << v;
    EXPECT_LE(c3.at(v), lvl1) << "vertex " << v;
  }
  for (const auto& [v, lvl2] : c2) EXPECT_LE(c3.at(v), lvl2) << "vertex " << v;
}

TEST(Snapshots, CutAfterLiveCutsMatchesQuiescentState) {
  // A cut retires S_prev rank by rank, while the engine-wide versioned flag
  // stays up until the last rank has harvested. A rank that already
  // harvested must not re-freeze S_prev on a new-epoch write in that
  // window, or the following cut reports the stale frozen value. Cut
  // under live ingest, let the system settle, then a versioned cut of the
  // quiescent system must equal the quiescent harvest exactly.
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 3000, .num_edges = 24000, .seed = 91});
  constexpr std::size_t kBatches = 12;
  const std::size_t per_batch = edges.size() / kBatches;

  Engine engine(EngineConfig{.num_ranks = 4});
  auto [id, cc] = engine.attach_make<DynamicCc>();
  for (std::size_t b = 0; b < kBatches; ++b) {
    const EdgeList batch(edges.begin() + b * per_batch,
                         edges.begin() + (b + 1) * per_batch);
    const StreamSet streams = make_streams(batch, 4, StreamOptions{.seed = b});
    engine.ingest_async(streams);
    (void)engine.collect_versioned(id);  // mid-flight
    engine.await_quiescence();

    const Snapshot cut = engine.collect_versioned(id);
    const Snapshot settled = engine.collect_quiescent(id);
    ASSERT_EQ(cut.size(), settled.size()) << "batch " << b;
    std::size_t stale = 0;
    for (const auto& [v, label] : settled) stale += cut.at(v) != label;
    ASSERT_EQ(stale, 0u) << "batch " << b << ": stale values in the cut";
  }
}

TEST(Snapshots, CollectionForOneProgramDoesNotDisturbAnother) {
  const EdgeList edges =
      generate_erdos_renyi({.num_vertices = 200, .num_edges = 1000, .seed = 55});
  const CsrGraph g = undirected_csr(edges);
  const VertexId source = vertex_in_largest_cc(g);

  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(source);
  auto [cc_id, cc] = engine.attach_make<DynamicCc>();
  engine.inject_init(bfs_id, source);

  const StreamSet streams = make_streams(edges, 2);
  engine.ingest_async(streams);
  (void)engine.collect_versioned(bfs_id);  // splits state engine-wide
  engine.await_quiescence();

  expect_matches_oracle(engine, bfs_id, g, static_bfs(g, g.dense_of(source)));
  expect_matches_oracle(engine, cc_id, g, static_cc_union_find(g));
}

TEST(Snapshots, SnapshotLookupSemantics) {
  std::vector<Snapshot::Entry> entries = {{5, 50}, {1, 10}, {3, 30}};
  const Snapshot snap(std::move(entries), /*identity=*/kInfiniteState);
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at(1), 10u);
  EXPECT_EQ(snap.at(3), 30u);
  EXPECT_EQ(snap.at(5), 50u);
  EXPECT_EQ(snap.at(0), kInfiniteState);
  EXPECT_EQ(snap.at(4), kInfiniteState);
  EXPECT_EQ(snap.at(999), kInfiniteState);
}

}  // namespace
}  // namespace remo::test
