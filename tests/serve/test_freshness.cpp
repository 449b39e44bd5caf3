// Write-to-readable freshness: a WriteGate wired to a QueryService reports
// every dispatched batch, and the first publish whose pre-cut watermark
// covers the batch records its freshness. These tests pin the watermark
// comparison, the pending table's bound, and — under TSan — the whole
// plane at once: concurrent submitters, the gate's injector workers, the
// paced refresher and a gauge sampler.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "../support.hpp"

namespace remo::test {
namespace {

std::vector<EdgeEvent> ring_events(VertexId n, VertexId stride,
                                   std::uint64_t salt) {
  std::vector<EdgeEvent> ev;
  ev.reserve(n);
  for (VertexId i = 0; i < n; ++i)
    ev.push_back({static_cast<VertexId>((i * stride + salt) % n),
                  static_cast<VertexId>((i * stride + salt + 1) % n), 1,
                  EdgeOp::kAdd});
  return ev;
}

TEST(Freshness, PublishRecordsOnlyTheBatchesItsWatermarkCovers) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(bfs_id, 0);
  serve::QueryService qs(engine, {.refresh_period_ms = 0});
  qs.serve(bfs_id, serve::ViewRole::kDistance);
  for (const EdgeEvent& e : ring_events(64, 3, 1)) engine.inject_edge(e);
  engine.drain();

  const std::uint64_t wm = engine.ingested_watermark();
  ASSERT_GT(wm, 0u);
  const std::uint64_t t0 = obs::monotonic_ns();
  qs.batch_admitted(wm, t0);        // the next publish covers it
  qs.batch_admitted(wm + 100, t0);  // needs 100 more events
  qs.refresh_all();
  serve::ServeStats st = qs.stats();
  EXPECT_EQ(st.freshness_samples, 1u);
  EXPECT_EQ(st.freshness_pending, 1u);
  EXPECT_LE(st.freshness_p99_ns, obs::monotonic_ns() - t0);

  // A publish short of the second stamp leaves it pending...
  qs.refresh_all();
  EXPECT_EQ(qs.stats().freshness_pending, 1u);
  // ...until the watermark reaches it.
  for (const EdgeEvent& e : ring_events(100, 5, 2)) engine.inject_edge(e);
  engine.drain();
  qs.refresh_all();
  st = qs.stats();
  EXPECT_EQ(st.freshness_samples, 2u);
  EXPECT_EQ(st.freshness_pending, 0u);
  EXPECT_EQ(st.freshness_dropped, 0u);
  EXPECT_LE(st.freshness_p50_ns, st.freshness_p99_ns);
}

TEST(Freshness, GateBatchesStayPendingUntilAPublish) {
  // No refresher: batches admit and drain, but nothing publishes, so they
  // stay pending — the service never invents a publish.
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(bfs_id, 0);
  serve::QueryService qs(engine, {.refresh_period_ms = 0});
  qs.serve(bfs_id, serve::ViewRole::kDistance);
  serve::WriteGate gate(
      engine, {.batch_limit = 64, .dispatch_threads = 2, .service = &qs});
  gate.submit_batch(ring_events(256, 3, 1));
  gate.flush();
  engine.drain();

  const std::uint64_t batches = gate.stats().batches;
  ASSERT_GT(batches, 0u);
  serve::ServeStats st = qs.stats();
  EXPECT_EQ(st.freshness_samples, 0u);
  EXPECT_EQ(st.freshness_pending, batches);
  // Nothing readable yet: Prometheus reports no percentile rather than 0.
  obs::GaugeSample sample = engine.sample_gauges();
  serve::fill_serving_gauges(sample, &qs, &gate);
  EXPECT_EQ(sample.to_prometheus().find("remo_freshness_"), std::string::npos);

  qs.refresh_all();
  st = qs.stats();
  EXPECT_EQ(st.freshness_samples, batches);
  EXPECT_EQ(st.freshness_pending, 0u);
  EXPECT_GT(st.freshness_p99_ns, 0u);
}

TEST(Freshness, ConcurrentSubmittersEveryBatchBecomesReadable) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(0);
  engine.inject_init(bfs_id, 0);
  serve::QueryService qs(engine, {.refresh_period_ms = 5});
  qs.serve(bfs_id, serve::ViewRole::kDistance);
  qs.start();
  serve::WriteGate gate(
      engine, {.batch_limit = 64, .dispatch_threads = 3, .service = &qs});

  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 12;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatchesPerWriter; ++b)
        gate.submit_batch(ring_events(
            200, static_cast<VertexId>(2 * w + 3),
            static_cast<std::uint64_t>(w * kBatchesPerWriter + b)));
    });
  }
  // A concurrent sampler imitating the metrics exporter.
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_acquire)) {
      obs::GaugeSample s = engine.sample_gauges();
      serve::fill_serving_gauges(s, &qs, &gate);
      EXPECT_TRUE(s.serving.present);
      EXPECT_LE(s.serving.freshness_samples, s.serving.gate_batches);
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  gate.flush();
  engine.drain();
  qs.refresh_all();  // covering publish: every admitted batch is readable
  sampling.store(false, std::memory_order_release);
  sampler.join();
  qs.stop();

  obs::GaugeSample last = engine.sample_gauges();
  serve::fill_serving_gauges(last, &qs, &gate);
  EXPECT_GT(last.serving.gate_batches, 0u);
  EXPECT_EQ(last.serving.freshness_samples, last.serving.gate_batches);
  EXPECT_EQ(last.serving.freshness_pending, 0u);
  EXPECT_EQ(last.serving.freshness_dropped, 0u);
  EXPECT_GT(last.serving.freshness_p99_ns, 0u);
  const std::string prom = last.to_prometheus();
  EXPECT_NE(prom.find("\nremo_freshness_p50_seconds "), std::string::npos);
  EXPECT_NE(prom.find("\nremo_freshness_p99_seconds "), std::string::npos);
}

TEST(Freshness, PendingOverflowIsCounted) {
  Engine engine(EngineConfig{.num_ranks = 2});
  auto [deg_id, deg] = engine.attach_make<DegreeTracker>();
  serve::QueryService qs(engine, {.refresh_period_ms = 0});
  qs.serve(deg_id, serve::ViewRole::kDegree);

  // Stamped one event beyond anything ingested: no publish covers these.
  const std::uint64_t wm = engine.ingested_watermark() + 1;
  constexpr std::size_t kCap = serve::QueryService::kMaxPendingBatches;
  for (std::size_t i = 0; i < kCap + 3; ++i)
    qs.batch_admitted(wm, obs::monotonic_ns());
  serve::ServeStats st = qs.stats();
  EXPECT_EQ(st.freshness_pending, kCap);
  EXPECT_EQ(st.freshness_dropped, 3u);
  EXPECT_EQ(st.freshness_samples, 0u);

  engine.inject_edge({1, 2, 1, EdgeOp::kAdd});
  engine.drain();
  qs.refresh_all();
  st = qs.stats();
  EXPECT_EQ(st.freshness_samples, kCap);
  EXPECT_EQ(st.freshness_pending, 0u);
  EXPECT_EQ(st.freshness_dropped, 3u);
}

}  // namespace
}  // namespace remo::test
