// Write-path span recorder: exemplar histograms, scripted batch
// timelines, watermark-based closing, sampling, overflow accounting, JSON
// round-trips, and the tail-attribution report (docs/OBSERVABILITY.md
// "Write-path spans").
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/span.hpp"

namespace remo::obs::test {
namespace {

// --- ExemplarHistogram ------------------------------------------------------

TEST(ExemplarHistogram, BucketKeepsLargestSampleAsExemplar) {
  ExemplarHistogram h;
  // Same log bucket (values this close share one), different traces.
  h.record(1000, TraceId{1});
  h.record(1010, TraceId{2});
  h.record(1005, TraceId{3});
  const ExemplarHistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.exemplars.size(), 1u);
  EXPECT_EQ(snap.exemplars[0].trace, TraceId{2});
  EXPECT_EQ(snap.exemplars[0].value_ns, 1010u);
  EXPECT_EQ(snap.hist.count, 3u);
}

TEST(ExemplarHistogram, TieKeepsEarliestTrace) {
  ExemplarHistogram h;
  h.record(500, TraceId{7});
  h.record(500, TraceId{8});
  const ExemplarHistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.exemplars.size(), 1u);
  EXPECT_EQ(snap.exemplars[0].trace, TraceId{7});
}

TEST(ExemplarHistogram, AtOrAboveSelectsTailBuckets) {
  ExemplarHistogram h;
  h.record(100, TraceId{1});
  h.record(10'000, TraceId{2});
  h.record(1'000'000, TraceId{3});
  const ExemplarHistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.exemplars.size(), 3u);
  const auto tail = snap.at_or_above(10'000);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].trace, TraceId{2});
  EXPECT_EQ(tail[1].trace, TraceId{3});
  // A threshold above everything selects nothing.
  EXPECT_TRUE(snap.at_or_above(std::uint64_t{1} << 62).empty());
}

TEST(ExemplarHistogram, PercentileMatchesPlainHistogram) {
  ExemplarHistogram h;
  LatencyHistogram plain;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.record(v * 37, static_cast<TraceId>(v));
    plain.record(v * 37);
  }
  EXPECT_EQ(h.percentile(50.0), plain.snapshot().p50());
  EXPECT_EQ(h.percentile(99.0), plain.snapshot().p99());
  EXPECT_EQ(h.count(), 1000u);
}

TEST(ExemplarHistogram, JsonRoundTrip) {
  ExemplarHistogram h;
  h.record(123, TraceId{1});
  h.record(456'789, TraceId{2});
  const ExemplarHistogramSnapshot snap = h.snapshot();
  std::string error;
  ExemplarHistogramSnapshot back;
  ASSERT_TRUE(
      ExemplarHistogramSnapshot::from_json(snap.to_json(), back, &error))
      << error;
  EXPECT_EQ(back.hist.count, snap.hist.count);
  EXPECT_EQ(back.hist.sum, snap.hist.sum);
  EXPECT_EQ(back.hist.min, snap.hist.min);
  EXPECT_EQ(back.hist.max, snap.hist.max);
  EXPECT_EQ(back.hist.p99(), snap.hist.p99());
  ASSERT_EQ(back.exemplars.size(), snap.exemplars.size());
  for (std::size_t i = 0; i < back.exemplars.size(); ++i) {
    EXPECT_EQ(back.exemplars[i].bucket, snap.exemplars[i].bucket);
    EXPECT_EQ(back.exemplars[i].trace, snap.exemplars[i].trace);
    EXPECT_EQ(back.exemplars[i].value_ns, snap.exemplars[i].value_ns);
  }
}

// --- SpanRecorder: scripted timelines --------------------------------------

TEST(SpanRecorder, FullLifecycleRecordsEveryStage) {
  SpanRecorder rec;
  // queued at 100, picked up at 150 -> kQueue = 50.
  const TraceId id = rec.begin_batch(100, 150);
  ASSERT_NE(id, 0u);
  rec.stage(id, WriteStage::kPartition, 10);
  rec.stage(id, WriteStage::kDispatch, 20);
  rec.stage(id, WriteStage::kInject, 30);
  rec.record_admitted(id, /*watermark=*/500, /*now_ns=*/210, /*events=*/64,
                      /*waves=*/3, /*serial_fallback=*/false);
  rec.on_epoch_drained(/*watermark=*/500, /*ns=*/300);
  rec.on_view_published(/*watermark=*/500, /*ns=*/320);

  const SpanSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.batches_sampled, 1u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.open, 0u);
  ASSERT_EQ(snap.spans.size(), 1u);
  const WriteSpan& s = snap.spans[0];
  EXPECT_EQ(s.id, id);
  EXPECT_EQ(s.queued_ns, 100u);
  EXPECT_EQ(s.begin_ns, 150u);
  EXPECT_EQ(s.admitted_ns, 210u);
  EXPECT_EQ(s.drained_ns, 300u);
  EXPECT_EQ(s.published_ns, 320u);
  EXPECT_EQ(s.events, 64u);
  EXPECT_EQ(s.waves, 3u);
  EXPECT_FALSE(s.serial_fallback);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kQueue)], 50u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kPartition)], 10u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kDispatch)], 20u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kInject)], 30u);
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kDrain)], 90u);    // 300-210
  EXPECT_EQ(s.stage_ns[static_cast<int>(WriteStage::kPublish)], 20u);  // 320-300
  EXPECT_EQ(s.total_ns, 220u);  // 320 - 100: write-to-readable freshness
  EXPECT_EQ(snap.freshness.hist.count, 1u);
  // Milestones are monotone by construction.
  EXPECT_LE(s.queued_ns, s.begin_ns);
  EXPECT_LE(s.begin_ns, s.admitted_ns);
  EXPECT_LE(s.admitted_ns, s.drained_ns);
  EXPECT_LE(s.drained_ns, s.published_ns);
}

TEST(SpanRecorder, PublishWithoutDrainChargesWaitToDrainStage) {
  SpanRecorder rec;
  const TraceId id = rec.begin_batch(0, 0);
  rec.record_admitted(id, 100, /*now_ns=*/10, 8, 1, false);
  // No epoch-drain notification: the covering publish closes the span and
  // the whole admitted->publish wait lands on kDrain.
  rec.on_view_published(/*watermark=*/100, /*ns=*/50);
  const SpanSnapshot snap = rec.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].stage_ns[static_cast<int>(WriteStage::kDrain)], 40u);
  EXPECT_EQ(snap.spans[0].stage_ns[static_cast<int>(WriteStage::kPublish)], 0u);
  EXPECT_EQ(snap.spans[0].total_ns, 50u);
}

TEST(SpanRecorder, WatermarkComparisonClosesOnlyCoveredSpans) {
  SpanRecorder rec;
  const TraceId a = rec.begin_batch(0, 0);
  rec.record_admitted(a, /*watermark=*/100, 10, 8, 1, false);
  const TraceId b = rec.begin_batch(0, 20);
  rec.record_admitted(b, /*watermark=*/200, 30, 8, 1, false);

  rec.on_view_published(/*watermark=*/150, /*ns=*/40);  // covers a, not b
  SpanCounts c = rec.counts();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.open, 1u);
  EXPECT_NE(rec.snapshot().find(a), nullptr);
  EXPECT_EQ(rec.snapshot().find(b), nullptr);  // still open

  rec.on_view_published(/*watermark=*/200, /*ns=*/60);
  c = rec.counts();
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.open, 0u);
  EXPECT_NE(rec.snapshot().find(b), nullptr);
}

TEST(SpanRecorder, UnadmittedSpansSurvivePublishes) {
  SpanRecorder rec;
  const TraceId id = rec.begin_batch(0, 0);
  ASSERT_NE(id, 0u);
  // Still mid-dispatch (no record_admitted): a publish must not close it.
  rec.on_view_published(~std::uint64_t{0}, 100);
  EXPECT_EQ(rec.counts().open, 1u);
  EXPECT_EQ(rec.counts().completed, 0u);
}

TEST(SpanRecorder, SamplingShiftSpansEveryNthBatch) {
  SpanRecorder rec({.sample_shift = 2});  // every 4th
  int sampled = 0;
  for (int i = 0; i < 16; ++i)
    if (rec.begin_batch(0, static_cast<std::uint64_t>(i)) != 0) ++sampled;
  EXPECT_EQ(sampled, 4);
  const SpanCounts c = rec.counts();
  EXPECT_EQ(c.batches_seen, 16u);
  EXPECT_EQ(c.batches_sampled, 4u);
}

TEST(SpanRecorder, OpenTableOverflowDropsAndCounts) {
  SpanRecorder rec({.max_open = 2});
  EXPECT_NE(rec.begin_batch(0, 0), 0u);
  EXPECT_NE(rec.begin_batch(0, 1), 0u);
  EXPECT_EQ(rec.begin_batch(0, 2), 0u);  // table full
  const SpanCounts c = rec.counts();
  EXPECT_EQ(c.open, 2u);
  EXPECT_EQ(c.dropped_open, 1u);
  // Zero-id calls are no-ops, not crashes.
  rec.stage(0, WriteStage::kInject, 5);
  rec.record_admitted(0, 1, 1, 1, 1, false);
}

TEST(SpanRecorder, HistoryRingEvictsOldestCompleted) {
  SpanRecorder rec({.history = 2});
  TraceId ids[3];
  for (int i = 0; i < 3; ++i) {
    ids[i] = rec.begin_batch(0, static_cast<std::uint64_t>(i));
    rec.record_admitted(ids[i], static_cast<std::uint64_t>(i + 1),
                        static_cast<std::uint64_t>(i), 1, 1, false);
    rec.on_view_published(static_cast<std::uint64_t>(i + 1),
                          static_cast<std::uint64_t>(10 + i));
  }
  const SpanSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.evicted, 1u);
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.find(ids[0]), nullptr);  // evicted
  EXPECT_NE(snap.find(ids[1]), nullptr);
  EXPECT_NE(snap.find(ids[2]), nullptr);
  // Freshness histogram keeps all three — eviction only affects resolution.
  EXPECT_EQ(snap.freshness.hist.count, 3u);
}

TEST(SpanRecorder, TraceIdsAreUniqueAndSpanOriginated) {
  // Every id comes from the recorder's own batch sequence: nonzero (0 means
  // "unsampled") and never repeated.
  SpanRecorder rec;
  std::vector<TraceId> ids;
  for (int i = 0; i < 100; ++i) {
    const TraceId id = rec.begin_batch(0, static_cast<std::uint64_t>(i));
    ASSERT_NE(id, 0u);
    for (const TraceId prev : ids) EXPECT_NE(id, prev);
    ids.push_back(id);
  }
}

TEST(SpanRecorder, SnapshotJsonRoundTrip) {
  SpanRecorder rec;
  for (int i = 0; i < 5; ++i) {
    const TraceId id = rec.begin_batch(static_cast<std::uint64_t>(i * 10),
                                       static_cast<std::uint64_t>(i * 10 + 5));
    rec.stage(id, WriteStage::kPartition, 3);
    rec.record_admitted(id, static_cast<std::uint64_t>((i + 1) * 100),
                        static_cast<std::uint64_t>(i * 10 + 9), 32, 2, i == 0);
  }
  rec.on_epoch_drained(500, 90);
  rec.on_view_published(500, 100);

  const SpanSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.completed, 5u);
  std::string error;
  SpanSnapshot back;
  ASSERT_TRUE(SpanSnapshot::from_json(snap.to_json(), back, &error)) << error;
  EXPECT_EQ(back.batches_seen, snap.batches_seen);
  EXPECT_EQ(back.batches_sampled, snap.batches_sampled);
  EXPECT_EQ(back.completed, snap.completed);
  EXPECT_EQ(back.open, snap.open);
  EXPECT_EQ(back.freshness.hist.count, snap.freshness.hist.count);
  EXPECT_EQ(back.freshness.hist.p99(), snap.freshness.hist.p99());
  ASSERT_EQ(back.spans.size(), snap.spans.size());
  for (std::size_t i = 0; i < back.spans.size(); ++i) {
    EXPECT_EQ(back.spans[i].id, snap.spans[i].id);
    EXPECT_EQ(back.spans[i].total_ns, snap.spans[i].total_ns);
    EXPECT_EQ(back.spans[i].stage_ns, snap.spans[i].stage_ns);
    EXPECT_EQ(back.spans[i].serial_fallback, snap.spans[i].serial_fallback);
  }
  for (std::size_t st = 0; st < kWriteStageCount; ++st)
    EXPECT_EQ(back.stages[st].hist.count, snap.stages[st].hist.count);
}

TEST(SpanRecorder, FromJsonRejectsWrongSchema) {
  Json doc = Json::object();
  doc["schema"] = std::string("remo-gauges-1");
  SpanSnapshot out;
  std::string error;
  EXPECT_FALSE(SpanSnapshot::from_json(doc, out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SpanRecorder, TraceTrackEmitsFlowChainPerCompletedSpan) {
  SpanRecorder rec;
  const TraceId id = rec.begin_batch(0, 10);
  rec.record_admitted(id, 100, 20, 8, 1, false);
  rec.on_epoch_drained(100, 30);
  rec.on_view_published(100, 40);
  const TraceTrack track = rec.trace_track(/*tid=*/9);
  EXPECT_EQ(track.tid, 9u);
  ASSERT_EQ(track.events.size(), 4u);
  EXPECT_STREQ(track.events[0].name, "wp:queue");
  EXPECT_STREQ(track.events[1].name, "wp:admit");
  EXPECT_STREQ(track.events[2].name, "wp:drain");
  EXPECT_STREQ(track.events[3].name, "wp:publish");
  for (const TraceEvent& e : track.events) {
    EXPECT_EQ(e.flow_id, id);
    EXPECT_NE(e.flow, FlowPhase::kNone);
  }
  EXPECT_EQ(track.events[0].flow, FlowPhase::kStart);
  EXPECT_EQ(track.events[3].flow, FlowPhase::kEnd);
}

// --- Tail report ------------------------------------------------------------

TEST(TailReport, AttributesStagesAndResolvesExemplars) {
  SpanRecorder rec;
  // 20 fast spans and one slow outlier dominated by drain.
  for (int i = 0; i < 20; ++i) {
    const TraceId id = rec.begin_batch(static_cast<std::uint64_t>(i * 1000),
                                       static_cast<std::uint64_t>(i * 1000 + 10));
    rec.stage(id, WriteStage::kPartition, 5);
    rec.stage(id, WriteStage::kInject, 20);
    rec.record_admitted(id, static_cast<std::uint64_t>(i + 1),
                        static_cast<std::uint64_t>(i * 1000 + 40), 16, 1,
                        false);
    rec.on_epoch_drained(static_cast<std::uint64_t>(i + 1),
                         static_cast<std::uint64_t>(i * 1000 + 60));
    rec.on_view_published(static_cast<std::uint64_t>(i + 1),
                          static_cast<std::uint64_t>(i * 1000 + 80));
  }
  const TraceId slow = rec.begin_batch(100'000, 100'010);
  rec.stage(slow, WriteStage::kPartition, 5);
  rec.record_admitted(slow, 1000, 100'040, 16, 1, false);
  rec.on_epoch_drained(1000, 1'100'000);  // ~1 ms drain
  rec.on_view_published(1000, 1'100'100);

  const SpanSnapshot snap = rec.snapshot();
  const std::string report = format_tail_report(snap, 99.0);
  // The per-stage table names every stage.
  for (std::size_t i = 0; i < kWriteStageCount; ++i)
    EXPECT_NE(report.find(write_stage_name(static_cast<WriteStage>(i))),
              std::string::npos)
        << report;
  // Drain dominates the tail, and the slow span's trace id appears as a
  // resolvable exemplar with its full breakdown.
  char idbuf[16];
  std::snprintf(idbuf, sizeof idbuf, "0x%08x", slow);
  EXPECT_NE(report.find(idbuf), std::string::npos) << report;
  EXPECT_NE(report.find("drain"), std::string::npos);
  EXPECT_NE(report.find("exemplars"), std::string::npos);
}

TEST(TailReport, EmptySnapshotDoesNotCrash) {
  const SpanSnapshot snap;
  const std::string report = format_tail_report(snap);
  EXPECT_NE(report.find("0 batches"), std::string::npos) << report;
}

}  // namespace
}  // namespace remo::obs::test
