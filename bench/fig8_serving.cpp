// Figure 8 (serving extension, docs/SERVING.md) — mixed read/write plane:
// concurrent point queries answered from epoch-consistent views while a
// live RMAT ingest runs underneath. Reported shapes:
//   * query p50/p99 latency (pinned-view reads are RobinHood lookups, so
//     both should sit far below the refresh period);
//   * sustained update throughput with readers attached vs the no-reader
//     baseline (the "gates.throughput_ratio" — CI asserts >= the floor);
//   * WriteGate admission as a third row: conflict-scheduled concurrent
//     submission with wave-occupancy stats.
//
// Extra env knobs (on top of bench_util's):
//   REMO_SERVE_QUERIES     queries to issue per repeat (default 1,000,000)
//   REMO_SERVE_READERS     reader thread count (default 2)
//   REMO_SERVE_SCALE       RMAT scale (default 15, shifted by REMO_BENCH_SCALE)
//   REMO_SERVE_REFRESH_MS  view refresh cadence (default 50 — on a host
//                          where ranks and the refresher share cores, a
//                          cadence shorter than a versioned cut keeps a
//                          cut permanently in flight and taxes ingest)
//   REMO_SERVE_SPANS       1 (default) records a write-path span per gate
//                          batch in phase C; 0 disables the recorder (the
//                          A/B overhead baseline)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.hpp"

using namespace remo;
using namespace remo::bench;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  return s && *s ? std::strtoull(s, nullptr, 10) : fallback;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ServeSetup {
  ProgramId bfs_id{}, cc_id{}, deg_id{};
  VertexId source = 0;
};

/// Attach the three served programs (BFS + CC + degree) and init the BFS.
ServeSetup attach_served(Engine& engine, const Dataset& data) {
  ServeSetup s;
  // Highest-degree vertex: cheap and guaranteed inside the giant component.
  RobinHoodMap<VertexId, std::uint64_t> degree;
  for (const Edge& e : data.edges) {
    ++degree.get_or_insert(e.src);
    ++degree.get_or_insert(e.dst);
  }
  std::uint64_t best = 0;
  degree.for_each([&](const VertexId& v, std::uint64_t& d) {
    if (d > best) {
      best = d;
      s.source = v;
    }
  });
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(s.source);
  auto [cc_id, cc] = engine.attach_make<DynamicCc>();
  auto [deg_id, deg] = engine.attach_make<DegreeTracker>();
  s.bfs_id = bfs_id;
  s.cc_id = cc_id;
  s.deg_id = deg_id;
  engine.inject_init(bfs_id, s.source);
  return s;
}

}  // namespace

int main() {
  const int repeats = repeats_from_env();
  const RankId ranks = ranks_from_env({2}).front();
  const std::uint64_t query_target = env_u64("REMO_SERVE_QUERIES", 1'000'000);
  const std::uint64_t reader_count = env_u64("REMO_SERVE_READERS", 2);
  const std::uint64_t refresh_ms = env_u64("REMO_SERVE_REFRESH_MS", 50);
  const auto scale = static_cast<std::uint32_t>(std::max<std::int64_t>(
      8, static_cast<std::int64_t>(env_u64("REMO_SERVE_SCALE", 15)) +
             bench_scale_from_env().scale_shift));
  const Dataset data = make_rmat(scale);
  const std::uint64_t num_vertices = distinct_vertices(data.edges);

  print_banner(
      "Figure 8 — live query serving under ingest",
      strfmt("rmat-%u (|E|=%s), %llu queries, %llu readers, %u ranks",
             scale, with_commas(data.edges.size()).c_str(),
             static_cast<unsigned long long>(query_target),
             static_cast<unsigned long long>(reader_count), ranks));

  BenchReport report("fig8_serving", "Live query serving under ingest");
  report.doc()["config"] = comm_config_json();
  report.doc()["config"]["queries"] = query_target;
  report.doc()["config"]["readers"] = reader_count;
  report.doc()["config"]["scale"] = scale;
  report.doc()["config"]["refresh_ms"] = refresh_ms;

  // --- Phase A: no-reader baseline update throughput --------------------
  const SaturationResult base = measure_saturation(
      data.edges, ranks, repeats,
      [&](Engine& engine) { attach_served(engine, data); });
  std::printf("baseline ingest (no readers): %s events/s\n",
              rate(base.events_per_second).c_str());
  {
    Json row = run_row(data.name, ranks, base.events, base.seconds,
                       base.events_per_second);
    row["mode"] = "baseline";
    for (const auto& [k, v] : base.obs.members()) row[k] = v;
    report.add_run(std::move(row));
  }

  // --- Phase B: mixed read/write ----------------------------------------
  // Same mean-over-repeats convention as measure_saturation: on an
  // oversubscribed host a single run's ratio is dominated by scheduler
  // noise, so one fresh engine + reader fleet per repeat, rates averaged,
  // query latency histograms merged across all repeats.
  obs::HistogramSnapshot lat;
  std::vector<double> mixed_rates, mixed_secs;
  std::uint64_t mixed_events = 0;
  serve::ServeStats sstats;
  obs::GaugeSample gauges;
  Json mixed_obs = Json::object();
  for (int rep = 0; rep < repeats; ++rep) {
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    apply_obs_env(cfg);
    apply_comm_env(cfg);
    Engine engine(cfg);
    const ServeSetup setup = attach_served(engine, data);

    serve::QueryService qs(
        engine, {.refresh_period_ms = static_cast<std::uint32_t>(refresh_ms),
                 .top_k = 16});
    qs.serve(setup.bfs_id, serve::ViewRole::kDistance);
    qs.serve(setup.cc_id, serve::ViewRole::kComponent);
    qs.serve(setup.deg_id, serve::ViewRole::kDegree);
    qs.start();

    std::atomic<bool> ingest_running{true};
    std::atomic<std::uint64_t> issued{0};
    std::vector<obs::LatencyHistogram> hists(reader_count);
    std::vector<std::thread> readers;
    for (std::uint64_t t = 0; t < reader_count; ++t) {
      readers.emplace_back([&, t] {
        Xoshiro256 rng(0xf1885e41ULL + t * 977 +
                       static_cast<std::uint64_t>(rep));
        obs::LatencyHistogram& hist = hists[t];
        for (;;) {
          // Paced bursts while ingest runs (readers must not starve the
          // rank threads — the throughput gate measures ingest with this
          // load); full speed once ingest is done, to drain the quota.
          // Large bursts at a long period rather than tiny ones at a short
          // period: per-query cost is ~0.2 us, so the tax on the rank
          // threads is wakeup preemptions, not query work.
          const bool live = ingest_running.load(std::memory_order_acquire);
          const std::uint64_t burst = live ? 256 : 4096;
          const std::uint64_t begin = issued.fetch_add(burst);
          if (begin >= query_target) break;
          const std::uint64_t end = std::min(begin + burst, query_target);
          for (std::uint64_t q = begin; q < end; ++q) {
            const auto u = static_cast<VertexId>(rng.bounded(num_vertices));
            const auto v = static_cast<VertexId>(rng.bounded(num_vertices));
            const auto t0 = std::chrono::steady_clock::now();
            const std::uint64_t kind = rng.bounded(100);
            if (kind < 40) {
              (void)qs.distance(setup.bfs_id, u);
            } else if (kind < 60) {
              (void)qs.component_of(setup.cc_id, u);
            } else if (kind < 80) {
              (void)qs.connected(setup.cc_id, u, v);
            } else if (kind < 90) {
              (void)qs.reachable(setup.bfs_id, u);
            } else {
              (void)qs.top_k_degree(setup.deg_id, 8);
            }
            hist.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
          }
          if (live) std::this_thread::sleep_for(std::chrono::milliseconds(8));
        }
      });
    }

    const StreamSet streams = make_streams(
        data.edges, ranks,
        StreamOptions{.seed = 7 + static_cast<std::uint64_t>(rep)});
    const IngestStats mixed = engine.ingest(streams);
    ingest_running.store(false, std::memory_order_release);
    for (auto& r : readers) r.join();
    qs.stop();
    qs.refresh_all();

    for (auto& h : hists) lat.merge(h.snapshot());
    mixed_rates.push_back(mixed.events_per_second);
    mixed_secs.push_back(mixed.seconds);
    mixed_events = mixed.events;
    sstats = qs.stats();
    if (rep == repeats - 1) {
      gauges = engine.sample_gauges();
      mixed_obs = engine_obs_json(engine);
    }
  }

  const double mixed_eps = mean(mixed_rates);
  const double p50_us = static_cast<double>(lat.p50()) / 1e3;
  const double p99_us = static_cast<double>(lat.p99()) / 1e3;
  const double ratio =
      base.events_per_second > 0 ? mixed_eps / base.events_per_second : 0.0;

  std::printf("mixed ingest (with readers):  %s events/s (ratio %.2f)\n",
              rate(mixed_eps).c_str(), ratio);
  std::printf("queries: %s served, p50 %.1f us, p99 %.1f us\n",
              with_commas(lat.count).c_str(), p50_us, p99_us);
  std::printf("views: %llu refreshes/repeat, read-epoch lag %llu events\n",
              static_cast<unsigned long long>(sstats.refreshes),
              static_cast<unsigned long long>(sstats.read_epoch_lag_events));

  {
    Json row = run_row(data.name, ranks, mixed_events, mean(mixed_secs),
                       mixed_eps);
    row["mode"] = "mixed";
    row["queries"] = lat.count;
    row["query_p50_us"] = p50_us;
    row["query_p99_us"] = p99_us;
    row["reader_threads"] = reader_count;
    row["throughput_ratio"] = ratio;
    row["serve"] = sstats.to_json();
    for (const auto& [k, v] : mixed_obs.members()) row[k] = v;
    report.add_run(std::move(row));
  }

  // --- Phase C: conflict-scheduled gate admission with write-path spans --
  // A full serving plane this time (gate + periodic view publisher), so
  // every admitted batch's span can close at its covering publish and the
  // report carries a write-to-readable freshness distribution. Updates are
  // submitted in gate-batch-sized chunks — a streaming client, not one
  // giant enqueue — so queue time reflects admission, not the benchmark's
  // own backlog. REMO_SERVE_SPANS=0 turns the recorder off; the A/B pair
  // (bench/results/BENCH_fig8_spans_{off,on}.json) holds tracing overhead
  // to the <= 3% budget documented in docs/OBSERVABILITY.md.
  const bool spans_on = env_u64("REMO_SERVE_SPANS", 1) != 0;
  std::vector<double> gate_rates, gate_walls;
  std::uint64_t gate_events = 0;
  obs::SpanCounts span_counts{};
  Json gate_stats_json = Json::object();
  Json spans_json = Json::object();
  for (int rep = 0; rep < repeats; ++rep) {
    EngineConfig gcfg;
    gcfg.num_ranks = ranks;
    apply_comm_env(gcfg);
    Engine gengine(gcfg);
    const ServeSetup gsetup = attach_served(gengine, data);

    obs::SpanRecorder rec({.sample_shift = 0});
    obs::SpanRecorder* spans = spans_on ? &rec : nullptr;
    serve::QueryService gqs(
        gengine, {.refresh_period_ms = static_cast<std::uint32_t>(refresh_ms),
                  .top_k = 16,
                  .spans = spans});
    gqs.serve(gsetup.bfs_id, serve::ViewRole::kDistance);
    gqs.serve(gsetup.cc_id, serve::ViewRole::kComponent);
    gqs.serve(gsetup.deg_id, serve::ViewRole::kDegree);
    gqs.start();

    constexpr std::size_t kChunk = 4096;
    serve::WriteGate gate(gengine, {.batch_limit = kChunk,
                                    .dispatch_threads = 2,
                                    .spans = spans});
    std::vector<EdgeEvent> events;
    events.reserve(data.edges.size());
    for (const Edge& e : data.edges)
      events.push_back({e.src, e.dst, e.weight, EdgeOp::kAdd});
    const double t0 = now_s();
    for (std::size_t i = 0; i < events.size(); i += kChunk) {
      const std::size_t n = std::min(kChunk, events.size() - i);
      gate.submit_batch({events.begin() + static_cast<std::ptrdiff_t>(i),
                         events.begin() + static_cast<std::ptrdiff_t>(i + n)});
    }
    gate.flush();
    gengine.drain();
    const double secs = now_s() - t0;
    gqs.refresh_all();  // covering publish: closes every remaining span
    gqs.stop();
    gate_events = events.size();
    gate_walls.push_back(secs);
    gate_rates.push_back(
        secs > 0 ? static_cast<double>(events.size()) / secs : 0.0);
    if (rep != repeats - 1) continue;

    // Last repeat's structured detail goes into the report row; rates are
    // averaged across all repeats.
    gate_stats_json = gate.stats().to_json();
    const serve::WriteGateStats gst = gate.stats();
    std::printf(
        "gate ingest: %s events/s — %llu waves (%llu parallel, %llu "
        "fallback), occupancy %.1f\n",
        rate(mean(gate_rates)).c_str(),
        static_cast<unsigned long long>(gst.waves),
        static_cast<unsigned long long>(gst.parallel_waves),
        static_cast<unsigned long long>(gst.serial_fallback_batches),
        gst.mean_wave_occupancy);
    if (spans_on) {
      span_counts = rec.counts();
      std::printf(
          "spans: %llu/%llu closed — write-to-readable p50 %.1f ms, p99 "
          "%.1f ms\n",
          static_cast<unsigned long long>(span_counts.completed),
          static_cast<unsigned long long>(span_counts.batches_sampled),
          static_cast<double>(span_counts.freshness_p50_ns) / 1e6,
          static_cast<double>(span_counts.freshness_p99_ns) / 1e6);
      const obs::SpanSnapshot sn = rec.snapshot();
      Json sp = Json::object();
      sp["sampled"] = sn.batches_sampled;
      sp["completed"] = sn.completed;
      sp["open"] = sn.open;
      sp["dropped"] = sn.dropped_open;
      sp["freshness_p50_ms"] =
          static_cast<double>(sn.freshness.hist.p50()) / 1e6;
      sp["freshness_p99_ms"] =
          static_cast<double>(sn.freshness.hist.p99()) / 1e6;
      Json stages = Json::object();
      for (std::size_t i = 0; i < obs::kWriteStageCount; ++i) {
        Json e = Json::object();
        e["p50_ms"] = static_cast<double>(sn.stages[i].hist.p50()) / 1e6;
        e["p99_ms"] = static_cast<double>(sn.stages[i].hist.p99()) / 1e6;
        stages[obs::write_stage_name(static_cast<obs::WriteStage>(i))] = e;
      }
      sp["stages"] = stages;
      spans_json = std::move(sp);
    }
  }
  const double gate_eps = mean(gate_rates);
  {
    Json row = run_row(data.name, ranks, gate_events, mean(gate_walls),
                       gate_eps);
    row["mode"] = "gate";
    row["gate"] = gate_stats_json;
    row["spans_enabled"] = spans_on;
    if (spans_on) row["spans"] = spans_json;
    report.add_run(std::move(row));
  }

  // --- Embedded acceptance gates (CI's serving-smoke job asserts these) --
  // Freshness budget: under a saturating phase-C ingest, epoch cuts can
  // stay in flight as long as the rank backlog keeps refilling, so the
  // worst batch's write-to-readable time is bounded by the phase wall
  // itself, plus refresh-relative slack for the closing publishes. The
  // gate therefore asserts "no span outlived the workload that produced
  // it" — a leaked span or a stalled publisher blows straight past it —
  // rather than an absolute number a loaded CI host can't honour.
  // Span counts come from the last repeat, so the limit uses that
  // repeat's wall time.
  const double freshness_limit_ms =
      (gate_walls.empty() ? 0.0 : gate_walls.back()) * 1000.0 +
      static_cast<double>(refresh_ms) * 20.0 + 2000.0;
  Json gates = Json::object();
  gates["query_p99_ms"] = p99_us / 1e3;
  gates["query_p99_ms_limit"] = 20.0;
  gates["throughput_ratio"] = ratio;
  gates["throughput_ratio_min"] = 0.85;
  gates["queries_total"] = lat.count;
  gates["convergence_lag_events"] = gauges.convergence_lag_events;
  bool pass = p99_us / 1e3 <= 20.0 && ratio >= 0.85 &&
              gauges.convergence_lag_events == 0;
  gates["spans_enabled"] = spans_on;
  if (spans_on) {
    const double fresh_p50_ms =
        static_cast<double>(span_counts.freshness_p50_ns) / 1e6;
    const double fresh_p99_ms =
        static_cast<double>(span_counts.freshness_p99_ns) / 1e6;
    gates["freshness_p50_ms"] = fresh_p50_ms;
    gates["freshness_p99_ms"] = fresh_p99_ms;
    gates["freshness_p99_ms_limit"] = freshness_limit_ms;
    gates["spans_sampled"] = span_counts.batches_sampled;
    gates["spans_completed"] = span_counts.completed;
    gates["spans_open"] = span_counts.open;
    gates["spans_dropped"] = span_counts.dropped_open;
    const bool spans_ok = span_counts.batches_sampled > 0 &&
                          span_counts.completed == span_counts.batches_sampled &&
                          span_counts.open == 0 && span_counts.dropped_open == 0;
    gates["spans_complete"] = spans_ok;
    pass = pass && spans_ok && fresh_p99_ms <= freshness_limit_ms;
  }
  gates["pass"] = pass;
  report.set("gates", std::move(gates));
  report.write();
  return 0;
}
