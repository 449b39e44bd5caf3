// remo — command line front end.
//
//   remo generate --kind rmat --scale 16 --out graph.bin [--seed 1]
//   remo stats    --graph graph.bin
//   remo ingest   --graph graph.bin [--ranks 4] [--streams 4]
//                 [--algo none|bfs|sssp|cc|st|degree|wsssp|pagerank] [--source V]
//                 [--weights MAX] [--snapshot out.txt] [--safra]
//   remo serve    --graph graph.bin [--queries N] [--query-threads T]
//                 [--refresh-ms MS] [--gate] [--spans] [--stats-json FILE]
//   remo bench-compare A.json B.json [--gate METRIC=PCT] [--force]
//
// Files ending in .txt use the text edge format; everything else the
// packed binary format (src u64, dst u64, weight u32).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "remo/remo.hpp"

using namespace remo;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& name) const { return kv.count("--" + name) != 0; }
  std::string str(const std::string& name, const std::string& dflt = "") const {
    auto it = kv.find("--" + name);
    return it == kv.end() ? dflt : it->second;
  }
  std::uint64_t num(const std::string& name, std::uint64_t dflt) const {
    auto it = kv.find("--" + name);
    return it == kv.end() ? dflt : std::strtoull(it->second.c_str(), nullptr, 10);
  }
};

Args parse(int argc, char** argv) {
  Args a;
  if (argc >= 2) a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    // A lone "-" is a value (stdout for --metrics-out), not an option.
    const bool next_is_value =
        i + 1 < argc &&
        (argv[i + 1][0] != '-' || std::strcmp(argv[i + 1], "-") == 0);
    if (key.rfind("--", 0) == 0 && next_is_value) {
      a.kv[key] = argv[++i];
    } else {
      a.kv[key] = "1";  // bare flag
    }
  }
  return a;
}

bool is_text(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".txt") == 0;
}

EdgeList load(const std::string& path) {
  return is_text(path) ? read_edges_text(path) : read_edges_binary(path);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  remo generate --kind rmat|er|ba --scale N --out FILE [--seed S]\n"
               "  remo stats    --graph FILE\n"
               "  remo ingest   --graph FILE [--ranks N] [--streams N]\n"
               "                [--algo none|bfs|sssp|cc|st|degree|wsssp|pagerank] [--source V]\n"
               "                [--tolerance X] [--weights MAX] [--snapshot OUT.txt] [--safra]\n"
               "                [--batch-size N] [--no-coalesce]\n"
               "                [--stats] [--stats-json FILE] [--trace FILE]\n"
               "                [--latency-sample SHIFT]\n"
               "                [--lineage] [--lineage-out FILE] [--lineage-sample SHIFT]\n"
               "                [--watch] [--metrics-out FILE] [--metrics-period MS]\n"
               "                [--metrics-format jsonl|prom] [--watchdog]\n"
               "                [--prof] [--prof-out FILE] [--prof-shift N]\n"
               "                [--prof-backend auto|perf|perf_event|rusage|noop|none]\n"
               "                [--folded FILE] [--prof-period-us US]\n"
               "  remo serve    --graph FILE [--ranks N] [--streams N] [--source V]\n"
               "                [--queries N] [--query-threads T] [--refresh-ms MS]\n"
               "                [--top-k K] [--safra] [--seed S]\n"
               "                [--gate] [--gate-batch N] [--gate-threads T]\n"
               "                [--spans] [--spans-out FILE] [--span-sample SHIFT]\n"
               "                [--stats-json FILE] [--trace FILE]\n"
               "                [--metrics-out FILE] [--metrics-period MS]\n"
               "                [--metrics-format jsonl|prom]\n"
               "                [--prof] [--prof-out FILE] [--prof-shift N]\n"
               "                [--prof-backend auto|perf|perf_event|rusage|noop|none]\n"
               "                [--folded FILE] [--prof-period-us US]\n"
               "  remo trace-analyze --lineage FILE [--top K] [--min-descendants N]\n"
               "  remo trace-analyze --spans FILE [--tail] [--tail-pct P]\n"
               "                     [--require-complete]\n"
               "  remo trace-analyze --prof FILE [--spans FILE]\n"
               "  remo bench-compare A.json B.json [--gate METRIC=PCT]\n"
               "                     [--gate-pct PCT] [--force]\n"
               "  remo fuzz       [--seeds N] [--seed-base S] [--vertices N]\n"
               "                  [--events N] [--deletes PERMILLE] [--max-weight W]\n"
               "                  [--mutations PERMILLE] [--algo NAME]\n"
               "                  [--out-dir DIR] [--keep-going] [--no-shrink]\n"
               "                  [--shrink-runs N] [--query-observer]\n"
               "  remo fuzz-repro --file FILE [--shrink] [--out FILE]\n"
               "                  [--query-observer]\n"
               "\n"
               "differential fuzzing (docs/TESTING.md):\n"
               "  fuzz               run N seeded cases across the algorithm x\n"
               "                     ranks x detector matrix, diffing converged\n"
               "                     state against the static oracles; exit 1 and\n"
               "                     drop a remo-repro-1 file in --out-dir\n"
               "                     (default fuzz-out/) on any divergence\n"
               "  fuzz-repro         replay one repro file byte-for-byte; with\n"
               "                     --shrink, minimise it first and write the\n"
               "                     result to --out (default FILE.min)\n"
               "\n"
               "query serving (docs/SERVING.md):\n"
               "  serve              ingest FILE live while T reader threads issue\n"
               "                     N point queries (distance, component, s-t\n"
               "                     reachability, top-k degree) against\n"
               "                     epoch-consistent views; prints query p50/p99\n"
               "                     and the sustained update throughput\n"
               "  --refresh-ms MS    longest gap between view publishes (default\n"
               "                     50); writes publish as soon as the engine is\n"
               "                     idle and the refresher's pacing allows\n"
               "  --gate             admit updates through the conflict-scheduled\n"
               "                     WriteGate (parallel injection of\n"
               "                     disjoint-target waves) instead of streams\n"
               "  --spans            trace every admitted batch end-to-end through\n"
               "                     the write path (needs --gate); prints the\n"
               "                     write-to-readable freshness p50/p99\n"
               "  --spans-out FILE   write completed spans + per-stage histograms\n"
               "                     with exemplars (remo-spans-1 JSON; implies\n"
               "                     --spans); feed to trace-analyze --spans\n"
               "  --span-sample N    span every 2^N-th batch (default 0 = all)\n"
               "  --query-observer   (fuzz / fuzz-repro) serve every case while it\n"
               "                     ingests and repairs, with a query-issuing\n"
               "                     observer; then diff the view published at\n"
               "                     quiescence against the oracle too; repros\n"
               "                     found this way record it and replay with it\n"
               "                     (docs/TESTING.md)\n"
               "\n"
               "observability (docs/OBSERVABILITY.md):\n"
               "  --stats            print counters, latency percentiles, phase times\n"
               "  --stats-json FILE  write the same as JSON (schema remo-stats-1)\n"
               "  --trace FILE       capture a chrome://tracing / Perfetto trace\n"
               "  --latency-sample N time every 2^N-th update (default 6; 0 = all)\n"
               "\n"
               "causal lineage (docs/OBSERVABILITY.md \"Causal lineage\"):\n"
               "  --lineage          trace sampled updates' propagation cascades\n"
               "  --lineage-out FILE write the merged lineage (remo-lineage-1 JSON;\n"
               "                     implies --lineage)\n"
               "  --lineage-sample N stamp every 2^N-th topology event (default 6)\n"
               "  trace-analyze      read a lineage dump; print amplification stats\n"
               "                     and the top-K most expensive updates with their\n"
               "                     critical paths; exit 1 when any sampled cause\n"
               "                     spawned fewer than --min-descendants visitors\n"
               "\n"
               "write-path spans (docs/OBSERVABILITY.md \"Write-path spans\"):\n"
               "  trace-analyze --spans FILE\n"
               "                     read a remo-spans-1 dump; print the freshness\n"
               "                     percentiles. With --tail, attribute latency at\n"
               "                     --tail-pct (default 99) across the six write\n"
               "                     stages and list exemplar trace IDs; with\n"
               "                     --require-complete, exit 1 if any sampled span\n"
               "                     never closed\n"
               "\n"
               "message path (DESIGN.md §6):\n"
               "  --batch-size N     per-destination send-buffer batch (default 128)\n"
               "  --no-coalesce      deliver every Update visitor verbatim instead\n"
               "                     of merging same-sender monotone updates\n"
               "\n"
               "hardware counters (docs/OBSERVABILITY.md \"Profiling\"):\n"
               "  --prof             open per-rank counter groups (cycles, instr,\n"
               "                     LLC loads/misses, branch misses, stalls,\n"
               "                     dTLB loads/misses, page faults) and\n"
               "                     attribute them to engine phases; prints the\n"
               "                     per-rank x per-phase IPC / miss-rate table\n"
               "  --prof-out FILE    write the remo-prof-1 JSON snapshot (feed to\n"
               "                     trace-analyze --prof)\n"
               "  --prof-shift N     read counters every 2^N-th phase boundary\n"
               "                     (default 4)\n"
               "  --prof-backend B   accepted values: auto (default; tries\n"
               "                     perf_event, falls back to rusage, then noop),\n"
               "                     perf or perf_event (force hardware counters),\n"
               "                     rusage (task clock + minor/major faults via\n"
               "                     getrusage), noop or none (disable reads)\n"
               "  --folded FILE      sampled on-CPU profile as folded stacks\n"
               "                     (flamegraph.pl compatible)\n"
               "  --prof-period-us U stack sampling period (default 1000)\n"
               "  trace-analyze --prof FILE [--spans FILE]\n"
               "                     re-print a prof dump's attribution tables;\n"
               "                     with --spans, join phase counters against the\n"
               "                     write-path stage percentiles\n"
               "  bench-compare      diff two remo-bench-1 reports metric-by-metric\n"
               "                     with %% deltas; exit 1 when a gated metric\n"
               "                     (default: events_per_second at 3%%) regresses;\n"
               "                     refuses differing config blocks unless --force\n"
               "\n"
               "live telemetry (sampled every --metrics-period ms, default 100):\n"
               "  --watch            refreshing one-line-per-rank live view of the\n"
               "                     watermarks, queue depths, and convergence lag\n"
               "  --metrics-out FILE periodic exporter; '-' streams JSONL to stdout\n"
               "  --metrics-format   jsonl (default; schema remo-gauges-1) or prom\n"
               "                     (Prometheus text, file rewritten atomically)\n"
               "  --watchdog         flag ranks with backlog but no progress for 3\n"
               "                     periods; diagnostic dump goes to stderr\n");
  return 2;
}

int cmd_generate(const Args& a) {
  const std::string kind = a.str("kind", "rmat");
  const auto scale = static_cast<std::uint32_t>(a.num("scale", 16));
  const std::uint64_t seed = a.num("seed", 1);
  const std::string out = a.str("out");
  if (out.empty()) return usage();

  EdgeList edges;
  if (kind == "rmat") {
    RmatParams p;
    p.scale = scale;
    p.seed = seed;
    edges = generate_rmat(p);
  } else if (kind == "er") {
    ErdosRenyiParams p;
    p.num_vertices = std::uint64_t{1} << scale;
    p.num_edges = p.num_vertices * 16;
    p.seed = seed;
    edges = generate_erdos_renyi(p);
  } else if (kind == "ba") {
    PrefAttachParams p;
    p.num_vertices = std::uint64_t{1} << scale;
    p.edges_per_vertex = 16;
    p.seed = seed;
    edges = generate_pref_attach(p);
  } else {
    return usage();
  }

  if (is_text(out))
    write_edges_text(out, edges);
  else
    write_edges_binary(out, edges);
  std::printf("wrote %s edges to %s\n", with_commas(edges.size()).c_str(),
              out.c_str());
  return 0;
}

int cmd_stats(const Args& a) {
  const std::string path = a.str("graph");
  if (path.empty()) return usage();
  const EdgeList edges = load(path);
  RobinHoodMap<VertexId, std::uint64_t> degree;
  for (const Edge& e : edges) {
    ++degree.get_or_insert(e.src);
    ++degree.get_or_insert(e.dst);
  }
  std::uint64_t max_deg = 0;
  degree.for_each([&](const VertexId&, std::uint64_t& d) {
    if (d > max_deg) max_deg = d;
  });
  const CsrGraph g = CsrGraph::build(with_reverse_edges(edges));
  std::printf("edges (directed):    %s\n", with_commas(edges.size()).c_str());
  std::printf("vertices:            %s\n", with_commas(degree.size()).c_str());
  std::printf("max degree:          %s\n", with_commas(max_deg).c_str());
  std::printf("connected components:%s\n",
              with_commas(static_cc_count(g)).c_str());
  return 0;
}

// --- Hardware-counter profiling (docs/OBSERVABILITY.md "Profiling") --------

/// Fold the --prof* flags into the engine config. Asking for any prof
/// output implies --prof.
void apply_prof_args(const Args& a, EngineConfig& cfg) {
  const bool want = a.flag("prof") || !a.str("prof-out").empty() ||
                    !a.str("folded").empty();
  if (!want) return;
  cfg.obs.prof = true;
  cfg.obs.prof_sample_shift = static_cast<std::uint32_t>(
      a.num("prof-shift", cfg.obs.prof_sample_shift));
  const std::string backend = a.str("prof-backend", "auto");
  if (backend == "perf" || backend == "perf_event")
    cfg.obs.prof_backend = obs::ProfBackendKind::kPerfEvent;
  else if (backend == "rusage")
    cfg.obs.prof_backend = obs::ProfBackendKind::kRusage;
  else if (backend == "noop" || backend == "none")
    cfg.obs.prof_backend = obs::ProfBackendKind::kNoop;
  if (!a.str("folded").empty()) {
    cfg.obs.prof_stacks = true;
    cfg.obs.prof_stack_period_us = static_cast<std::uint32_t>(
        a.num("prof-period-us", cfg.obs.prof_stack_period_us));
  }
}

/// Print the attribution tables and write the requested artefacts after a
/// run. Returns nonzero only on a write failure (degraded backends print a
/// banner but exit clean — CI containers without perf access must pass).
int report_prof(const Args& a, Engine& engine) {
  if (!engine.prof_enabled()) return 0;
  std::fputs(obs::format_prof_report(engine.prof_snapshot()).c_str(), stdout);
  if (const std::string out = a.str("prof-out"); !out.empty()) {
    if (!engine.write_prof(out)) {
      std::fprintf(stderr, "failed to write prof counters to %s\n", out.c_str());
      return 1;
    }
    std::printf("prof counters written to %s (analyze with `remo "
                "trace-analyze --prof %s`)\n", out.c_str(), out.c_str());
  }
  if (const std::string folded = a.str("folded"); !folded.empty()) {
    if (!obs::StackSampler::supported() || engine.stack_sampler() == nullptr) {
      std::fprintf(stderr,
                   "stack sampling unavailable on this platform; no folded "
                   "output written\n");
    } else if (!engine.write_folded(folded)) {
      std::fprintf(stderr, "failed to write folded stacks to %s\n",
                   folded.c_str());
      return 1;
    } else {
      std::printf("folded stacks written to %s (flamegraph.pl %s > prof.svg)\n",
                  folded.c_str(), folded.c_str());
    }
  }
  return 0;
}

int cmd_ingest(const Args& a) {
  const std::string path = a.str("graph");
  if (path.empty()) return usage();
  const EdgeList edges = load(path);

  EngineConfig cfg;
  cfg.num_ranks = static_cast<RankId>(a.num("ranks", 4));
  if (a.flag("safra")) cfg.termination = TerminationMode::kSafra;
  cfg.batch_size = static_cast<std::size_t>(a.num("batch-size", cfg.batch_size));
  if (a.flag("no-coalesce")) cfg.coalesce = false;

  const bool want_stats = a.flag("stats");
  const std::string stats_json = a.str("stats-json");
  const std::string trace_path = a.str("trace");
  cfg.obs.trace = !trace_path.empty();
  cfg.obs.latency_sample_shift = static_cast<std::uint32_t>(
      a.num("latency-sample", cfg.obs.latency_sample_shift));
  const std::string lineage_out = a.str("lineage-out");
  cfg.obs.lineage = a.flag("lineage") || !lineage_out.empty();
  cfg.obs.lineage_sample_shift = static_cast<std::uint32_t>(
      a.num("lineage-sample", cfg.obs.lineage_sample_shift));
  apply_prof_args(a, cfg);
  Engine engine(cfg);

  const std::string algo = a.str("algo", "none");
  const VertexId source = a.num("source", edges.empty() ? 0 : edges.front().src);
  ProgramId prog_id = 0;
  bool have_program = true;
  if (algo == "bfs") {
    auto [id, p] = engine.attach_make<DynamicBfs>(source);
    prog_id = id;
    engine.inject_init(id, source);
  } else if (algo == "sssp") {
    auto [id, p] = engine.attach_make<DynamicSssp>(source);
    prog_id = id;
    engine.inject_init(id, source);
  } else if (algo == "cc") {
    auto [id, p] = engine.attach_make<DynamicCc>();
    prog_id = id;
  } else if (algo == "st") {
    auto [id, p] =
        engine.attach_make<MultiStConnectivity>(std::vector<VertexId>{source});
    prog_id = id;
    inject_st_sources(engine, id, *p);
  } else if (algo == "degree") {
    auto [id, p] = engine.attach_make<DegreeTracker>();
    prog_id = id;
  } else if (algo == "wsssp") {
    auto [id, p] = engine.attach_make<WeightedSssp>(source);
    prog_id = id;
    engine.inject_init(id, source);
  } else if (algo == "pagerank") {
    // No init: PageRankDelta bootstraps from on_add publishes. The publish
    // tolerance bounds cascade reach (DESIGN.md §8); the exactness default
    // of 1e-9 is right for small fuzz graphs but cascades graph-wide during
    // live construction at bench scales — loosen it for interactive use.
    PageRankDelta::Options popt;
    popt.tolerance = std::strtod(a.str("tolerance", "1e-9").c_str(), nullptr);
    prog_id = engine.attach(std::make_shared<PageRankDelta>(popt));
  } else if (algo == "none") {
    have_program = false;
  } else {
    return usage();
  }

  StreamOptions opts;
  opts.seed = a.num("seed", 7);
  if (const std::uint64_t maxw = a.num("weights", 1); maxw > 1)
    opts.max_weight = static_cast<Weight>(maxw);
  const std::size_t n_streams = a.num("streams", cfg.num_ranks);
  const StreamSet streams = make_streams(edges, n_streams, opts);

  // Live telemetry (docs/OBSERVABILITY.md): periodic exporter, stall
  // watchdog, and the --watch live view all poll engine.sample_gauges().
  const auto metrics_period =
      std::chrono::milliseconds(a.num("metrics-period", 100));
  std::unique_ptr<obs::MetricsExporter> exporter;
  const std::string metrics_out = a.str("metrics-out");
  if (!metrics_out.empty()) {
    obs::MetricsExporter::Config ecfg;
    ecfg.period = metrics_period;
    ecfg.path = metrics_out;
    const std::string fmt = a.str("metrics-format", "jsonl");
    if (fmt == "prom" || fmt == "prometheus") {
      ecfg.format = obs::MetricsExporter::Format::kPrometheus;
      if (metrics_out == "-") {
        std::fprintf(stderr, "--metrics-format prom needs a real file path\n");
        return usage();
      }
    } else if (fmt != "jsonl") {
      return usage();
    }
    exporter = std::make_unique<obs::MetricsExporter>(
        [&engine] { return engine.sample_gauges(); }, ecfg);
  }
  std::unique_ptr<obs::StallWatchdog> watchdog;
  if (a.flag("watchdog")) {
    obs::StallWatchdog::Config wcfg;
    wcfg.period = metrics_period;
    wcfg.extra_dump = [&engine](std::uint32_t r) { return engine.stall_dump(r); };
    watchdog = std::make_unique<obs::StallWatchdog>(
        [&engine] { return engine.sample_gauges(); }, wcfg);
  }

  IngestStats stats;
  if (a.flag("watch")) {
    engine.ingest_async(streams);
    std::size_t lines = 0;
    const auto refresh = [&] {
      const std::string view = engine.sample_gauges().watch_view();
      // Cursor up over the previous frame, clear to end of screen, redraw.
      if (lines) std::printf("\x1b[%zuA\x1b[0J", lines);
      std::fputs(view.c_str(), stdout);
      std::fflush(stdout);
      lines = static_cast<std::size_t>(
          std::count(view.begin(), view.end(), '\n'));
    };
    while (!engine.idle()) {
      refresh();
      std::this_thread::sleep_for(metrics_period);
    }
    stats = engine.await_quiescence();
    refresh();  // final frame: lag 0, everyone idle
  } else {
    stats = engine.ingest(streams);
  }
  if (watchdog) watchdog->stop();
  if (exporter) exporter->stop();  // emits the final (quiescent) sample
  std::printf("ingested %s events in %.3f s — %s\n",
              with_commas(stats.events).c_str(), stats.seconds,
              remo::strfmt("%.2fM events/s", stats.events_per_second / 1e6).c_str());
  std::printf("stored: %s vertices, %s directed arcs, %s resident\n",
              with_commas(engine.total_stored_vertices()).c_str(),
              with_commas(engine.total_stored_edges()).c_str(),
              human_bytes(engine.store_memory_bytes()).c_str());

  const MetricsSummary m = engine.metrics();
  std::printf("messages: %s total, %s crossed ranks, %s algorithm callbacks\n",
              with_commas(m.messages_sent).c_str(),
              with_commas(m.remote_messages).c_str(),
              with_commas(m.algorithm_events).c_str());

  if (have_program) {
    const Snapshot snap = engine.collect_quiescent(prog_id);
    std::printf("algorithm '%s': %s vertices carry non-identity state\n",
                algo.c_str(), with_commas(snap.size()).c_str());
    const std::string snap_out = a.str("snapshot");
    if (!snap_out.empty()) {
      std::FILE* f = std::fopen(snap_out.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", snap_out.c_str());
        return 1;
      }
      std::fprintf(f, "# vertex state (%s, source=%llu)\n", algo.c_str(),
                   static_cast<unsigned long long>(source));
      for (const auto& [v, s] : snap)
        std::fprintf(f, "%llu %llu\n", static_cast<unsigned long long>(v),
                     static_cast<unsigned long long>(s));
      std::fclose(f);
      std::printf("snapshot written to %s\n", snap_out.c_str());
    }
  }

  // Observability artefacts last, so they cover any snapshot/collect work.
  if (want_stats || !stats_json.empty()) {
    const obs::MetricsSnapshot snap = engine.metrics_snapshot();
    if (want_stats) std::fputs(snap.to_text().c_str(), stdout);
    if (!stats_json.empty()) {
      std::FILE* f = std::fopen(stats_json.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "cannot open %s\n", stats_json.c_str());
        return 1;
      }
      const std::string text = snap.to_json().dump(2);
      std::fwrite(text.data(), 1, text.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("stats written to %s\n", stats_json.c_str());
    }
  }
  if (!trace_path.empty()) {
    if (engine.write_trace(trace_path)) {
      std::printf("trace written to %s (load in ui.perfetto.dev or "
                  "chrome://tracing)\n", trace_path.c_str());
    } else if (!engine.tracing_enabled()) {
      std::fprintf(stderr, "trace capture unavailable (compiled out?)\n");
      return 1;
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
  }
  if (cfg.obs.lineage) {
    const obs::LineageSummary ls = engine.lineage_snapshot().summary();
    std::printf(
        "lineage: %s causes sampled — visitors/update p50 %s p99 %s, depth "
        "p50 %u p99 %u, cross-rank ratio %.3f\n",
        with_commas(ls.sampled).c_str(), with_commas(ls.visitors_p50).c_str(),
        with_commas(ls.visitors_p99).c_str(), ls.depth_p50, ls.depth_p99,
        ls.cross_rank_ratio);
    if (!lineage_out.empty()) {
      if (!engine.write_lineage(lineage_out)) {
        std::fprintf(stderr, "failed to write lineage to %s\n",
                     lineage_out.c_str());
        return 1;
      }
      std::printf("lineage written to %s (analyze with `remo trace-analyze "
                  "--lineage %s`)\n",
                  lineage_out.c_str(), lineage_out.c_str());
    }
  }
  if (const int rc = report_prof(a, engine); rc != 0) return rc;
  return 0;
}

// --- Query serving (docs/SERVING.md) ---------------------------------------

int cmd_serve(const Args& a) {
  const std::string path = a.str("graph");
  if (path.empty()) return usage();
  const EdgeList edges = load(path);

  const std::string trace_path = a.str("trace");
  const std::string spans_out = a.str("spans-out");
  const bool use_gate = a.flag("gate");
  bool want_spans = a.flag("spans") || !spans_out.empty();
  if (want_spans && !use_gate) {
    std::fprintf(stderr,
                 "note: --spans traces the WriteGate write path; ignored "
                 "without --gate\n");
    want_spans = false;
  }

  EngineConfig cfg;
  cfg.num_ranks = static_cast<RankId>(a.num("ranks", 4));
  if (a.flag("safra")) cfg.termination = TerminationMode::kSafra;
  cfg.obs.trace = !trace_path.empty();
  apply_prof_args(a, cfg);
  Engine engine(cfg);

  std::unique_ptr<obs::SpanRecorder> spans;
  if (want_spans) {
    obs::SpanRecorderConfig rcfg;
    rcfg.sample_shift = static_cast<std::uint32_t>(a.num("span-sample", 0));
    spans = std::make_unique<obs::SpanRecorder>(rcfg);
  }
  std::unique_ptr<serve::WriteGate> gate;  // created with the write side

  const VertexId source = a.num("source", edges.empty() ? 0 : edges.front().src);
  auto [bfs_id, bfs] = engine.attach_make<DynamicBfs>(source);
  auto [cc_id, cc] = engine.attach_make<DynamicCc>();
  auto [deg_id, deg] = engine.attach_make<DegreeTracker>();
  (void)bfs; (void)cc; (void)deg;
  engine.inject_init(bfs_id, source);

  serve::QueryServiceConfig scfg;
  scfg.refresh_period_ms =
      static_cast<std::uint32_t>(a.num("refresh-ms", 50));
  scfg.top_k = a.num("top-k", 16);
  scfg.spans = spans.get();
  serve::QueryService qs(engine, scfg);
  qs.serve(bfs_id, serve::ViewRole::kDistance);
  qs.serve(cc_id, serve::ViewRole::kComponent);
  qs.serve(deg_id, serve::ViewRole::kDegree);
  qs.start();

  // Live telemetry over the whole serving plane: the sampler decorates
  // engine gauges with serve/gate/span counters (docs/OBSERVABILITY.md).
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (const std::string metrics_out = a.str("metrics-out");
      !metrics_out.empty()) {
    obs::MetricsExporter::Config ecfg;
    ecfg.period = std::chrono::milliseconds(a.num("metrics-period", 100));
    ecfg.path = metrics_out;
    const std::string fmt = a.str("metrics-format", "jsonl");
    if (fmt == "prom" || fmt == "prometheus") {
      ecfg.format = obs::MetricsExporter::Format::kPrometheus;
      if (metrics_out == "-") {
        std::fprintf(stderr, "--metrics-format prom needs a real file path\n");
        return usage();
      }
    } else if (fmt != "jsonl") {
      return usage();
    }
    exporter = std::make_unique<obs::MetricsExporter>(
        [&engine, &qs, &gate, &spans] {
          obs::GaugeSample s = engine.sample_gauges();
          serve::fill_serving_gauges(s, &qs, gate.get(), spans.get());
          return s;
        },
        ecfg);
  }

  VertexId max_vertex = 1;
  for (const Edge& e : edges) max_vertex = std::max({max_vertex, e.src, e.dst});
  const std::uint64_t target = a.num("queries", 100000);
  const std::size_t readers = std::max<std::uint64_t>(1, a.num("query-threads", 2));
  const std::uint64_t seed = a.num("seed", 7);

  // Readers claim query slots from a shared counter and answer them from
  // pinned views; each owns its (single-writer) latency histogram.
  std::atomic<std::uint64_t> issued{0};
  std::vector<obs::LatencyHistogram> hists(readers);
  std::vector<std::thread> reader_threads;
  const auto now_ns = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  for (std::size_t t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t] {
      Xoshiro256 rng(seed ^ (0x5bf0'3635'0ce1'0ae5ULL * (t + 1)));
      while (issued.fetch_add(1, std::memory_order_relaxed) < target) {
        const VertexId u = static_cast<VertexId>(rng.bounded(max_vertex + 1));
        const VertexId v = static_cast<VertexId>(rng.bounded(max_vertex + 1));
        const std::uint64_t kind = rng.bounded(100);
        const std::uint64_t t0 = now_ns();
        if (kind < 40)
          (void)qs.distance(bfs_id, u);
        else if (kind < 60)
          (void)qs.component_of(cc_id, u);
        else if (kind < 80)
          (void)qs.connected(cc_id, u, v);
        else if (kind < 90)
          (void)qs.reachable(bfs_id, u);
        else
          (void)qs.top_k_degree(deg_id, 8);
        hists[t].record(now_ns() - t0);
      }
    });
  }

  // Write side: classic pull streams, or conflict-scheduled gate admission.
  IngestStats stats;
  if (use_gate) {
    serve::WriteGateConfig gcfg;
    gcfg.batch_limit = a.num("gate-batch", 1024);
    gcfg.dispatch_threads = std::max<std::uint64_t>(1, a.num("gate-threads", 2));
    gcfg.spans = spans.get();
    gate = std::make_unique<serve::WriteGate>(engine, gcfg);
    StreamOptions opts;
    opts.seed = seed;
    const StreamSet streams = make_streams(edges, 1, opts);
    const auto t0 = std::chrono::steady_clock::now();
    gate->submit_batch(streams.stream(0).events());
    gate->flush();
    engine.drain();
    stats.events = streams.total_events();
    stats.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    stats.events_per_second =
        stats.seconds > 0 ? static_cast<double>(stats.events) / stats.seconds : 0;
    const serve::WriteGateStats gs = gate->stats();
    std::printf(
        "gate: %s batches, %s waves (%s parallel, %s fallback), occupancy "
        "%.1f events/wave, max wave %s\n",
        with_commas(gs.batches).c_str(), with_commas(gs.waves).c_str(),
        with_commas(gs.parallel_waves).c_str(),
        with_commas(gs.serial_fallback_batches).c_str(), gs.mean_wave_occupancy,
        with_commas(gs.max_wave_size).c_str());
  } else {
    StreamOptions opts;
    opts.seed = seed;
    const std::size_t n_streams = a.num("streams", cfg.num_ranks);
    const StreamSet streams = make_streams(edges, n_streams, opts);
    stats = engine.ingest(streams);
  }

  for (auto& th : reader_threads) th.join();
  qs.refresh_all();  // final views reflect the fully-converged state
  const serve::ServeStats ss = qs.stats();
  qs.stop();
  if (exporter) exporter->stop();  // final sample sees the settled plane

  obs::HistogramSnapshot merged;
  for (const auto& h : hists) merged.merge(h.snapshot());
  std::printf("ingested %s events in %.3f s — %s sustained\n",
              with_commas(stats.events).c_str(), stats.seconds,
              remo::strfmt("%.2fM events/s", stats.events_per_second / 1e6).c_str());
  std::printf("queries: %s served by %zu thread(s) — p50 %.1f us, p99 %.1f us\n",
              with_commas(ss.queries_served).c_str(), readers,
              static_cast<double>(merged.p50()) / 1e3,
              static_cast<double>(merged.p99()) / 1e3);
  std::printf("views: %s refreshes, read-epoch lag %s events, oldest view "
              "%.1f ms\n",
              with_commas(ss.refreshes).c_str(),
              with_commas(ss.read_epoch_lag_events).c_str(),
              static_cast<double>(ss.view_age_ns) / 1e6);
  if (spans) {
    const obs::SpanCounts sc = spans->counts();
    std::printf(
        "spans: %s completed of %s sampled (%s open, %s dropped) — "
        "write-to-readable p50 %.2f ms, p99 %.2f ms\n",
        with_commas(sc.completed).c_str(),
        with_commas(sc.batches_sampled).c_str(), with_commas(sc.open).c_str(),
        with_commas(sc.dropped_open).c_str(),
        static_cast<double>(sc.freshness_p50_ns) / 1e6,
        static_cast<double>(sc.freshness_p99_ns) / 1e6);
  }

  if (!spans_out.empty() && spans) {
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", spans_out.c_str());
      return 1;
    }
    const std::string text = spans->snapshot().to_json().dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("spans written to %s (analyze with `remo trace-analyze "
                "--spans %s --tail`)\n",
                spans_out.c_str(), spans_out.c_str());
  }

  if (const int rc = report_prof(a, engine); rc != 0) return rc;

  if (const std::string stats_json = a.str("stats-json"); !stats_json.empty()) {
    // The engine's remo-stats-1 document, decorated with the serving plane.
    Json doc = engine.metrics_snapshot().to_json();
    Json sj = Json::object();
    sj["queries_served"] = ss.queries_served;
    sj["refreshes"] = ss.refreshes;
    sj["served_programs"] = ss.served_programs;
    sj["read_epoch_lag_events"] = ss.read_epoch_lag_events;
    sj["view_age_ns"] = ss.view_age_ns;
    sj["query_p50_ns"] = merged.p50();
    sj["query_p99_ns"] = merged.p99();
    doc["serve"] = sj;
    if (gate) {
      const serve::WriteGateStats gs = gate->stats();
      Json gj = Json::object();
      gj["events_submitted"] = gs.events_submitted;
      gj["events_dispatched"] = gs.events_dispatched;
      gj["batches"] = gs.batches;
      gj["waves"] = gs.waves;
      gj["parallel_waves"] = gs.parallel_waves;
      gj["serial_fallback_batches"] = gs.serial_fallback_batches;
      gj["mean_wave_occupancy"] = gs.mean_wave_occupancy;
      gj["max_wave_size"] = gs.max_wave_size;
      doc["write_gate"] = gj;
    }
    if (spans) {
      const obs::SpanSnapshot sn = spans->snapshot();
      Json sp = Json::object();
      sp["batches_seen"] = sn.batches_seen;
      sp["batches_sampled"] = sn.batches_sampled;
      sp["completed"] = sn.completed;
      sp["open"] = sn.open;
      sp["dropped_open"] = sn.dropped_open;
      Json fr = Json::object();
      fr["p50_ns"] = sn.freshness.hist.p50();
      fr["p90_ns"] = sn.freshness.hist.p90();
      fr["p99_ns"] = sn.freshness.hist.p99();
      fr["max_ns"] = sn.freshness.hist.max;
      sp["freshness"] = fr;
      Json stages = Json::object();
      for (std::size_t i = 0; i < obs::kWriteStageCount; ++i) {
        const obs::HistogramSnapshot& h = sn.stages[i].hist;
        Json e = Json::object();
        e["p50_ns"] = h.p50();
        e["p99_ns"] = h.p99();
        stages[obs::write_stage_name(static_cast<obs::WriteStage>(i))] = e;
      }
      sp["stages"] = stages;
      doc["spans"] = sp;
    }
    std::FILE* f = std::fopen(stats_json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", stats_json.c_str());
      return 1;
    }
    const std::string text = doc.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("stats written to %s\n", stats_json.c_str());
  }

  if (!trace_path.empty()) {
    std::vector<obs::TraceTrack> extra;
    if (spans)
      extra.push_back(spans->trace_track(
          static_cast<std::uint32_t>(cfg.num_ranks) + 1));
    if (engine.write_trace(trace_path, std::move(extra))) {
      std::printf("trace written to %s (load in ui.perfetto.dev or "
                  "chrome://tracing)\n", trace_path.c_str());
    } else if (!engine.tracing_enabled()) {
      std::fprintf(stderr, "trace capture unavailable (compiled out?)\n");
      return 1;
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
  }
  return 0;
}

// Slurp + parse a JSON artefact; returns false (with a printed error) on
// any failure.
bool load_json_file(const std::string& path, Json& doc) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    text.append(buf, n);
  std::fclose(f);
  std::string error;
  doc = Json::parse(text, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: JSON parse error: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

// Write-path span analysis: `--spans FILE --tail` prints the per-stage
// attribution table for tail write-to-readable latency (docs/OBSERVABILITY.md
// has the runbook built around this report).
int analyze_spans(const Args& a, const std::string& path) {
  Json doc;
  if (!load_json_file(path, doc)) return 1;
  std::string error;
  obs::SpanSnapshot snap;
  if (!obs::SpanSnapshot::from_json(doc, snap, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (a.flag("tail")) {
    double pct = 99.0;
    if (a.kv.count("--tail-pct"))
      pct = std::strtod(a.str("tail-pct").c_str(), nullptr);
    if (!(pct > 0.0 && pct < 100.0)) {
      std::fprintf(stderr, "--tail-pct wants a percentile in (0, 100)\n");
      return 1;
    }
    std::fputs(obs::format_tail_report(snap, pct).c_str(), stdout);
  } else {
    const obs::HistogramSnapshot& h = snap.freshness.hist;
    std::printf(
        "spans: %s completed of %s sampled (%s open, %s dropped)\n"
        "write-to-readable: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, max "
        "%.2f ms\n"
        "(re-run with --tail for per-stage attribution and exemplars)\n",
        with_commas(snap.completed).c_str(),
        with_commas(snap.batches_sampled).c_str(),
        with_commas(snap.open).c_str(), with_commas(snap.dropped_open).c_str(),
        static_cast<double>(h.p50()) / 1e6, static_cast<double>(h.p90()) / 1e6,
        static_cast<double>(h.p99()) / 1e6, static_cast<double>(h.max) / 1e6);
  }

  // CI gate: sampled spans that never completed mean the write path lost
  // track of a batch (or the run ended before its covering publish).
  if (a.flag("require-complete")) {
    if (snap.open > 0 || snap.dropped_open > 0) {
      std::fprintf(stderr,
                   "%llu span(s) still open, %llu dropped — write path lost "
                   "batches\n",
                   static_cast<unsigned long long>(snap.open),
                   static_cast<unsigned long long>(snap.dropped_open));
      return 1;
    }
    std::printf("all %s sampled spans completed\n",
                with_commas(snap.batches_sampled).c_str());
  }
  return 0;
}

// Hardware-counter analysis: re-print a remo-prof-1 dump's per-rank x
// per-phase attribution tables; with --spans, join the phase counters
// against the write path's per-stage percentiles (the "where do the cycles
// go" view in docs/OBSERVABILITY.md).
int analyze_prof(const Args& a, const std::string& path) {
  Json doc;
  if (!load_json_file(path, doc)) return 1;
  std::string error;
  obs::ProfSnapshot snap;
  if (!obs::ProfSnapshot::from_json(doc, snap, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  obs::SpanSnapshot spans;
  bool have_spans = false;
  if (const std::string spans_path = a.str("spans"); !spans_path.empty()) {
    Json sdoc;
    if (!load_json_file(spans_path, sdoc)) return 1;
    if (!obs::SpanSnapshot::from_json(sdoc, spans, &error)) {
      std::fprintf(stderr, "%s: %s\n", spans_path.c_str(), error.c_str());
      return 1;
    }
    have_spans = true;
  }
  std::fputs(
      obs::format_prof_report(snap, have_spans ? &spans : nullptr).c_str(),
      stdout);
  return 0;
}

int cmd_trace_analyze(const Args& a) {
  if (const std::string prof_path = a.str("prof"); !prof_path.empty())
    return analyze_prof(a, prof_path);
  if (const std::string spans_path = a.str("spans"); !spans_path.empty())
    return analyze_spans(a, spans_path);
  const std::string path = a.str("lineage");
  if (path.empty()) return usage();
  Json doc;
  if (!load_json_file(path, doc)) return 1;
  std::string error;
  obs::LineageSnapshot snap;
  if (!obs::LineageSnapshot::from_json(doc, snap, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  const std::size_t top_k = a.num("top", 10);
  std::fputs(obs::analyze_lineage(snap, top_k).c_str(), stdout);

  // CI gate: a sampled cause whose cascade spawned fewer visitors than
  // expected means lineage threading went missing somewhere.
  if (const std::uint64_t min_desc = a.num("min-descendants", 0); min_desc > 0) {
    const auto bad = obs::causes_below_descendants(snap, min_desc);
    if (!bad.empty()) {
      std::fprintf(stderr,
                   "%zu sampled cause(s) spawned fewer than %llu visitors:",
                   bad.size(), static_cast<unsigned long long>(min_desc));
      for (std::size_t i = 0; i < bad.size() && i < 16; ++i)
        std::fprintf(stderr, " %u", bad[i]);
      std::fprintf(stderr, "\n");
      return 1;
    }
    std::printf("all %zu sampled causes spawned >= %llu visitor(s)\n",
                snap.records.size(), static_cast<unsigned long long>(min_desc));
  }
  return 0;
}

// --- Bench regression gate (docs/OBSERVABILITY.md "Profiling") -------------

// Parses raw argv: the two report paths are positional, which the Args
// map cannot represent, and --gate repeats.
int cmd_bench_compare(int argc, char** argv) {
  obs::BenchCompareOptions opts;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--force") {
      opts.force = true;
    } else if (arg == "--gate" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto eq = spec.find('=');
      double pct = -1;
      if (eq != std::string::npos)
        pct = std::strtod(spec.c_str() + eq + 1, nullptr);
      if (eq == std::string::npos || eq == 0 || !(pct >= 0)) {
        std::fprintf(stderr,
                     "--gate wants METRIC=PCT (e.g. events_per_second=3)\n");
        return 2;
      }
      opts.gates[spec.substr(0, eq)] = pct;
    } else if (arg == "--gate-pct" && i + 1 < argc) {
      const double pct = std::strtod(argv[++i], nullptr);
      if (!(pct >= 0)) {
        std::fprintf(stderr, "--gate-pct wants a non-negative percentage\n");
        return 2;
      }
      opts.default_gate_pct = pct;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "bench-compare: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "bench-compare wants exactly two BENCH_*.json paths\n");
    return usage();
  }
  Json doc_a, doc_b;
  if (!load_json_file(paths[0], doc_a) || !load_json_file(paths[1], doc_b))
    return 1;
  const obs::BenchCompareResult res = obs::bench_compare(doc_a, doc_b, opts);
  std::fputs(obs::format_bench_compare(res).c_str(), stdout);
  return res.ok() ? 0 : 1;
}

// --- Differential fuzzing (docs/TESTING.md) --------------------------------

void print_divergence_list(const char* what, const std::vector<fuzz::Divergence>& list) {
  const std::size_t show = std::min<std::size_t>(list.size(), 16);
  for (std::size_t i = 0; i < show; ++i) {
    const fuzz::Divergence& d = list[i];
    std::fprintf(stderr, "  %s %llu: got %llu, want %llu\n", what,
                 static_cast<unsigned long long>(d.vertex),
                 static_cast<unsigned long long>(d.got),
                 static_cast<unsigned long long>(d.want));
  }
  if (list.size() > show)
    std::fprintf(stderr, "  ... and %zu more\n", list.size() - show);
}

void print_divergences(const fuzz::RunResult& rr) {
  std::fprintf(stderr, "  %zu vertex(es) diverged, %zu served answer(s), of %zu checked:\n",
               rr.divergences.size(), rr.served_divergences.size(),
               rr.vertices_checked);
  print_divergence_list("vertex", rr.divergences);
  print_divergence_list("served vertex", rr.served_divergences);
}

// Shrink a failing case's event stream, preserving "some divergence exists"
// (the minimal stream may fail differently than the original — that is
// fine, it is still an engine bug with fewer moving parts). `run` is the
// failing run's options, so a divergence only the query observer sees
// shrinks too.
fuzz::FuzzCase shrink_case(const fuzz::FuzzCase& fc, std::size_t max_runs,
                           const fuzz::RunOptions& run, fuzz::ShrinkStats* stats) {
  fuzz::FuzzCase out = fc;
  out.events = fuzz::shrink_events(
      fc.events,
      [&fc, &run](const std::vector<EdgeEvent>& candidate) {
        fuzz::FuzzCase probe = fc;
        probe.events = candidate;
        return !fuzz::run_case(probe, run).ok();
      },
      stats, max_runs);
  return out;
}

int cmd_fuzz(const Args& a) {
  fuzz::CampaignOptions opts;
  opts.num_cases = static_cast<std::uint32_t>(a.num("seeds", 50));
  opts.base_seed = a.num("seed-base", 1);
  opts.gen.num_vertices = static_cast<std::uint32_t>(a.num("vertices", 96));
  opts.gen.num_events = static_cast<std::uint32_t>(a.num("events", 600));
  opts.gen.delete_permille = static_cast<std::uint32_t>(a.num("deletes", 250));
  opts.gen.mutate_permille = static_cast<std::uint32_t>(a.num("mutations", 250));
  opts.gen.max_weight = static_cast<Weight>(a.num("max-weight", 8));
  if (const std::string an = a.str("algo", ""); !an.empty()) {
    fuzz::Algo al;
    if (!fuzz::algo_from_name(an, al)) {
      std::fprintf(stderr, "unknown --algo '%s'\n", an.c_str());
      return 2;
    }
    opts.force_algo = al;
  }
  opts.run.query_observer = a.flag("query-observer");
  const bool keep_going = a.flag("keep-going");
  const bool do_shrink = !a.flag("no-shrink");
  const std::size_t shrink_runs = a.num("shrink-runs", 400);
  const std::string out_dir = a.str("out-dir", "fuzz-out");

  std::uint64_t failed = 0;
  opts.on_case = [&](const fuzz::FuzzCase& fc, const fuzz::RunResult& rr) {
    if (rr.ok()) return true;
    ++failed;
    std::fprintf(stderr, "DIVERGENCE [%s]\n", fuzz::describe(fc).c_str());
    print_divergences(rr);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string base =
        out_dir + "/divergence-" + std::to_string(fc.seed);
    std::string err;
    if (!fuzz::write_repro(base + ".repro", fc, &err, opts.run))
      std::fprintf(stderr, "  %s\n", err.c_str());
    else
      std::fprintf(stderr, "  repro written to %s.repro\n", base.c_str());
    if (do_shrink) {
      fuzz::ShrinkStats st;
      const fuzz::FuzzCase small = shrink_case(fc, shrink_runs, opts.run, &st);
      if (!fuzz::write_repro(base + ".min.repro", small, &err, opts.run))
        std::fprintf(stderr, "  %s\n", err.c_str());
      else
        std::fprintf(stderr,
                     "  shrunk %zu -> %zu events (%zu runs%s) -> %s.min.repro\n",
                     st.original_size, st.final_size, st.runs,
                     st.budget_exhausted ? ", budget hit" : "", base.c_str());
    }
    return keep_going;
  };

  const fuzz::CampaignResult res = fuzz::run_campaign(opts);
  std::printf("fuzz: %u case(s) run, %zu divergence(s)\n", res.cases_run,
              res.failures.size());
  return res.failures.empty() ? 0 : 1;
}

int cmd_fuzz_repro(const Args& a) {
  const std::string path = a.str("file");
  if (path.empty()) return usage();
  fuzz::FuzzCase fc;
  fuzz::RunOptions run;
  std::string err;
  if (!fuzz::read_repro(path, fc, &err, &run)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return 2;
  }
  std::printf("replaying [%s]\n", fuzz::describe(fc).c_str());
  run.query_observer = run.query_observer || a.flag("query-observer");
  const fuzz::RunResult rr = fuzz::run_case(fc, run);
  if (rr.ok()) {
    std::printf("no divergence: %zu vertices checked against the oracle\n",
                rr.vertices_checked);
    return 0;
  }
  std::fprintf(stderr, "DIVERGENCE\n");
  print_divergences(rr);
  if (a.flag("shrink")) {
    fuzz::ShrinkStats st;
    const fuzz::FuzzCase small =
        shrink_case(fc, a.num("shrink-runs", 400), run, &st);
    const std::string out = a.str("out", path + ".min");
    if (!fuzz::write_repro(out, small, &err, run)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    std::printf("shrunk %zu -> %zu events (%zu runs%s) -> %s\n",
                st.original_size, st.final_size, st.runs,
                st.budget_exhausted ? ", budget hit" : "", out.c_str());
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.command == "generate") return cmd_generate(a);
  if (a.command == "stats") return cmd_stats(a);
  if (a.command == "ingest") return cmd_ingest(a);
  if (a.command == "serve") return cmd_serve(a);
  if (a.command == "trace-analyze") return cmd_trace_analyze(a);
  if (a.command == "bench-compare") return cmd_bench_compare(argc, argv);
  if (a.command == "fuzz") return cmd_fuzz(a);
  if (a.command == "fuzz-repro") return cmd_fuzz_repro(a);
  return usage();
}
