// remo-bench: one end-to-end benchmark over four workloads (README.md).
//
//   remo_bench --workload W --seed S --seconds N --trace 0|1
//              [--trace-out FILE] [--smoke]
//
// Progress and one "remo-bench-detail {...}" line go to stderr. The last
// line of stdout is {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with --trace 1 the per-layer ledger of a separate
// traced pass, which also writes its spans to FILE as chrome-trace JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "run.hpp"

namespace remo_bench {
namespace {

using namespace remo;

void usage() {
  std::fprintf(stderr,
               "usage: remo_bench --workload {construct|serve|pagerank-mutate|sssp-churn} "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--smoke]\n");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end) return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end || !(opt.seconds > 0 && opt.seconds <= 3600)) return false;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string layer_of(const char* span_name) {
  const std::string n = span_name;
  return n.substr(0, n.find('.'));
}

/// Each layer's self time over the timed phase, as a share of the summed
/// durations of the timed batches' root spans.
std::map<std::string, double> timed_self_share(const Spans& spans) {
  const std::vector<Span>& all = spans.all();
  const std::vector<std::uint64_t> self = spans.self_ns();
  double roots = 0;
  std::map<std::string, double> share;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].batch < 0) continue;
    if (all[i].parent < 0) roots += static_cast<double>(all[i].end_ns - all[i].start_ns);
    share[layer_of(all[i].name)] += static_cast<double>(self[i]);
  }
  for (auto& [layer, v] : share) v = ratio(v, roots);
  return share;
}

// --- Probes of the traced pass ----------------------------------------------

/// Storage replay on this thread, both directions of every pair, routed by
/// Partitioner::owner into one DegAwareStore per rank: the base edges are
/// inserted, then the workload's mutated pairs looked up and its deleted
/// pairs erased (the base edges where it has none).
void probe_storage(Run& run, const Workload& w) {
  std::vector<DegAwareStore> stores(w.ranks());
  const Partitioner part(w.ranks());
  const auto insert = [&](const EdgeList& edges) {
    for (const Edge& e : edges) {
      stores[part.owner(e.src)].insert_edge(e.src, e.dst, e.weight);
      stores[part.owner(e.dst)].insert_edge(e.dst, e.src, e.weight);
    }
  };
  const auto per_op = [](std::uint64_t t0, const EdgeList& edges) {
    return static_cast<double>(now_ns() - t0) / (2.0 * static_cast<double>(edges.size()));
  };
  const EdgeList& lookups = w.lookup_pairs.empty() ? w.base() : w.lookup_pairs;
  const EdgeList& erases = w.erase_pairs.empty() ? w.base() : w.erase_pairs;
  std::uint64_t sink = 0;
  std::uint64_t t = now_ns();
  {
    Scope s(run.spans, "storage.insert", -1);
    insert(w.base());
  }
  run.insert_ns = per_op(t, w.base());
  t = now_ns();
  {
    Scope s(run.spans, "storage.lookup", -1);
    for (const Edge& e : lookups)
      sink += stores[part.owner(e.src)].edge_weight(e.src, e.dst) +
              stores[part.owner(e.dst)].edge_weight(e.dst, e.src);
  }
  run.lookup_ns = per_op(t, lookups);
  // Pairs added during the run and deleted later are not in the base.
  if (&erases != &w.base()) insert(erases);
  t = now_ns();
  {
    Scope s(run.spans, "storage.erase", -1);
    for (const Edge& e : erases)
      sink += stores[part.owner(e.src)].erase_edge(e.src, e.dst) +
              stores[part.owner(e.dst)].erase_edge(e.dst, e.src);
  }
  run.erase_ns = per_op(t, erases);
  static_cast<void>(*static_cast<volatile std::uint64_t*>(&sink));
}

/// The same programs ingesting the base graph in the same batches at one
/// rank: the single-thread baseline.
void probe_one_rank(Run& run, const Workload& w) {
  Scope s(run.spans, "core.ingest_1rank", -1);
  EngineConfig cfg;
  cfg.num_ranks = 1;
  Engine e(cfg);
  w.attach()(e);
  double busy_s = 0;
  for (const StreamSet& batch : ingest_batches(to_events(w.base()), 1))
    busy_s += e.ingest(batch).seconds;
  run.events_per_s_1rank = ratio(static_cast<double>(w.base().size()), busy_s);
}

/// View publishes and point reads on the final state. The serve workload
/// timed its cuts and reads live, so it only adds publishes here.
void probe_serving(Run& run, Workload& w) {
  Served& s = w.served;
  if (!w.live_reads()) run.cuts.attach(*s.engine);
  for (int i = 0; i < 5; ++i) {
    Scope sc(run.spans, "serve.refresh", -1);
    const std::uint64_t t = now_ns();
    s.qs->refresh_all();
    run.refresh_ms.add(static_cast<double>(now_ns() - t) / 1e6);
  }
  CutRecorder::detach(*s.engine);
  if (w.live_reads()) return;

  Scope sc(run.spans, "serve.read", -1);
  Xoshiro256 rng(run.opt.seed ^ 0x7265'6164ULL);
  const serve::QueryService& qs = *s.qs;
  std::uint64_t sink = 0;
  for (std::size_t group = 0; group < 4096; ++group) {
    const auto& [id, role] = s.views[group % s.views.size()];
    const std::uint64_t t = now_ns();
    for (int q = 0; q < 16; ++q) {
      const auto u = static_cast<VertexId>(rng.bounded(w.id_space()));
      const bool other = rng.bounded(2) == 1;
      switch (role) {
        case serve::ViewRole::kDistance:
          sink += other ? qs.reachable(id, u) : qs.distance(id, u);
          break;
        case serve::ViewRole::kComponent:
          sink += other ? qs.connected(id, u, static_cast<VertexId>(rng.bounded(w.id_space())))
                        : qs.component_of(id, u);
          break;
        case serve::ViewRole::kDegree:
          sink += other ? qs.top_k_degree(id, 8).size() : qs.state(id, u);
          break;
        case serve::ViewRole::kRank:
          sink += other ? qs.top_k_rank(id, 8).size()
                        : static_cast<std::uint64_t>(qs.rank_of(id, u) * 1e6);
          break;
        case serve::ViewRole::kGeneric:
          sink += qs.state(id, u);
          break;
      }
    }
    run.read_ns.add(static_cast<double>(now_ns() - t) / 16.0);
  }
  static_cast<void>(*static_cast<volatile std::uint64_t*>(&sink));
}

// --- Output -------------------------------------------------------------------

class Metrics {
 public:
  void put(const char* name, const char* unit, double value) {
    if (!std::isfinite(value)) finite_ = false;
    Json m = Json::object();
    m["value"] = std::isfinite(value) ? value : 0.0;
    m["unit"] = unit;
    doc_[name] = std::move(m);
  }
  bool finite() const noexcept { return finite_; }
  const Json& json() const noexcept { return doc_; }

 private:
  Json doc_ = Json::object();
  bool finite_ = true;
};

Metrics end_to_end(const Run& r) {
  Metrics m;
  m.put("events_per_s", "1/s", r.windows.rate.median());
  m.put("batch_p50_ms", "ms", r.batch_ms.pct(50));
  m.put("batch_p99_ms", "ms", r.batch_p99_ms());
  m.put("cpu_us_per_event", "us", r.windows.cpu_us.median());
  m.put("peak_rss_mb", "MB", r.rss_mb);
  m.put("setup_s", "s", r.setup_s.median());
  return m;
}

Metrics per_layer(Run& r) {
  const std::map<std::string, double> share = timed_self_share(r.spans);
  const auto share_of = [&](const char* layer) {
    const auto it = share.find(layer);
    return it == share.end() ? 0.0 : it->second;
  };
  const MetricsSummary& c = r.ledger.counters;
  const auto events = static_cast<double>(r.events);
  const auto msgs = static_cast<double>(c.messages_sent);
  const obs::PhaseSnapshot& ph = r.ledger.phases;
  const auto phase = [&](obs::Phase p) { return static_cast<double>(ph[p]); };
  const Samples cut_ms = r.cuts.take();

  Metrics m;
  m.put("gen.inputs_s", "s", r.inputs_s);
  m.put("gen.late_p99_us", "us", r.late_us.pct(99));
  m.put("gen.reads_per_s", "1/s", r.reads_per_s);
  m.put("gen.self_share", "ratio", share_of("gen"));

  m.put("storage.insert_ns", "ns", r.insert_ns);
  m.put("storage.lookup_ns", "ns", r.lookup_ns);
  m.put("storage.erase_ns", "ns", r.erase_ns);
  m.put("storage.bytes_per_edge", "B", r.bytes_per_edge);

  m.put("runtime.msgs_per_event", "count", ratio(msgs, events));
  m.put("runtime.remote_share", "ratio", ratio(static_cast<double>(c.remote_messages), msgs));
  m.put("runtime.merge_share", "ratio",
        ratio(static_cast<double>(c.coalesced_sends + c.receiver_merges), msgs));
  m.put("runtime.rank_skew", "ratio", r.ledger.rank_skew());
  m.put("runtime.overflows_per_event", "count",
        ratio(static_cast<double>(c.ring_overflows), events));
  m.put("runtime.control_per_batch", "count",
        ratio(static_cast<double>(c.control_messages), static_cast<double>(r.batches)));
  m.put("runtime.queue_depth_p99", "count", r.gauges.queue_depth.pct(99));

  m.put("core.self_share", "ratio", share_of("core"));
  m.put("core.busy_share", "ratio",
        ratio(phase(obs::Phase::kIngest) + phase(obs::Phase::kPropagate),
              static_cast<double>(ph.total())));
  m.put("core.quiesce_share", "ratio",
        ratio(phase(obs::Phase::kQuiesce), static_cast<double>(ph.total())));
  m.put("core.callbacks_per_event", "count",
        ratio(static_cast<double>(c.algorithm_events), events));
  m.put("core.update_p50_us", "us", r.ledger.update_pct_ns(50) / 1e3);
  m.put("core.update_p99_us", "us", r.ledger.update_pct_ns(99) / 1e3);
  m.put("core.repair_share", "ratio", ratio(r.repair_s, r.busy_s));
  m.put("core.cut_ms_p50", "ms", cut_ms.pct(50));
  m.put("core.cut_ms_p99", "ms", cut_ms.pct(99));
  m.put("core.lag_events_p99", "count", r.gauges.lag_events.pct(99));
  m.put("core.events_per_s_1rank", "1/s", r.events_per_s_1rank);
  m.put("core.max_rel_err", "ratio", r.max_rel_err);

  m.put("serve.self_share", "ratio", share_of("serve"));
  m.put("serve.refresh_ms_p50", "ms", r.refresh_ms.pct(50));
  m.put("serve.read_ns_p50", "ns", r.read_ns.pct(50));
  m.put("serve.read_ns_p99", "ns", r.read_ns.pct(99));
  m.put("serve.wave_occupancy", "count", r.wave_occupancy);
  m.put("serve.parallel_wave_share", "ratio", r.parallel_wave_share);
  m.put("serve.read_epoch_lag_events", "count", r.read_lag_events.pct(50));

  m.put("obs.trace_overhead_pct", "%",
        (ratio(r.traced_ms.pct(50), r.untraced_ms.pct(50)) - 1.0) * 100.0);
  return m;
}

/// Spans as chrome-trace JSON (one track per lane), plus a "layers" block:
/// count, total and self time per layer and per span name.
bool write_trace(const Run& run, const std::string& path) {
  const std::vector<Span>& all = run.spans.all();
  const std::vector<std::uint64_t> self = run.spans.self_ns();
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& s : all) origin = std::min(origin, s.start_ns);

  std::map<std::uint32_t, obs::TraceTrack> lanes;
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0, self_ms = 0;
    Samples dur_us;
  };
  std::map<std::string, Totals> by_layer, by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    obs::TraceTrack& track = lanes[s.lane];
    track.tid = s.lane;
    track.label = s.lane == 1 ? "bench" : "write lane " + std::to_string(s.lane - 16);
    track.events.push_back(obs::TraceEvent{s.name, s.batch >= 0 ? "batch" : nullptr,
                                           s.start_ns - origin, s.end_ns - s.start_ns,
                                           static_cast<std::uint64_t>(std::max<std::int64_t>(s.batch, 0))});
    for (Totals* t : {&by_layer[layer_of(s.name)], &by_name[s.name]}) {
      ++t->count;
      t->total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t->self_ms += static_cast<double>(self[i]) / 1e6;
      t->dur_us.add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  std::vector<obs::TraceTrack> tracks;
  for (auto& [lane, track] : lanes) tracks.push_back(std::move(track));
  if (!obs::write_chrome_trace(path, "remo-bench " + run.opt.workload, tracks)) return false;

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  Json doc = Json::parse(text.str(), &error);
  if (!error.empty()) return false;
  const auto block = [](const std::map<std::string, Totals>& totals, bool percentiles) {
    Json out = Json::object();
    for (const auto& [name, t] : totals) {
      Json j = Json::object();
      j["count"] = t.count;
      j["total_ms"] = t.total_ms;
      j["self_ms"] = t.self_ms;
      if (percentiles) {
        j["p50_us"] = t.dur_us.pct(50);
        j["p99_us"] = t.dur_us.pct(99);
      }
      out[name] = std::move(j);
    }
    return out;
  };
  Json layers = Json::object();
  layers["by_layer"] = block(by_layer, false);
  layers["by_span"] = block(by_name, true);
  Json timed = Json::object();
  for (const auto& [layer, v] : timed_self_share(run.spans)) timed[layer] = v;
  layers["timed_self_share"] = std::move(timed);
  doc["layers"] = std::move(layers);
  std::ofstream out(path);
  out << doc.dump() << '\n';
  return static_cast<bool>(out);
}

int run_main(const Options& opt) {
  Run run(opt);
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt);
  if (!w) {
    usage();
    return 2;
  }
  run.spans.enabled = opt.trace;
  {
    const std::uint64_t t = now_ns();
    Scope s(run.spans, "gen.inputs", -1);
    w->generate(run);
    run.inputs_s = seconds_between(t, now_ns());
  }
  for (int i = 0; i < w->setups(); ++i) {
    const std::uint64_t t = now_ns();
    w->setup(run);
    run.setup_s.add(seconds_between(t, now_ns()));
  }
  w->timed(run);
  run.spans.enabled = opt.trace;
  w->verify(run);
  if (opt.trace) {
    probe_serving(run, *w);
    probe_storage(run, *w);
    probe_one_rank(run, *w);
  }
  run.gauges.stop();

  Metrics metrics = opt.trace ? per_layer(run) : end_to_end(run);
  const bool correct = run.wrong <= run.wrong_allowed && run.settled_wrong == 0 &&
                       run.failed == 0 && run.checked > 0 && run.events > 0 &&
                       run.batch_ms.size() > 0 && metrics.finite();
  const double error_rate = ratio(static_cast<double>(run.wrong), static_cast<double>(run.checked));

  Json detail = Json::object();
  detail["workload"] = opt.workload;
  detail["seed"] = opt.seed;
  detail["trace"] = opt.trace;
  detail["error_rate"] = error_rate;
  detail["checked"] = run.checked;
  detail["wrong"] = run.wrong;
  detail["max_rel_err"] = run.max_rel_err;
  detail["wrong_allowed"] = run.wrong_allowed;
  detail["settled_wrong"] = run.settled_wrong;
  detail["events"] = run.events;
  detail["batches"] = run.batches;
  detail["reads"] = run.reads;
  detail["timed_s"] = run.timed_s;
  Json samples = Json::object();
  samples["batch"] = run.batch_ms.size();
  samples["p99_blocks"] = run.block_p99_ms.size();
  samples["windows"] = run.windows.rate.size();
  samples["setup"] = run.setup_s.size();
  samples["read"] = run.read_ns.size();
  samples["cut"] = run.cuts.take().size();
  detail["samples"] = std::move(samples);
  std::fprintf(stderr,
               "%s seed %llu: inputs %.2f s, set-up %.3f s, %llu events in %.2f s, "
               "%llu/%llu answers wrong (%llu allowed)\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), run.inputs_s,
               run.setup_s.median(), static_cast<unsigned long long>(run.events), run.timed_s,
               static_cast<unsigned long long>(run.wrong),
               static_cast<unsigned long long>(run.checked),
               static_cast<unsigned long long>(run.wrong_allowed));
  std::fprintf(stderr, "remo-bench-detail %s\n", detail.dump().c_str());

  if (opt.trace && !opt.trace_out.empty() && !write_trace(run, opt.trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", opt.trace_out.c_str());
    return 1;
  }

  Json result = Json::object();
  result["correct"] = correct;
  result["attempted"] = run.batches + run.reads;
  result["failed"] = run.failed;
  result["metrics"] = metrics.json();
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace remo_bench

int main(int argc, char** argv) {
  remo_bench::Options opt;
  if (!remo_bench::parse(argc, argv, opt)) {
    remo_bench::usage();
    return 2;
  }
  try {
    return remo_bench::run_main(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remo_bench: %s\n", e.what());
    return 1;
  }
}
