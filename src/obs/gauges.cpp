#include "obs/gauges.hpp"

#include "common/strfmt.hpp"

namespace remo::obs {

Json GaugeSample::to_json(bool include_per_rank) const {
  Json j = Json::object();
  j["schema"] = "remo-gauges-1";
  j["ts_ns"] = sample_ns;
  j["events_ingested"] = events_ingested;
  j["events_applied"] = events_applied;
  j["converged_through"] = converged_through;
  j["convergence_lag_events"] = convergence_lag_events;
  j["staleness_ns"] = staleness_ns;
  j["in_flight"] = in_flight;
  j["queue_depth"] = queue_depth;
  j["idle_ranks"] = idle_ranks;
  j["idle_ratio"] = idle_ratio;
  j["quiescent"] = quiescent;
  Json det = Json::object();
  det["mode"] = safra_mode ? "safra" : "counting";
  if (safra_mode) {
    det["generation"] = safra_generation;
    det["probe_rounds"] = safra_probe_rounds;
    det["probe_active"] = safra_probe_active;
    det["terminated"] = safra_terminated;
  }
  j["termination"] = std::move(det);
  if (serving.present) {
    Json s = Json::object();
    s["queries_served"] = serving.queries_served;
    s["refreshes"] = serving.refreshes;
    s["served_programs"] = serving.served_programs;
    s["read_epoch_lag_events"] = serving.read_epoch_lag_events;
    s["view_age_ns"] = serving.view_age_ns;
    s["freshness_samples"] = serving.freshness_samples;
    s["freshness_p50_ns"] = serving.freshness_p50_ns;
    s["freshness_p99_ns"] = serving.freshness_p99_ns;
    s["freshness_pending"] = serving.freshness_pending;
    s["freshness_dropped"] = serving.freshness_dropped;
    if (serving.gate_present) {
      Json g = Json::object();
      g["events_submitted"] = serving.gate_events_submitted;
      g["events_dispatched"] = serving.gate_events_dispatched;
      g["batches"] = serving.gate_batches;
      g["waves"] = serving.gate_waves;
      g["serial_fallback_batches"] = serving.gate_serial_fallback_batches;
      g["mean_wave_occupancy"] = serving.gate_mean_wave_occupancy;
      s["write_gate"] = std::move(g);
    }
    j["serving"] = std::move(s);
  }
  if (include_per_rank) {
    Json ranks = Json::array();
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      const RankGaugeSample& g = per_rank[r];
      Json jr = Json::object();
      jr["rank"] = r;
      jr["queue_depth"] = g.queue_depth;
      jr["ring_occupancy"] = g.ring_occupancy;
      jr["overflow_depth"] = g.overflow_depth;
      jr["events_ingested"] = g.events_ingested;
      jr["events_applied"] = g.events_applied;
      jr["converged_through"] = g.converged_through;
      jr["staleness_ns"] = g.staleness_ns;
      jr["idle"] = g.idle;
      if (g.trace_emitted) jr["trace_emitted"] = g.trace_emitted;
      ranks.push_back(std::move(jr));
    }
    j["per_rank"] = std::move(ranks);
  }
  return j;
}

std::string prom_sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

void PromWriter::header(std::string_view name, std::string_view help,
                        std::string_view type) {
  const std::string clean = prom_sanitize_name(name);
  for (const std::string& seen : headers_emitted_)
    if (seen == clean) return;
  headers_emitted_.push_back(clean);
  out_ += strfmt("# HELP %s %.*s\n", clean.c_str(), static_cast<int>(help.size()),
                 help.data());
  out_ += strfmt("# TYPE %s %.*s\n", clean.c_str(), static_cast<int>(type.size()),
                 type.data());
}

void PromWriter::value(std::string_view name, std::uint64_t v) {
  out_ += strfmt("%s %llu\n", prom_sanitize_name(name).c_str(),
                 static_cast<unsigned long long>(v));
}

void PromWriter::value(std::string_view name, std::int64_t v) {
  out_ += strfmt("%s %lld\n", prom_sanitize_name(name).c_str(),
                 static_cast<long long>(v));
}

void PromWriter::value(std::string_view name, double v) {
  out_ += strfmt("%s %.9f\n", prom_sanitize_name(name).c_str(), v);
}

void PromWriter::labelled(std::string_view name, std::string_view key,
                          std::string_view label, std::uint64_t v) {
  out_ += strfmt("%s{%.*s=\"%.*s\"} %llu\n", prom_sanitize_name(name).c_str(),
                 static_cast<int>(key.size()), key.data(),
                 static_cast<int>(label.size()), label.data(),
                 static_cast<unsigned long long>(v));
}

std::string GaugeSample::to_prometheus() const {
  PromWriter w;
  w.header("remo_events_ingested_total",
           "Topology events accepted into the system", "counter");
  w.value("remo_events_ingested_total", events_ingested);
  w.header("remo_events_applied_total",
           "Topology events applied (store mutation + local callbacks)",
           "counter");
  w.value("remo_events_applied_total", events_applied);
  w.header("remo_converged_through",
           "Ingested-event watermark through which state is converged", "gauge");
  w.value("remo_converged_through", converged_through);
  w.header("remo_convergence_lag_events",
           "Events ingested but not yet reflected in converged state", "gauge");
  w.value("remo_convergence_lag_events", convergence_lag_events);
  w.header("remo_staleness_seconds",
           "Wall-clock age of the converged watermark (0 when caught up)",
           "gauge");
  w.value("remo_staleness_seconds", static_cast<double>(staleness_ns) / 1e9);
  w.header("remo_in_flight_messages",
           "Basic visitors injected but not fully processed", "gauge");
  w.value("remo_in_flight_messages", static_cast<std::int64_t>(in_flight));
  w.header("remo_idle_ranks", "Ranks currently parked waiting for work", "gauge");
  w.value("remo_idle_ranks", std::uint64_t{idle_ranks});
  w.header("remo_termination_probe_rounds_total",
           "Safra token circuits completed (0 in counting mode)", "counter");
  w.value("remo_termination_probe_rounds_total", safra_probe_rounds);
  w.header("remo_queue_depth",
           "Undrained ingress visitors (mailbox + loop-back)", "gauge");
  for (std::size_t r = 0; r < per_rank.size(); ++r)
    w.labelled("remo_queue_depth", "rank", strfmt("%zu", r),
               per_rank[r].queue_depth);
  w.header("remo_ring_occupancy",
           "Visitors parked in the mailbox SPSC rings", "gauge");
  for (std::size_t r = 0; r < per_rank.size(); ++r)
    w.labelled("remo_ring_occupancy", "rank", strfmt("%zu", r),
               per_rank[r].ring_occupancy);
  w.header("remo_overflow_depth",
           "Visitors in the mailbox overflow segment", "gauge");
  for (std::size_t r = 0; r < per_rank.size(); ++r)
    w.labelled("remo_overflow_depth", "rank", strfmt("%zu", r),
               per_rank[r].overflow_depth);
  w.header("remo_rank_events_applied_total",
           "Topology events applied by each rank", "counter");
  for (std::size_t r = 0; r < per_rank.size(); ++r)
    w.labelled("remo_rank_events_applied_total", "rank", strfmt("%zu", r),
               per_rank[r].events_applied);
  w.header("remo_rank_idle", "1 while the rank is parked", "gauge");
  for (std::size_t r = 0; r < per_rank.size(); ++r)
    w.labelled("remo_rank_idle", "rank", strfmt("%zu", r),
               std::uint64_t{per_rank[r].idle ? 1u : 0u});
  if (serving.present) {
    w.header("remo_serve_queries_total", "Catalog queries answered", "counter");
    w.value("remo_serve_queries_total", serving.queries_served);
    w.header("remo_serve_refreshes_total", "Views published (all programs)",
             "counter");
    w.value("remo_serve_refreshes_total", serving.refreshes);
    w.header("remo_serve_programs", "Active serving slots", "gauge");
    w.value("remo_serve_programs", serving.served_programs);
    w.header("remo_serve_read_epoch_lag_events",
             "Accepted events the stalest published view may be missing",
             "gauge");
    w.value("remo_serve_read_epoch_lag_events", serving.read_epoch_lag_events);
    w.header("remo_serve_view_age_seconds",
             "Age of the oldest active published view", "gauge");
    w.value("remo_serve_view_age_seconds",
            static_cast<double>(serving.view_age_ns) / 1e9);
    // No batch readable yet (or no gate wired): no percentile to report,
    // and a 0 would read as instantly fresh.
    if (serving.freshness_samples > 0) {
      w.header("remo_freshness_p50_seconds",
               "Median write-to-readable freshness", "gauge");
      w.value("remo_freshness_p50_seconds",
              static_cast<double>(serving.freshness_p50_ns) / 1e9);
      w.header("remo_freshness_p99_seconds", "p99 write-to-readable freshness",
               "gauge");
      w.value("remo_freshness_p99_seconds",
              static_cast<double>(serving.freshness_p99_ns) / 1e9);
    }
    if (serving.gate_present) {
      w.header("remo_gate_events_submitted_total",
               "Events enqueued at the write gate", "counter");
      w.value("remo_gate_events_submitted_total", serving.gate_events_submitted);
      w.header("remo_gate_events_dispatched_total",
               "Events the gate injected into the engine", "counter");
      w.value("remo_gate_events_dispatched_total",
              serving.gate_events_dispatched);
      w.header("remo_gate_batches_total", "Batches the gate dispatched",
               "counter");
      w.value("remo_gate_batches_total", serving.gate_batches);
      w.header("remo_gate_waves_total", "Conflict-free waves dispatched",
               "counter");
      w.value("remo_gate_waves_total", serving.gate_waves);
      w.header("remo_gate_serial_fallback_batches_total",
               "Batches injected serially (conflict-dominated)", "counter");
      w.value("remo_gate_serial_fallback_batches_total",
              serving.gate_serial_fallback_batches);
      w.header("remo_gate_mean_wave_occupancy",
               "Mean events per wave over non-fallback batches", "gauge");
      w.value("remo_gate_mean_wave_occupancy", serving.gate_mean_wave_occupancy);
    }
  }
  return w.str();
}

namespace {

std::string ns_short(std::uint64_t ns) {
  if (ns >= 10'000'000'000ull)
    return strfmt("%.0fs", static_cast<double>(ns) / 1e9);
  if (ns >= 1'000'000'000ull)
    return strfmt("%.1fs", static_cast<double>(ns) / 1e9);
  if (ns >= 1'000'000ull) return strfmt("%.0fms", static_cast<double>(ns) / 1e6);
  if (ns >= 1'000ull) return strfmt("%.0fus", static_cast<double>(ns) / 1e3);
  return strfmt("%lluns", static_cast<unsigned long long>(ns));
}

}  // namespace

std::string GaugeSample::watch_view() const {
  std::string out;
  out += strfmt(
      "t=%-8s ingested %s  applied %s  lag %s ev / %s  in-flight %lld  idle "
      "%u/%zu%s\n",
      ns_short(sample_ns).c_str(), with_commas(events_ingested).c_str(),
      with_commas(events_applied).c_str(),
      with_commas(convergence_lag_events).c_str(),
      ns_short(staleness_ns).c_str(), static_cast<long long>(in_flight),
      idle_ranks, per_rank.size(), quiescent ? "  [quiescent]" : "");
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    const RankGaugeSample& g = per_rank[r];
    out += strfmt("  rank %-3zu %-5s queue %-9s applied %-12s stale %s\n", r,
                  g.idle ? "idle" : "busy", with_commas(g.queue_depth).c_str(),
                  with_commas(g.events_applied).c_str(),
                  ns_short(g.staleness_ns).c_str());
  }
  return out;
}

}  // namespace remo::obs
