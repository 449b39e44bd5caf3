#include "obs/stats.hpp"

#include "common/strfmt.hpp"

namespace remo::obs {

Json histogram_to_json(const HistogramSnapshot& h) {
  Json j = Json::object();
  j["count"] = h.count;
  if (h.count > 0) {
    j["min_ns"] = h.min;
    j["mean_ns"] = h.mean();
    j["p50_ns"] = h.p50();
    j["p90_ns"] = h.p90();
    j["p99_ns"] = h.p99();
    j["p999_ns"] = h.p999();
    j["max_ns"] = h.max;
  }
  return j;
}

Json phases_to_json(const PhaseSnapshot& p) {
  Json j = Json::object();
  for (std::size_t i = 0; i < kPhaseCount; ++i)
    j[std::string(phase_name(static_cast<Phase>(i))) + "_ns"] = p.ns[i];
  return j;
}

namespace {

Json counters_to_json(const MetricsSummary& c) {
  Json j = Json::object();
  j["topology_events"] = c.topology_events;
  j["algorithm_events"] = c.algorithm_events;
  j["messages_sent"] = c.messages_sent;
  j["remote_messages"] = c.remote_messages;
  j["local_messages"] = c.local_messages;
  j["control_messages"] = c.control_messages;
  j["edges_stored"] = c.edges_stored;
  j["coalesced_sends"] = c.coalesced_sends;
  j["receiver_merges"] = c.receiver_merges;
  j["ring_overflows"] = c.ring_overflows;
  return j;
}

MetricsSummary summary_of(const RankMetrics& m) {
  MetricsSummary s;
  s.topology_events = m.topology_events;
  s.algorithm_events = m.algorithm_events;
  s.messages_sent = m.messages_sent;
  s.remote_messages = m.remote_messages;
  s.local_messages = m.local_messages;
  s.edges_stored = m.edges_stored;
  s.control_messages = m.control_messages;
  s.coalesced_sends = m.coalesced_sends;
  s.receiver_merges = m.receiver_merges;
  s.ring_overflows = m.ring_overflows;
  return s;
}

}  // namespace

Json MetricsSnapshot::to_json(bool include_per_rank) const {
  Json j = Json::object();
  j["schema"] = "remo-stats-1";
  j["ranks"] = per_rank.size();
  j["counters"] = counters_to_json(counters);
  j["update_latency"] = histogram_to_json(update_latency_ns);
  j["phases"] = phases_to_json(phases);
  if (include_per_rank) {
    Json ranks = Json::array();
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
      Json jr = Json::object();
      jr["rank"] = r;
      jr["counters"] = counters_to_json(summary_of(per_rank[r].counters));
      jr["update_latency"] = histogram_to_json(per_rank[r].update_latency_ns);
      jr["phases"] = phases_to_json(per_rank[r].phases);
      ranks.push_back(std::move(jr));
    }
    j["per_rank"] = std::move(ranks);
  }
  return j;
}

namespace {

std::string ns_human(std::uint64_t ns) {
  if (ns >= 1'000'000'000) return strfmt("%.2f s", static_cast<double>(ns) / 1e9);
  if (ns >= 1'000'000) return strfmt("%.2f ms", static_cast<double>(ns) / 1e6);
  if (ns >= 1'000) return strfmt("%.2f us", static_cast<double>(ns) / 1e3);
  return strfmt("%llu ns", static_cast<unsigned long long>(ns));
}

}  // namespace

std::string MetricsSnapshot::to_text() const {
  std::string out;
  out += strfmt("counters (%zu ranks):\n", per_rank.size());
  out += strfmt("  topology_events   %s\n", with_commas(counters.topology_events).c_str());
  out += strfmt("  algorithm_events  %s\n", with_commas(counters.algorithm_events).c_str());
  out += strfmt("  messages_sent     %s (%s local, %s remote, %s control)\n",
                with_commas(counters.messages_sent).c_str(),
                with_commas(counters.local_messages).c_str(),
                with_commas(counters.remote_messages).c_str(),
                with_commas(counters.control_messages).c_str());
  out += strfmt("  edges_stored      %s\n", with_commas(counters.edges_stored).c_str());
  if (counters.coalesced_sends || counters.receiver_merges ||
      counters.ring_overflows) {
    out += strfmt("  coalesced         %s send-side, %s receiver-side (%s ring overflows)\n",
                  with_commas(counters.coalesced_sends).c_str(),
                  with_commas(counters.receiver_merges).c_str(),
                  with_commas(counters.ring_overflows).c_str());
  }
  const HistogramSnapshot& h = update_latency_ns;
  if (h.count > 0) {
    out += strfmt("per-update latency (%s samples):\n", with_commas(h.count).c_str());
    out += strfmt("  p50 %s   p90 %s   p99 %s   p99.9 %s\n",
                  ns_human(h.p50()).c_str(), ns_human(h.p90()).c_str(),
                  ns_human(h.p99()).c_str(), ns_human(h.p999()).c_str());
    out += strfmt("  min %s   mean %s   max %s\n", ns_human(h.min).c_str(),
                  ns_human(static_cast<std::uint64_t>(h.mean())).c_str(),
                  ns_human(h.max).c_str());
  } else {
    out += "per-update latency: no samples (histograms disabled?)\n";
  }
  out += "phase time (summed across ranks):\n";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto p = static_cast<Phase>(i);
    out += strfmt("  %-15s %s\n", phase_name(p), ns_human(phases[p]).c_str());
  }
  return out;
}

}  // namespace remo::obs
