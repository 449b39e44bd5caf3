#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common/json.hpp"

namespace remo::obs {

bool write_chrome_trace(const std::string& path, const std::string& process_name,
                        const std::vector<TraceTrack>& tracks) {
  Json root = Json::object();
  Json events = Json::array();

  // Process / thread metadata so Perfetto shows named tracks.
  {
    Json meta = Json::object();
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = 0;
    meta["tid"] = 0;
    meta["args"]["name"] = process_name;
    events.push_back(std::move(meta));
  }
  for (const TraceTrack& track : tracks) {
    Json meta = Json::object();
    meta["name"] = "thread_name";
    meta["ph"] = "M";
    meta["pid"] = 0;
    meta["tid"] = track.tid;
    meta["args"]["name"] = track.label;
    events.push_back(std::move(meta));
  }

  for (const TraceTrack& track : tracks) {
    // Ring order is append order, which is chronological per writer; sort
    // defensively anyway so the monotonic-per-track guarantee is structural.
    std::vector<TraceEvent> sorted = track.events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    for (const TraceEvent& e : sorted) {
      Json j = Json::object();
      j["name"] = e.name ? e.name : "?";
      j["ph"] = "X";
      j["ts"] = static_cast<double>(e.ts_ns) / 1e3;   // microseconds
      j["dur"] = static_cast<double>(e.dur_ns) / 1e3;
      j["pid"] = 0;
      j["tid"] = track.tid;
      if (e.arg_name) j["args"][e.arg_name] = e.arg_value;
      events.push_back(std::move(j));
    }
  }

  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = "ms";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string text = root.dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace remo::obs
