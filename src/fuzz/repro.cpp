#include "fuzz/repro.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "common/strfmt.hpp"

namespace remo::fuzz {
namespace {

const char* termination_name(TerminationMode m) noexcept {
  return m == TerminationMode::kSafra ? "safra" : "counting";
}

bool termination_from_name(const std::string& s, TerminationMode& out) {
  if (s == "counting") {
    out = TerminationMode::kCounting;
    return true;
  }
  if (s == "safra") {
    out = TerminationMode::kSafra;
    return true;
  }
  return false;
}

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

// Strict unsigned parse: the whole token must be digits (no sign, no
// trailing junk) so a hand-edited repro with a typo is rejected loudly.
bool parse_u64(const std::string& tok, std::uint64_t& out) {
  if (tok.empty() || tok.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char ch : tok) {
    if (ch < '0' || ch > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(ch - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

bool parse_u32(const std::string& tok, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(tok, v) || v > UINT32_MAX) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_bool(const std::string& tok, bool& out) {
  if (tok == "0") {
    out = false;
    return true;
  }
  if (tok == "1") {
    out = true;
    return true;
  }
  return false;
}

}  // namespace

std::string repro_to_text(const FuzzCase& fc, const RunOptions& run) {
  const CaseConfig& c = fc.config;
  std::string out;
  out.reserve(256 + fc.events.size() * 16);
  out += kReproMagic;
  out += '\n';
  auto kv = [&out](const char* key, const std::string& value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  };
  kv("seed", std::to_string(fc.seed));
  kv("algo", algo_name(c.algo));
  kv("ranks", std::to_string(c.ranks));
  kv("streams", std::to_string(c.streams));
  kv("termination", termination_name(c.termination));
  kv("coalesce", c.coalesce ? "1" : "0");
  kv("batch_size", std::to_string(c.batch_size));
  kv("ring_capacity", std::to_string(c.ring_capacity));
  kv("stream_chunk", std::to_string(c.stream_chunk));
  kv("chaos_delay_us", std::to_string(c.chaos_delay_us));
  kv("nbr_cache_filter", c.nbr_cache_filter ? "1" : "0");
  kv("promote_threshold", std::to_string(c.promote_threshold));
  kv("schedule_seed", std::to_string(c.schedule_seed));
  kv("drop_nth_update", std::to_string(c.drop_nth_update));
  kv("source", std::to_string(fc.source));
  if (run.query_observer) kv("query_observer", "1");
  kv("events", std::to_string(fc.events.size()));
  for (const EdgeEvent& e : fc.events) {
    out += e.op == EdgeOp::kAdd ? 'a' : 'd';
    out += ' ';
    out += std::to_string(e.src);
    out += ' ';
    out += std::to_string(e.dst);
    out += ' ';
    out += std::to_string(e.weight);
    out += '\n';
  }
  return out;
}

bool repro_from_text(const std::string& text, FuzzCase& out,
                     std::string* error, RunOptions* run) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kReproMagic)
    return fail(error, strfmt("bad magic: expected \"%s\"", kReproMagic));

  FuzzCase fc;
  CaseConfig& c = fc.config;
  RunOptions recorded;
  // Track which keys landed so a truncated header is an error, not a
  // silently defaulted config.
  bool seen[16] = {};
  std::size_t num_events = 0;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) return fail(error, strfmt("line %zu: empty line", line_no));
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos)
      return fail(error, strfmt("line %zu: expected \"key value\"", line_no));
    const std::string key = line.substr(0, sp);
    const std::string val = line.substr(sp + 1);
    bool ok = true;
    if (key == "seed") {
      ok = parse_u64(val, fc.seed);
      seen[0] = true;
    } else if (key == "algo") {
      ok = algo_from_name(val, c.algo);
      seen[1] = true;
    } else if (key == "ranks") {
      ok = parse_u32(val, c.ranks) && c.ranks >= 1;
      seen[2] = true;
    } else if (key == "streams") {
      ok = parse_u32(val, c.streams) && c.streams >= 1;
      seen[3] = true;
    } else if (key == "termination") {
      ok = termination_from_name(val, c.termination);
      seen[4] = true;
    } else if (key == "coalesce") {
      ok = parse_bool(val, c.coalesce);
      seen[5] = true;
    } else if (key == "batch_size") {
      ok = parse_u32(val, c.batch_size) && c.batch_size >= 1;
      seen[6] = true;
    } else if (key == "ring_capacity") {
      ok = parse_u32(val, c.ring_capacity) && c.ring_capacity >= 2;
      seen[7] = true;
    } else if (key == "stream_chunk") {
      ok = parse_u32(val, c.stream_chunk) && c.stream_chunk >= 1;
      seen[8] = true;
    } else if (key == "chaos_delay_us") {
      ok = parse_u32(val, c.chaos_delay_us);
      seen[9] = true;
    } else if (key == "nbr_cache_filter") {
      ok = parse_bool(val, c.nbr_cache_filter);
      seen[10] = true;
    } else if (key == "promote_threshold") {
      ok = parse_u32(val, c.promote_threshold) && c.promote_threshold >= 1;
      seen[11] = true;
    } else if (key == "schedule_seed") {
      ok = parse_u64(val, c.schedule_seed);
      seen[12] = true;
    } else if (key == "drop_nth_update") {
      ok = parse_u32(val, c.drop_nth_update);
      seen[13] = true;
    } else if (key == "source") {
      ok = parse_u64(val, fc.source);
      seen[14] = true;
    } else if (key == "query_observer") {
      ok = parse_bool(val, recorded.query_observer);
    } else if (key == "events") {
      std::uint64_t n = 0;
      ok = parse_u64(val, n);
      seen[15] = true;
      if (ok) {
        num_events = static_cast<std::size_t>(n);
        break;  // event lines follow
      }
    } else {
      return fail(error, strfmt("line %zu: unknown key \"%s\"", line_no,
                                key.c_str()));
    }
    if (!ok)
      return fail(error, strfmt("line %zu: bad value for \"%s\"", line_no,
                                key.c_str()));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    if (!seen[i]) {
      static const char* kKeys[16] = {
          "seed",           "algo",          "ranks",
          "streams",        "termination",   "coalesce",
          "batch_size",     "ring_capacity", "stream_chunk",
          "chaos_delay_us", "nbr_cache_filter", "promote_threshold",
          "schedule_seed",  "drop_nth_update",  "source",
          "events"};
      return fail(error, strfmt("missing key \"%s\"", kKeys[i]));
    }
  }

  fc.events.reserve(num_events);
  while (std::getline(in, line)) {
    ++line_no;
    if (fc.events.size() == num_events)
      return fail(error, strfmt("line %zu: more than %zu event lines", line_no,
                                num_events));
    std::istringstream ls(line);
    std::string op, src, dst, weight, extra;
    if (!(ls >> op >> src >> dst >> weight) || (ls >> extra) ||
        (op != "a" && op != "d"))
      return fail(error,
                  strfmt("line %zu: expected \"a|d <src> <dst> <weight>\"",
                         line_no));
    EdgeEvent e;
    e.op = op == "a" ? EdgeOp::kAdd : EdgeOp::kDelete;
    std::uint32_t w = 0;
    if (!parse_u64(src, e.src) || !parse_u64(dst, e.dst) ||
        !parse_u32(weight, w))
      return fail(error, strfmt("line %zu: bad event operand", line_no));
    e.weight = w;
    fc.events.push_back(e);
  }
  if (fc.events.size() != num_events)
    return fail(error, strfmt("expected %zu event lines, found %zu", num_events,
                              fc.events.size()));
  out = std::move(fc);
  if (run) *run = recorded;
  return true;
}

bool write_repro(const std::string& path, const FuzzCase& fc,
                 std::string* error, const RunOptions& run) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return fail(error, strfmt("cannot open %s for write", path.c_str()));
  const std::string text = repro_to_text(fc, run);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  f.flush();
  if (!f) return fail(error, strfmt("write to %s failed", path.c_str()));
  return true;
}

bool read_repro(const std::string& path, FuzzCase& out, std::string* error,
                RunOptions* run) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return fail(error, strfmt("cannot open %s", path.c_str()));
  std::ostringstream ss;
  ss << f.rdbuf();
  return repro_from_text(ss.str(), out, error, run);
}

}  // namespace remo::fuzz
