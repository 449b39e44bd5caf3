// remo-bench: what one invocation runs and measures.
//
// A Workload builds its inputs from the seed, sets up a served engine,
// drives the timed phase, and checks its final answers against the static
// oracles. Run collects everything measured on the way; remo_bench.cpp turns
// it into the printed result and, in the traced pass, the span file.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"

namespace remo_bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< the traced pass: per-layer metrics instead of end-to-end
  bool smoke = false;  ///< shrunken inputs, for the build-time check
  std::string trace_out;
};

using ViewList = std::vector<std::pair<remo::ProgramId, remo::serve::ViewRole>>;

inline std::vector<remo::EdgeEvent> to_events(const remo::EdgeList& edges) {
  std::vector<remo::EdgeEvent> out;
  out.reserve(edges.size());
  for (const remo::Edge& e : edges)
    out.push_back(remo::EdgeEvent{e.src, e.dst, e.weight, remo::EdgeOp::kAdd});
  return out;
}

/// Events in batches of 16 Ki, each split round-robin into one stream per
/// rank: one Engine::ingest call apiece. Batches bound the engine's backlog,
/// so its memory does not depend on how a flood happened to interleave.
std::vector<remo::StreamSet> ingest_batches(const std::vector<remo::EdgeEvent>& events,
                                            remo::RankId ranks);

/// Attaches a workload's programs to a fresh engine (and instantiates them);
/// returns the views the workload serves.
using AttachFn = std::function<ViewList(remo::Engine&)>;

/// An engine with its programs attached and their first views published.
struct Served {
  std::unique_ptr<remo::Engine> engine;
  std::unique_ptr<remo::serve::QueryService> qs;  // declared after: destroyed first
  ViewList views;

  /// Tear down service then engine (move-assignment would free the engine
  /// first, under a live service).
  void reset() {
    qs.reset();
    engine.reset();
    views.clear();
  }
};

/// Everything one invocation measures.
struct Run {
  explicit Run(const Options& o) : opt(o), gauges(o.trace) {}

  const Options& opt;
  Spans spans;
  GaugePoller gauges;
  EngineLedger ledger;
  CutRecorder cuts;

  Samples setup_s;
  Samples batch_ms;                // end-to-end latency of each write batch
  Samples traced_ms, untraced_ms;  // batch_ms split by the span switch
  Samples late_us;                 // how late the generator sent each batch
  Samples read_ns;                 // point-read cost
  Samples refresh_ms;              // one publish of every served view
  Samples read_lag_events;         // QueryService read-epoch lag

  std::uint64_t batches = 0;  // write batches sent in the timed phase
  std::uint64_t reads = 0;    // point reads made in the timed phase
  std::uint64_t failed = 0;   // batches that never became visible
  std::uint64_t events = 0;   // events sent in the timed phase
  Windows windows;            // throughput and CPU cost per window
  double busy_s = 0;    // closed loop: wall time inside batches
  double repair_s = 0;  // part of busy_s spent in Engine::repair
  double timed_s = 0;   // wall time of the timed phase
  double rss_mb = 0;    // peak RSS at the end of the timed phase
  double inputs_s = 0;
  double bytes_per_edge = 0;
  double wave_occupancy = 0, parallel_wave_share = 0;
  double reads_per_s = 0;

  // Correctness against the oracles.
  std::uint64_t checked = 0, wrong = 0;
  std::uint64_t wrong_allowed = 0;  // serve: stale answers of a known library bug
  std::uint64_t settled_wrong = 0;  // serve: wrong in a second publish, at quiescence
  double max_rel_err = 0;

  // Probes of the traced pass.
  double insert_ns = 0, lookup_ns = 0, erase_ns = 0;
  double events_per_s_1rank = 0;

  /// Batch `b` starts: in the traced pass even batches record spans.
  void start_batch(std::int64_t b) { spans.enabled = opt.trace && b % 2 == 0; }

  void record_batch(double ms, bool traced) {
    batch_ms.add(ms);
    (traced ? traced_ms : untraced_ms).add(ms);
    block_.add(ms);
    if (block_.size() == kBlock) {
      block_p99_ms.add(block_.pct(99));
      block_ = Samples{};
    }
  }

  /// The 99th percentile of each block of 1000 consecutive batches, median
  /// over blocks: one host stall spoils one block, not the run's tail.
  double batch_p99_ms() const {
    return block_p99_ms.size() ? block_p99_ms.median() : block_.pct(99);
  }

  static constexpr std::size_t kBlock = 1000;
  Samples block_, block_p99_ms;

  /// Bracket the timed phase on one engine.
  void begin_timed(const remo::Engine& e) {
    ledger.begin(e);
    gauges.watch(&e);
  }
  void end_timed(const remo::Engine& e) {
    gauges.watch(nullptr);
    ledger.end(e);
    bytes_per_edge = e.total_stored_edges()
                         ? static_cast<double>(e.store_memory_bytes()) /
                               static_cast<double>(e.total_stored_edges())
                         : 0.0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input from the seed.
  virtual void generate(Run& run) = 0;
  /// Set-ups the harness times before the timed phase; the last one is kept.
  virtual int setups() const { return 3; }
  /// Engine, programs, `preload` and first view publish.
  void setup(Run& run);
  virtual void timed(Run& run) = 0;
  /// Check the final served answers against the static oracles.
  virtual void verify(Run& run) = 0;

  /// The base graph: the storage replay and the one-rank ingest use it.
  virtual const remo::EdgeList& base() const = 0;
  virtual remo::RankId ranks() const = 0;
  virtual AttachFn attach() const = 0;
  /// Vertex ids are below this bound (reads pick from it).
  virtual remo::VertexId id_space() const = 0;
  /// True when the timed phase measured reads itself.
  virtual bool live_reads() const { return false; }

  Served served;
  std::vector<remo::StreamSet> preload;  ///< the base graph, in ingest batches

  /// Pairs the traced pass's storage probe looks up and erases: the ones the
  /// timed phase mutated or deleted, in order, or the base edges when empty.
  remo::EdgeList lookup_pairs, erase_pairs;
  /// Keeps a pair for the probe: traced pass only, at most kProbePairs.
  static void keep_pair(const Run& run, remo::EdgeList& pairs, const remo::Edge& e) {
    if (run.opt.trace && pairs.size() < kProbePairs) pairs.push_back(e);
  }
  static constexpr std::size_t kProbePairs = std::size_t{1} << 18;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const Options& opt);

}  // namespace remo_bench
