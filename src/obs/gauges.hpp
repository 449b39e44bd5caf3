// Live telemetry gauges: watermarks, convergence lag, queue depths, and
// termination-detector state — readable at any time without stopping the
// engine.
//
// The recording side is spread across the structures that already own the
// numbers: `LiveRankMetrics` (applied-event counters), `Mailbox`/`Comm`
// (queue depths, in-flight), `SafraRing` (probe rounds), and a small
// `RankGauges` cell block per rank (ingest watermark, passive watermark,
// idle flag). Everything is a relaxed atomic updated on writes the hot
// path already performs; `Engine::sample_gauges()` assembles one coherent
//-enough `GaugeSample` from those cells on demand.
//
// Watermark semantics (docs/OBSERVABILITY.md has the full treatment):
//  * `events_ingested`  — topology events accepted into the system (stream
//    pulls + API injections). Monotone.
//  * `events_applied`   — topology events whose store mutation + local
//    callbacks have executed. Monotone; equals ingested at quiescence.
//  * `converged_through`— the ingested-count watermark through which the
//    algorithm state is known converged. Observer-advanced: whenever a
//    sample finds the engine quiescent (no in-flight work, empty queues,
//    passive streams), the watermark jumps to the ingested count read
//    *before* the quiescence checks — those events have provably settled.
//  * `convergence_lag_events = events_ingested - converged_through` — the
//    paper's "how far behind is the answer?" in events.
//  * `staleness_ns`     — wall-clock form: 0 when lag is 0, otherwise time
//    since the converged watermark last advanced.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace remo::obs {

/// Map a metric name onto the Prometheus exposition charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]*): '-', '.', and anything else illegal become
/// '_', and a leading digit gains a '_' prefix.
std::string prom_sanitize_name(std::string_view name);

/// Prometheus text-exposition builder with promtool-strict hygiene: every
/// name passes through prom_sanitize_name(), and the HELP/TYPE header for
/// a metric is emitted exactly once per exposition no matter how many
/// sample lines reference it (duplicated headers are a parse error under
/// strict checkers).
class PromWriter {
 public:
  /// Emit `# HELP` / `# TYPE` for `name` unless already emitted.
  void header(std::string_view name, std::string_view help, std::string_view type);

  void value(std::string_view name, std::uint64_t v);
  void value(std::string_view name, std::int64_t v);
  void value(std::string_view name, double v);

  /// One labelled sample line: name{key="label"} v.
  void labelled(std::string_view name, std::string_view key,
                std::string_view label, std::uint64_t v);

  const std::string& str() const noexcept { return out_; }

 private:
  std::string out_;
  std::vector<std::string> headers_emitted_;
};

/// Per-rank live cells beyond what LiveRankMetrics already tracks. Single
/// writer (the owning rank), relaxed-atomic, padded onto their own line so
/// sampler reads never contend with neighbouring hot state.
struct alignas(64) RankGauges {
  /// Stream events this rank pulled (whether applied locally or routed).
  std::atomic<std::uint64_t> events_ingested{0};
  /// events_applied value at the last instant this rank was locally
  /// passive (ingress empty, nothing buffered, streams drained or paused).
  std::atomic<std::uint64_t> converged_through{0};
  /// Engine-relative time of the last locally-passive instant.
  std::atomic<std::uint64_t> last_passive_ns{0};
  /// True while the rank is parked waiting for work.
  std::atomic<bool> idle{false};
};

/// One rank's row in a gauge sample.
struct RankGaugeSample {
  std::uint64_t queue_depth = 0;        ///< mailbox + loop-back backlog
  std::uint64_t ring_occupancy = 0;     ///< visitors parked in the SPSC rings
  std::uint64_t overflow_depth = 0;     ///< visitors in the overflow segment
  std::uint64_t events_ingested = 0;    ///< stream events pulled by this rank
  std::uint64_t events_applied = 0;     ///< topology events applied here
  std::uint64_t converged_through = 0;  ///< applied watermark at last passive
  std::uint64_t staleness_ns = 0;       ///< 0 when idle; else now - last passive
  std::uint64_t trace_emitted = 0;      ///< trace slices emitted (0 if off)
  bool idle = false;                    ///< parked right now
};

/// Serving-plane gauges riding along in a GaugeSample (schema stays
/// "remo-gauges-1"; the block is emitted only when `present`). Filled by
/// the serving layer — serve::fill_serving_gauges() — so dashboards fed by
/// MetricsExporter see the QueryService/WriteGate counters without the obs
/// layer depending on src/serve.
struct ServingGauges {
  bool present = false;

  // QueryService (ServeStats).
  std::uint64_t queries_served = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t served_programs = 0;
  std::uint64_t read_epoch_lag_events = 0;
  std::uint64_t view_age_ns = 0;
  std::uint64_t freshness_samples = 0;
  std::uint64_t freshness_p50_ns = 0;
  std::uint64_t freshness_p99_ns = 0;
  std::uint64_t freshness_pending = 0;
  std::uint64_t freshness_dropped = 0;

  // WriteGate (WriteGateStats); gate_present gates emission.
  bool gate_present = false;
  std::uint64_t gate_events_submitted = 0;
  std::uint64_t gate_events_dispatched = 0;
  std::uint64_t gate_batches = 0;
  std::uint64_t gate_waves = 0;
  std::uint64_t gate_serial_fallback_batches = 0;
  double gate_mean_wave_occupancy = 0.0;
};

/// A point-in-time reading of every live gauge (schema "remo-gauges-1").
struct GaugeSample {
  std::uint64_t sample_ns = 0;  ///< engine-relative monotonic sample time

  // Watermarks & convergence lag.
  std::uint64_t events_ingested = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t converged_through = 0;
  std::uint64_t convergence_lag_events = 0;
  std::uint64_t staleness_ns = 0;

  // Runtime gauges.
  std::int64_t in_flight = 0;      ///< counting detector's live message count
  std::uint64_t queue_depth = 0;   ///< total ingress backlog across ranks
  std::uint32_t idle_ranks = 0;
  double idle_ratio = 0.0;         ///< idle_ranks / ranks
  bool quiescent = false;          ///< this sample observed full quiescence

  // Termination detector.
  bool safra_mode = false;  ///< false = counting detector
  std::uint64_t safra_generation = 0;
  std::uint64_t safra_probe_rounds = 0;
  bool safra_probe_active = false;
  bool safra_terminated = false;

  std::vector<RankGaugeSample> per_rank;

  /// Serving-plane block (absent unless the serving layer filled it).
  ServingGauges serving;

  /// One flight-recorder record (schema "remo-gauges-1"); `dump()` of this
  /// is one JSONL line.
  Json to_json(bool include_per_rank = true) const;

  /// Prometheus text exposition (one scrape's worth, HELP/TYPE included).
  std::string to_prometheus() const;

  /// Refreshing live view: a header plus one line per rank (the CLI's
  /// --watch rendering).
  std::string watch_view() const;
};

}  // namespace remo::obs
