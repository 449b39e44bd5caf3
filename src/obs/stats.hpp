// The engine's consolidated observability snapshot.
//
// `Engine::metrics_snapshot()` returns one of these: flat counters (the
// original six plus local/remote split), the merged per-update latency
// histogram, and per-phase wall-clock accounting — per rank and aggregated.
// `to_json()` is the schema behind `remo ingest --stats-json` and the
// latency block of BENCH_*.json (documented in docs/OBSERVABILITY.md).
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/histogram.hpp"
#include "obs/phase_timer.hpp"
#include "runtime/metrics.hpp"

namespace remo::obs {

struct RankObs {
  RankMetrics counters;
  HistogramSnapshot update_latency_ns;
  PhaseSnapshot phases;
};

struct MetricsSnapshot {
  MetricsSummary counters;
  HistogramSnapshot update_latency_ns;  ///< merged across ranks
  PhaseSnapshot phases;                 ///< summed across ranks
  std::vector<RankObs> per_rank;

  /// Latency percentiles + counters + phases as a JSON object
  /// (schema "remo-stats-1"; see docs/OBSERVABILITY.md).
  Json to_json(bool include_per_rank = true) const;

  /// Human-readable multi-line rendering (the CLI's --stats output).
  std::string to_text() const;
};

/// The percentile block shared by stats snapshots and bench reports:
/// {count, min_ns, mean_ns, p50_ns, p90_ns, p99_ns, p999_ns, max_ns}.
Json histogram_to_json(const HistogramSnapshot& h);

Json phases_to_json(const PhaseSnapshot& p);

}  // namespace remo::obs
