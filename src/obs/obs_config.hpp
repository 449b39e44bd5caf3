// Observability switches, embedded in EngineConfig as `obs`.
#pragma once

#include <cstddef>
#include <cstdint>

namespace remo::obs {

struct ObsConfig {
  /// Per-update latency histograms (one per rank, merged on snapshot).
  /// When off, topology-event processing skips its two clock reads.
  bool latency = true;

  /// Sample every 2^shift-th topology event into the latency histogram.
  /// 0 records every event and costs ~2 clock reads per event — measured
  /// at 10-18% of saturation ingest throughput on the bench host, which
  /// is why the default amortises to every 64th event (<0.5% overhead;
  /// the uniform stride keeps the percentiles statistically valid).
  std::uint32_t latency_sample_shift = 6;

  /// Per-phase wall-clock accounting (ingest / propagate / quiesce /
  /// snapshot-drain). Two clock reads per *loop iteration* (not per event),
  /// so the cost is amortised over whole batches.
  bool phase_timers = true;

  /// Chrome-trace event capture. Off by default: the hot path then costs
  /// one branch per loop iteration. (Compile with -DREMO_OBS_NO_TRACE to
  /// remove even that.)
  bool trace = false;

  /// Per-rank trace ring capacity (events). When full, oldest slices are
  /// overwritten; the export records how many were dropped.
  std::size_t trace_capacity = std::size_t{1} << 16;

  /// Sampled on-CPU stacks (obs/stacks.hpp, folded/flamegraph output):
  /// a SIGPROF + backtrace per rank every StackSamplerConfig::period_us.
  bool stacks = false;
};

}  // namespace remo::obs
