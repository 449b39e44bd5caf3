// Bridge from the serving plane's stats to the obs layer's gauge stream:
// fill_serving_gauges() copies ServeStats / WriteGateStats into
// GaugeSample::serving, so a MetricsExporter sampler that wraps
// Engine::sample_gauges() surfaces the whole serving plane in Prometheus
// and JSONL output. Lives in src/serve (not src/obs) so the dependency
// points the right way: obs defines the plain ServingGauges struct, serve
// knows how to fill it.
#pragma once

#include "obs/gauges.hpp"
#include "serve/query_service.hpp"
#include "serve/write_gate.hpp"

namespace remo::serve {

/// Fill `sample.serving` from whichever serving components exist (either
/// may be nullptr). Each source is a lock-protected stats read — cheap at
/// exporter cadence, not per-event.
inline void fill_serving_gauges(obs::GaugeSample& sample,
                                const QueryService* service,
                                const WriteGate* gate) {
  obs::ServingGauges& out = sample.serving;
  if (!service && !gate) return;
  out.present = true;
  if (service) {
    const ServeStats st = service->stats();
    out.queries_served = st.queries_served;
    out.refreshes = st.refreshes;
    out.served_programs = st.served_programs;
    out.read_epoch_lag_events = st.read_epoch_lag_events;
    out.view_age_ns = st.view_age_ns;
    out.freshness_samples = st.freshness_samples;
    out.freshness_p50_ns = st.freshness_p50_ns;
    out.freshness_p99_ns = st.freshness_p99_ns;
    out.freshness_pending = st.freshness_pending;
    out.freshness_dropped = st.freshness_dropped;
  }
  if (gate) {
    const WriteGateStats gs = gate->stats();
    out.gate_present = true;
    out.gate_events_submitted = gs.events_submitted;
    out.gate_events_dispatched = gs.events_dispatched;
    out.gate_batches = gs.batches;
    out.gate_waves = gs.waves;
    out.gate_serial_fallback_batches = gs.serial_fallback_batches;
    out.gate_mean_wave_occupancy = gs.mean_wave_occupancy;
  }
}

}  // namespace remo::serve
