// Sampled on-CPU stacks and process resource usage.
//
// StackSampler: a sampler thread periodically signals registered rank
// threads with SIGPROF, the handler captures a backtrace into a scratch
// slot, and stacks are folded into flamegraph-compatible
// "frame;frame;frame count" lines (`remo ingest|serve --folded FILE`).
//
// ProcRusage: one RUSAGE_SELF reading, the block every BENCH report
// carries.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.hpp"

namespace remo::obs {

// ---------------------------------------------------------------------------
// Process rusage

struct ProcRusage {
  std::uint64_t user_ns = 0;
  std::uint64_t sys_ns = 0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
};

/// RUSAGE_SELF reading (zeros where the platform lacks getrusage).
ProcRusage read_proc_rusage() noexcept;
Json proc_rusage_json(const ProcRusage& r);

// ---------------------------------------------------------------------------
// Sampled on-CPU stacks (folded / flamegraph output)

/// Periodically interrupts registered threads with SIGPROF, captures their
/// backtraces, and folds them into "label;frame;frame count" lines
/// (root-first — `flamegraph.pl` / speedscope compatible). At most one
/// instance may be running at a time (the signal handler needs a global
/// scratch slot). Symbolication happens once, at fold time.
struct StackSamplerConfig {
  std::uint32_t period_us = 1000;  ///< sampling period per target thread
  std::uint32_t max_depth = 48;
};

class StackSampler {
 public:
  using Config = StackSamplerConfig;

  /// Platform support (Linux with <execinfo.h>); false => start() refuses.
  static bool supported() noexcept;

  explicit StackSampler(Config cfg = {});
  ~StackSampler();

  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Spawn the sampler thread. False when unsupported or another sampler
  /// is already running.
  bool start();
  /// Stop sampling and join the sampler thread (idempotent). Must happen
  /// before any registered thread exits.
  void stop();
  bool running() const noexcept;

  /// Register the calling thread as a sampling target under `label`
  /// (used as the folded stack's root frame).
  void register_current_thread(std::string label);

  std::uint64_t samples() const noexcept;
  std::uint64_t missed() const noexcept;  ///< signals with no capture in time

  /// Stop (if running) and render the folded, symbolised stacks, sorted
  /// for determinism.
  std::string folded();
  bool write_folded(const std::string& path);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace remo::obs
