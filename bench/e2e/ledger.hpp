// Measurement plumbing for remo-bench: sample sets, in-memory spans with
// self-time accounting, engine counter deltas, a gauge poller, and process
// resource readings. Everything here observes the library from outside —
// spans wrap calls into its public API and counters come from the snapshots
// the engine already exposes — so the benchmark never changes what it
// measures.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "remo/remo.hpp"

namespace remo_bench {

inline std::uint64_t now_ns() { return remo::obs::monotonic_ns(); }

inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Process user+system CPU seconds (all threads).
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set size of the process so far, MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A set of raw samples. Percentiles interpolate linearly between closest
/// ranks, so a metric moves continuously with its samples instead of
/// snapping to one of them.
class Samples {
 public:
  void add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const noexcept { return v_.size(); }
  /// p in [0, 100]; 0 for an empty set.
  double pct(double p) const {
    if (v_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                       static_cast<double>(v_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (pos - static_cast<double>(lo)) * (v_[hi] - v_[lo]);
  }
  double median() const { return pct(50.0); }

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// Splits a timed phase into windows of about a quarter second of work and
/// keeps each window's throughput and process CPU per event. The end-to-end
/// rates are medians over windows, so a host stall moves one window, not
/// the result.
class Windows {
 public:
  void start() {
    cpu0_ = cpu_seconds();
    events_ = 0;
    work_s_ = 0;
  }
  void add(std::uint64_t events, double work_s) {
    events_ += events;
    work_s_ += work_s;
    if (work_s_ >= kWindowS) {
      close();
      start();
    }
  }
  /// A run too short for one full window still yields one.
  void finish() {
    if (rate.size() == 0 && events_ > 0) close();
  }

  Samples rate;    ///< events per second of work
  Samples cpu_us;  ///< process CPU microseconds per event

 private:
  static constexpr double kWindowS = 0.25;
  void close() {
    rate.add(static_cast<double>(events_) / work_s_);
    cpu_us.add((cpu_seconds() - cpu0_) * 1e6 / static_cast<double>(events_));
  }
  double cpu0_ = 0, work_s_ = 0;
  std::uint64_t events_ = 0;
};

/// One recorded span. Names are "<layer>.<operation>" string literals; the
/// layer is the part before the first dot.
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::int64_t batch = -1;   ///< timed-phase batch id; -1 outside the timed phase
  std::uint32_t lane = 1;    ///< chrome-trace thread id
};

/// In-memory span store, written by one thread. Nested spans opened with
/// begin()/end() get their parent from the open-span stack; spans whose
/// interval is only known afterwards (an open-loop write that becomes
/// visible later) are added whole with add().
class Spans {
 public:
  /// Recording switch. The traced pass flips it per batch so that traced
  /// and untraced batches interleave; that pairing is the tracing overhead.
  bool enabled = false;

  std::int32_t begin(const char* name, std::int64_t batch, std::uint32_t lane = 1) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, batch, lane});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void end(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }
  std::int32_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int32_t parent, std::int64_t batch, std::uint32_t lane) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, batch, lane});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& all() const noexcept { return spans_; }

  /// Self time of every span: its duration minus the part of it that its
  /// child spans cover (children of one parent never overlap).
  std::vector<std::uint64_t> self_ns() const {
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent >= 0) {
        std::uint64_t& p = self[static_cast<std::size_t>(s.parent)];
        p -= std::min(p, s.end_ns - s.start_ns);
      }
    return self;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; records nothing while the store's switch is off.
class Scope {
 public:
  Scope(Spans& spans, const char* name, std::int64_t batch)
      : spans_(spans), idx_(spans.enabled ? spans.begin(name, batch) : -1) {}
  ~Scope() {
    if (idx_ >= 0) spans_.end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::int32_t idx_;
};

/// Counter, phase and update-latency deltas caused by the timed phase,
/// summed over every engine it used.
class EngineLedger {
 public:
  void begin(const remo::Engine& e) { start_ = e.metrics_snapshot(); }

  void end(const remo::Engine& e) {
    const remo::obs::MetricsSnapshot now = e.metrics_snapshot();
    const remo::MetricsSummary& a = start_.counters;
    const remo::MetricsSummary& b = now.counters;
    counters.algorithm_events += b.algorithm_events - a.algorithm_events;
    counters.messages_sent += b.messages_sent - a.messages_sent;
    counters.remote_messages += b.remote_messages - a.remote_messages;
    counters.control_messages += b.control_messages - a.control_messages;
    counters.coalesced_sends += b.coalesced_sends - a.coalesced_sends;
    counters.receiver_merges += b.receiver_merges - a.receiver_merges;
    counters.ring_overflows += b.ring_overflows - a.ring_overflows;
    rank_work.resize(std::max(rank_work.size(), now.per_rank.size()));
    for (std::size_t r = 0; r < now.per_rank.size(); ++r) {
      const remo::RankMetrics& x = start_.per_rank[r].counters;
      const remo::RankMetrics& y = now.per_rank[r].counters;
      rank_work[r] += (y.topology_events - x.topology_events) +
                      (y.algorithm_events - x.algorithm_events);
    }
    for (std::size_t i = 0; i < phases.ns.size(); ++i)
      phases.ns[i] += now.phases.ns[i] - start_.phases.ns[i];
    const auto& hb = now.update_latency_ns.counts;
    const auto& ha = start_.update_latency_ns.counts;
    update_hist.resize(remo::obs::hist_detail::kBucketCount);
    for (std::size_t i = 0; i < hb.size(); ++i)
      update_hist[i] += hb[i] - (i < ha.size() ? ha[i] : 0);
  }

  /// Percentile of the per-update latency histogram delta, interpolated
  /// inside the bucket that holds it. Nanoseconds; 0 when empty.
  double update_pct_ns(double p) const {
    std::uint64_t total = 0;
    for (const auto c : update_hist) total += c;
    if (total == 0) return 0.0;
    const double target = p / 100.0 * static_cast<double>(total);
    double seen = 0;
    for (std::uint32_t i = 0; i < update_hist.size(); ++i) {
      const auto c = static_cast<double>(update_hist[i]);
      if (c > 0 && seen + c >= target) {
        const auto lo = static_cast<double>(remo::obs::hist_detail::bucket_lower(i));
        const auto hi = static_cast<double>(remo::obs::hist_detail::bucket_upper(i));
        return lo + (hi - lo) * (target - seen) / c;
      }
      seen += c;
    }
    return 0.0;
  }

  double rank_skew() const {
    if (rank_work.empty()) return 0.0;
    std::uint64_t sum = 0, max = 0;
    for (const auto w : rank_work) {
      sum += w;
      max = std::max(max, w);
    }
    return sum ? static_cast<double>(max) * static_cast<double>(rank_work.size()) /
                     static_cast<double>(sum)
               : 0.0;
  }

  remo::MetricsSummary counters{};
  std::vector<std::uint64_t> rank_work;  ///< topology + algorithm events per rank
  remo::obs::PhaseSnapshot phases{};
  std::vector<std::uint64_t> update_hist;

 private:
  remo::obs::MetricsSnapshot start_;
};

/// Polls Engine::sample_gauges() every 10 ms while an engine is being
/// watched (the traced pass only).
class GaugePoller {
 public:
  explicit GaugePoller(bool enabled) {
    if (enabled) thread_ = std::thread([this] { loop(); });
  }
  ~GaugePoller() { stop(); }
  GaugePoller(const GaugePoller&) = delete;
  GaugePoller& operator=(const GaugePoller&) = delete;

  /// Start (engine) or pause (nullptr) sampling. Returns once no sample of
  /// the previous engine is in progress, so the caller may then destroy it.
  void watch(const remo::Engine* engine) {
    std::lock_guard guard(mu_);
    engine_ = engine;
  }

  void stop() {
    {
      std::lock_guard guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after stop().
  Samples queue_depth, lag_events;

 private:
  void loop() {
    std::unique_lock guard(mu_);
    while (!cv_.wait_for(guard, std::chrono::milliseconds(10), [this] { return stop_; })) {
      if (!engine_) continue;
      const remo::obs::GaugeSample g = engine_->sample_gauges();
      queue_depth.add(static_cast<double>(g.queue_depth));
      lag_events.add(static_cast<double>(g.convergence_lag_events));
    }
  }

  std::mutex mu_;  // guards engine_ and stop_; held across each sample
  std::condition_variable cv_;
  const remo::Engine* engine_ = nullptr;
  bool stop_ = false;
  std::thread thread_;
};

/// Epoch-cut durations (drained_ns - cut_ns) from the engine's epoch-drain
/// hook, which runs on whichever thread collects.
class CutRecorder {
 public:
  void attach(remo::Engine& e) {
    e.set_epoch_drain_hook([this](const remo::Engine::EpochDrainInfo& info) {
      std::lock_guard guard(mu_);
      cut_ms_.add(static_cast<double>(info.drained_ns - info.cut_ns) / 1e6);
    });
  }
  static void detach(remo::Engine& e) { e.set_epoch_drain_hook({}); }
  Samples take() {
    std::lock_guard guard(mu_);
    return cut_ms_;
  }

 private:
  std::mutex mu_;
  Samples cut_ms_;
};

}  // namespace remo_bench
