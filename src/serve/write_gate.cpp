#include "serve/write_gate.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/phase_timer.hpp"
#include "serve/query_service.hpp"

namespace remo::serve {

Json WriteGateStats::to_json() const {
  Json j = Json::object();
  j["events_submitted"] = events_submitted;
  j["events_dispatched"] = events_dispatched;
  j["batches"] = batches;
  j["waves"] = waves;
  j["parallel_waves"] = parallel_waves;
  j["serial_fallback_batches"] = serial_fallback_batches;
  j["max_wave_size"] = max_wave_size;
  j["mean_wave_occupancy"] = mean_wave_occupancy;
  return j;
}

WriteGate::WriteGate(Engine& engine, WriteGateConfig cfg)
    : engine_(engine), cfg_(cfg) {
  REMO_CHECK(cfg_.batch_limit > 0);
  REMO_CHECK(cfg_.dispatch_threads > 0);
}

WriteGate::~WriteGate() {
  flush();
  {
    std::lock_guard guard(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void WriteGate::submit(const EdgeEvent& e) {
  std::unique_lock guard(pending_mutex_);
  if (cfg_.service && pending_.empty()) pending_oldest_ns_ = obs::monotonic_ns();
  pending_.push_back(e);
  {
    std::lock_guard stats_guard(stats_mutex_);
    ++stats_.events_submitted;
  }
  if (pending_.size() >= cfg_.batch_limit && !pump_active_) pump_locked(guard);
}

void WriteGate::submit_batch(const std::vector<EdgeEvent>& events) {
  std::unique_lock guard(pending_mutex_);
  if (cfg_.service && pending_.empty() && !events.empty())
    pending_oldest_ns_ = obs::monotonic_ns();
  pending_.insert(pending_.end(), events.begin(), events.end());
  {
    std::lock_guard stats_guard(stats_mutex_);
    stats_.events_submitted += events.size();
  }
  if (pending_.size() >= cfg_.batch_limit && !pump_active_) pump_locked(guard);
}

std::size_t WriteGate::flush() {
  std::unique_lock guard(pending_mutex_);
  std::size_t dispatched = 0;
  for (;;) {
    if (pump_active_) {
      // Another thread is pumping: wait for it, then re-check — events it
      // admits were submitted before ours, so order is preserved.
      pump_cv_.wait(guard, [this] { return !pump_active_; });
      continue;
    }
    if (pending_.empty()) return dispatched;
    dispatched += pump_locked(guard);
  }
}

std::size_t WriteGate::pump_locked(std::unique_lock<std::mutex>& guard) {
  // Precondition: guard holds pending_mutex_ and no pump is active. A
  // single pump at a time keeps batch admission in submission order.
  pump_active_ = true;
  std::size_t dispatched = 0;
  std::vector<EdgeEvent> local, chunk;
  while (!pending_.empty()) {
    local.clear();
    local.swap(pending_);
    // Every chunk of this swap inherits the swap's oldest-submit stamp —
    // later chunks have waited at least that long, so freshness never
    // under-reports.
    const std::uint64_t queued_ns = pending_oldest_ns_;
    pending_oldest_ns_ = 0;
    guard.unlock();
    for (std::size_t off = 0; off < local.size(); off += cfg_.batch_limit) {
      const std::size_t n = std::min(cfg_.batch_limit, local.size() - off);
      chunk.assign(local.begin() + static_cast<std::ptrdiff_t>(off),
                   local.begin() + static_cast<std::ptrdiff_t>(off + n));
      dispatch_batch(chunk, queued_ns);
    }
    dispatched += local.size();
    guard.lock();
  }
  pump_active_ = false;
  pump_cv_.notify_all();
  return dispatched;
}

void WriteGate::dispatch_batch(const std::vector<EdgeEvent>& batch,
                               std::uint64_t queued_ns) {
  if (batch.empty()) return;
  const WavePlan plan =
      ConflictPartitioner::plan(batch, engine_.config().undirected);
  // Conflict-dominated batch (e.g. a hot pair's history): wave barriers
  // would serialise it anyway, so skip straight to in-order injection.
  const bool serial = plan.mean_occupancy() < cfg_.min_occupancy;
  std::uint64_t parallel_waves = 0;
  if (serial) {
    for (const EdgeEvent& e : batch) engine_.inject_edge(e);
  } else {
    for (std::size_t w = 0; w < plan.num_waves(); ++w) {
      const std::uint32_t* idx = plan.order.data() + plan.wave_begin[w];
      const std::size_t n = plan.wave_size(w);
      if (n < cfg_.min_wave_parallel || cfg_.dispatch_threads <= 1) {
        inject_slice(batch, idx, n);
      } else {
        dispatch_wave_parallel(batch, idx, n);
        ++parallel_waves;
      }
    }
  }
  // The wave barrier has completed every worker's injections (their
  // watermark bumps happen-before this read), so this watermark covers
  // the whole batch.
  if (cfg_.service)
    cfg_.service->batch_admitted(engine_.ingested_watermark(), queued_ns);

  std::lock_guard stats_guard(stats_mutex_);
  ++stats_.batches;
  stats_.events_dispatched += batch.size();
  if (serial) {
    ++stats_.serial_fallback_batches;
    return;
  }
  stats_.waves += plan.num_waves();
  stats_.parallel_waves += parallel_waves;
  stats_.max_wave_size = std::max<std::uint64_t>(stats_.max_wave_size,
                                                 plan.max_wave_size());
  occupancy_waves_ += plan.num_waves();
  occupancy_events_ += batch.size();
}

void WriteGate::inject_slice(const std::vector<EdgeEvent>& batch,
                             const std::uint32_t* idx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) engine_.inject_edge(batch[idx[i]]);
}

void WriteGate::ensure_workers() {
  if (!workers_.empty()) return;
  const std::size_t helpers = cfg_.dispatch_threads - 1;
  jobs_.resize(helpers);
  workers_.reserve(helpers);
  for (std::size_t w = 0; w < helpers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

void WriteGate::dispatch_wave_parallel(const std::vector<EdgeEvent>& batch,
                                       const std::uint32_t* idx, std::size_t n) {
  ensure_workers();
  const std::size_t threads = std::min(cfg_.dispatch_threads, n);
  const std::size_t per = (n + threads - 1) / threads;
  {
    std::lock_guard guard(work_mutex_);
    wave_remaining_ = 0;
    for (std::size_t t = 1; t < threads; ++t) {
      const std::size_t begin = per * t;
      if (begin >= n) break;
      jobs_[t - 1] = WaveJob{&batch, idx + begin, std::min(per, n - begin)};
      ++wave_remaining_;
    }
    ++wave_generation_;
  }
  work_cv_.notify_all();
  // This thread takes slice 0.
  inject_slice(batch, idx, std::min(per, n));
  // The inter-wave barrier: same-key events live in different waves, so
  // the next wave must not start until every injection of this one is in
  // its destination mailbox (FIFO per rank ⇒ per-pair order preserved).
  std::unique_lock guard(work_mutex_);
  done_cv_.wait(guard, [this] { return wave_remaining_ == 0; });
}

void WriteGate::worker_main(std::size_t worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    WaveJob job;
    {
      std::unique_lock guard(work_mutex_);
      work_cv_.wait(guard, [&] {
        return workers_stop_ ||
               (wave_generation_ != seen_generation && jobs_[worker].n > 0);
      });
      if (workers_stop_) return;
      seen_generation = wave_generation_;
      job = jobs_[worker];
      jobs_[worker].n = 0;
    }
    inject_slice(*job.batch, job.idx, job.n);
    {
      std::lock_guard guard(work_mutex_);
      --wave_remaining_;
    }
    done_cv_.notify_one();
  }
}

WriteGateStats WriteGate::stats() const {
  std::lock_guard guard(stats_mutex_);
  WriteGateStats out = stats_;
  out.mean_wave_occupancy =
      occupancy_waves_ == 0
          ? 0.0
          : static_cast<double>(occupancy_events_) /
                static_cast<double>(occupancy_waves_);
  return out;
}

}  // namespace remo::serve
