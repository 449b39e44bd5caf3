#include "serve/query_service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/assert.hpp"
#include "obs/span.hpp"

namespace remo::serve {
namespace {

constexpr std::size_t kMaxServePrograms = 32;  // Engine::attach's cap

// Refresher pacing: after a refresh that took d, wait max(kMinPause,
// kPaceFactor * d), capped at the refresh period, before the next. Then
// look every kPollInterval for writes the engine has finished applying.
constexpr auto kMinPause = std::chrono::milliseconds(2);
constexpr int kPaceFactor = 3;
constexpr auto kPollInterval = std::chrono::milliseconds(1);

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using TopEntry = std::pair<VertexId, StateWord>;

/// The k best non-identity entries of a cut — value desc, then vertex asc —
/// best first: one pass over the shards, keeping a bounded heap whose front
/// is the worst entry kept.
std::vector<TopEntry> top_entries(const ShardedState& state, std::size_t k) {
  const auto better = [](const TopEntry& a, const TopEntry& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  std::size_t entries = 0;
  for (const ShardedState::Shard& shard : state.shards) entries += shard.size();
  std::vector<TopEntry> heap;
  heap.reserve(std::min(k, entries));
  for (const ShardedState::Shard& shard : state.shards)
    shard.for_each([&](const VertexId& v, const StateWord& val) {
      if (val == state.identity) return;
      const TopEntry e{v, val};
      if (heap.size() < k) {
        heap.push_back(e);
        std::push_heap(heap.begin(), heap.end(), better);
      } else if (better(e, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), better);
        heap.back() = e;
        std::push_heap(heap.begin(), heap.end(), better);
      }
    });
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace

Json ServeStats::to_json() const {
  Json j = Json::object();
  j["queries_served"] = queries_served;
  j["refreshes"] = refreshes;
  j["served_programs"] = served_programs;
  j["read_epoch_lag_events"] = read_epoch_lag_events;
  j["view_age_ns"] = view_age_ns;
  return j;
}

QueryService::QueryService(Engine& engine, QueryServiceConfig cfg)
    : engine_(engine), cfg_(cfg) {
  slots_.reserve(kMaxServePrograms);
  for (std::size_t i = 0; i < kMaxServePrograms; ++i)
    slots_.push_back(std::make_unique<Slot>());
  if (cfg_.spans) {
    obs::SpanRecorder* rec = cfg_.spans;
    engine_.set_epoch_drain_hook([rec](const Engine::EpochDrainInfo& info) {
      rec->on_epoch_drained(info.watermark, info.drained_ns);
    });
  }
}

QueryService::~QueryService() {
  stop();
  if (cfg_.spans) engine_.set_epoch_drain_hook({});
}

void QueryService::serve(ProgramId p, ViewRole role) {
  REMO_CHECK(p < engine_.num_programs());
  Slot& s = *slots_[p];
  {
    std::lock_guard guard(refresh_mutex_);
    s.role = role;
  }
  publish({p});
  s.active.store(true, std::memory_order_release);
}

void QueryService::start() {
  if (cfg_.refresh_period_ms == 0 || refresher_.joinable()) return;
  {
    std::lock_guard guard(stop_mutex_);
    stopping_ = false;
  }
  refresher_ = std::thread([this] { refresher_main(); });
}

void QueryService::stop() {
  {
    std::lock_guard guard(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (refresher_.joinable()) refresher_.join();
}

void QueryService::refresher_main() {
  using Clock = std::chrono::steady_clock;
  const Clock::duration period = std::chrono::milliseconds(cfg_.refresh_period_ms);
  Clock::duration pause = std::min(period, Clock::duration(kMinPause));
  Clock::time_point last = Clock::now();
  std::uint64_t seen = 0;  // ingested watermark when the last round began
  const auto stopping = [this] { return stopping_; };
  for (;;) {
    {
      std::unique_lock guard(stop_mutex_);
      if (stop_cv_.wait_for(guard, pause, stopping)) return;
      // Publish early only once the engine is idle: while a backlog drains,
      // a cut would wait for it anyway and double the work at split
      // vertices, so under a write flood views come once per period.
      while (Clock::now() - last < period &&
             (engine_.ingested_watermark() <= seen || !engine_.idle()))
        if (stop_cv_.wait_for(guard, kPollInterval, stopping)) return;
    }
    const Clock::time_point t0 = Clock::now();
    seen = engine_.ingested_watermark();
    const std::vector<ProgramId> programs = active_programs();
    if (cfg_.repair_on_refresh)
      for (const ProgramId p : programs)
        if (engine_.program(p).supports_deletes()) engine_.repair(p);
    if (!programs.empty()) publish(programs);
    last = Clock::now();
    pause = std::min(period, std::max(Clock::duration(kMinPause), kPaceFactor * (last - t0)));
  }
}

void QueryService::refresh(ProgramId p) {
  REMO_CHECK(p < engine_.num_programs());
  publish({p});
}

void QueryService::refresh_all() {
  const std::vector<ProgramId> programs = active_programs();
  if (!programs.empty()) publish(programs);
}

std::vector<ProgramId> QueryService::active_programs() const {
  std::vector<ProgramId> out;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i]->active.load(std::memory_order_acquire))
      out.push_back(static_cast<ProgramId>(i));
  return out;
}

void QueryService::publish(const std::vector<ProgramId>& programs) {
  std::lock_guard guard(refresh_mutex_);
  // Watermark before the cut: every event counted here is either inside
  // the cut or ordered before it, so "lag = ingested_now - watermark" never
  // under-reports what a view might be missing.
  const std::uint64_t watermark = engine_.ingested_watermark();
  std::vector<ShardedState> cut = engine_.collect_versioned_shards(programs);
  const std::uint64_t at = now_ns();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    Slot& s = *slots_[programs[i]];
    auto view = std::make_shared<StateView>(
        std::move(cut[i]), engine_.partitioner(),
        next_version_.fetch_add(1, std::memory_order_relaxed), watermark, at);
    // kRank shares the degree precompute: positive doubles order the same
    // as their bit patterns.
    if ((s.role == ViewRole::kDegree || s.role == ViewRole::kRank) && cfg_.top_k > 0)
      view->top_ = top_entries(view->state_, cfg_.top_k);
    {
      std::lock_guard view_guard(s.mu);
      s.view = std::move(view);
    }
    refreshes_.fetch_add(1, std::memory_order_relaxed);
  }
  // The views are readable now: complete every span whose admission
  // watermark they cover (the pre-cut watermark sample above makes
  // "covers" sound — see the SpanRecorder file comment).
  if (cfg_.spans) cfg_.spans->on_view_published(watermark, engine_.obs_now());
}

std::shared_ptr<const StateView> QueryService::pin(ProgramId p) const {
  const Slot& s = *slots_[p];
  REMO_CHECK_MSG(s.active.load(std::memory_order_acquire),
                 "query on a program not registered via serve()");
  std::lock_guard guard(s.mu);
  return s.view;
}

std::shared_ptr<const StateView> QueryService::view(ProgramId p) const {
  return pin(p);
}

StateWord QueryService::state(ProgramId p, VertexId v) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return pin(p)->at(v);
}

bool QueryService::reachable(ProgramId p, VertexId v) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  const auto view = pin(p);
  return view->at(v) != view->identity();
}

StateWord QueryService::component_of(ProgramId p, VertexId v) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return pin(p)->at(v);
}

bool QueryService::connected(ProgramId p, VertexId u, VertexId v) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  const auto view = pin(p);
  const StateWord lu = view->at(u);
  return lu != view->identity() && lu == view->at(v);
}

std::vector<std::pair<VertexId, StateWord>> QueryService::top_k_degree(
    ProgramId p, std::size_t k) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  const auto view = pin(p);
  const auto& top = view->top();
  const std::size_t n = std::min(k, top.size());
  return {top.begin(), top.begin() + n};
}

namespace {
double decode_rank(StateWord s, double damping) noexcept {
  return s == 0 ? 1.0 - damping : std::bit_cast<double>(s);
}
}  // namespace

double QueryService::rank_of(ProgramId p, VertexId v, double damping) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  return decode_rank(pin(p)->at(v), damping);
}

std::vector<std::pair<VertexId, double>> QueryService::top_k_rank(
    ProgramId p, std::size_t k, double damping) const {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  const auto view = pin(p);
  const auto& top = view->top();
  const std::size_t n = std::min(k, top.size());
  std::vector<std::pair<VertexId, double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.emplace_back(top[i].first, decode_rank(top[i].second, damping));
  return out;
}

ServeStats QueryService::stats() const {
  ServeStats st;
  st.queries_served = queries_served_.load(std::memory_order_relaxed);
  st.refreshes = refreshes_.load(std::memory_order_relaxed);
  std::uint64_t oldest_wm = ~0ull, oldest_pub = ~0ull;
  for (const auto& slot : slots_) {
    if (!slot->active.load(std::memory_order_acquire)) continue;
    ++st.served_programs;
    std::lock_guard guard(slot->mu);
    oldest_wm = std::min(oldest_wm, slot->view->watermark());
    oldest_pub = std::min(oldest_pub, slot->view->publish_ns());
  }
  if (st.served_programs > 0) {
    const obs::GaugeSample g = engine_.sample_gauges();
    st.read_epoch_lag_events =
        g.events_ingested > oldest_wm ? g.events_ingested - oldest_wm : 0;
    const std::uint64_t now = now_ns();
    st.view_age_ns = now > oldest_pub ? now - oldest_pub : 0;
  }
  return st;
}

}  // namespace remo::serve
