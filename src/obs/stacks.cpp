#include "obs/stacks.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/time.h>
#if __has_include(<execinfo.h>)
#define REMO_HAVE_STACK_SAMPLER 1
#include <cxxabi.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#endif
#endif  // __linux__

namespace remo::obs {

// ---------------------------------------------------------------------------
// Process rusage

#ifdef __linux__
namespace {

std::uint64_t timeval_ns(const timeval& tv) {
  return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
}

}  // namespace
#endif

ProcRusage read_proc_rusage() noexcept {
  ProcRusage r;
#ifdef __linux__
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    r.user_ns = timeval_ns(ru.ru_utime);
    r.sys_ns = timeval_ns(ru.ru_stime);
    r.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    r.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    r.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    r.voluntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
    r.involuntary_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
#endif
  return r;
}

Json proc_rusage_json(const ProcRusage& r) {
  Json j = Json::object();
  j["user_ns"] = r.user_ns;
  j["sys_ns"] = r.sys_ns;
  j["max_rss_kb"] = r.max_rss_kb;
  j["minor_faults"] = r.minor_faults;
  j["major_faults"] = r.major_faults;
  j["voluntary_ctx_switches"] = r.voluntary_ctx_switches;
  j["involuntary_ctx_switches"] = r.involuntary_ctx_switches;
  return j;
}

// ---------------------------------------------------------------------------
// StackSampler

#ifdef REMO_HAVE_STACK_SAMPLER

namespace {

constexpr std::uint32_t kMaxStackDepth = 64;

// SIGPROF handler scratch: the sampler arms it for one target at a time by
// storing that thread in `target`. A handler captures only after claiming
// the slot (swapping its own thread for none), then release-stores done, so
// a signal that arrives late never writes over a capture the sampler is
// reading or one meant for another thread.
struct StackScratch {
  void* frames[kMaxStackDepth];
  std::atomic<int> depth{0};
  std::atomic<bool> done{false};
  std::atomic<pthread_t> target{};
};
StackScratch g_scratch;
std::atomic<bool> g_sampler_running{false};

void stack_signal_handler(int) {
  pthread_t self = pthread_self();
  if (!g_scratch.target.compare_exchange_strong(self, pthread_t{},
                                                std::memory_order_acquire))
    return;
  // backtrace() is not strictly async-signal-safe, but sampling profilers
  // (gperftools, py-spy's native mode) rely on the same glibc behavior:
  // after one warm-up call the unwinder does no further allocation.
  const int depth = backtrace(g_scratch.frames, kMaxStackDepth);
  g_scratch.depth.store(depth, std::memory_order_relaxed);
  g_scratch.done.store(true, std::memory_order_release);
}

std::string demangle_frame(const char* symbol) {
  // backtrace_symbols format: "module(mangled+0x1a) [0xaddr]".
  std::string s(symbol != nullptr ? symbol : "");
  const std::size_t open = s.find('(');
  const std::size_t plus = s.find('+', open == std::string::npos ? 0 : open);
  if (open != std::string::npos && plus != std::string::npos && plus > open + 1) {
    std::string mangled = s.substr(open + 1, plus - open - 1);
    int status = 0;
    char* dem = abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
    if (status == 0 && dem != nullptr) {
      std::string out(dem);
      std::free(dem);
      return out;
    }
    return mangled;
  }
  // No symbol: fall back to the module basename + offset.
  const std::size_t bracket = s.find(" [");
  std::string head = bracket == std::string::npos ? s : s.substr(0, bracket);
  const std::size_t slash = head.rfind('/');
  if (slash != std::string::npos) head = head.substr(slash + 1);
  return head.empty() ? "??" : head;
}

}  // namespace

struct StackSampler::Impl {
  Config cfg;
  std::mutex mu;  // guards targets + stacks
  struct Target {
    pthread_t handle;
    std::size_t label;  // index into labels
  };
  std::vector<Target> targets;
  std::vector<std::string> labels;
  // Folded raw stacks: (label index, leaf-first frames) -> count.
  std::map<std::pair<std::size_t, std::vector<void*>>, std::uint64_t> stacks;
  std::thread thread;
  std::atomic<bool> run{false};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> missed{0};
  struct sigaction old_action {};
  bool handler_installed = false;

  void loop() {
    while (run.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& t : targets) sample_target(t);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(cfg.period_us));
    }
  }

  void sample_target(const Target& t) {
    g_scratch.done.store(false, std::memory_order_relaxed);
    g_scratch.target.store(t.handle, std::memory_order_release);
    if (pthread_kill(t.handle, SIGPROF) != 0) {
      g_scratch.target.store(pthread_t{}, std::memory_order_relaxed);
      return;
    }
    // The handler runs on the target thread; wait briefly for it.
    int spin = 0;
    while (!g_scratch.done.load(std::memory_order_acquire)) {
      if (++spin == 4000) {
        // Disarm the slot so a late signal writes nothing. A handler that
        // already claimed it is mid-capture: let it finish, so the next
        // target's capture cannot overlap this one.
        pthread_t armed = t.handle;
        if (g_scratch.target.compare_exchange_strong(armed, pthread_t{})) {
          missed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      std::this_thread::yield();
    }
    record(t, g_scratch.frames, g_scratch.depth.load(std::memory_order_relaxed));
  }

  void record(const Target& t, void* const* frames, int depth) {
    const int max =
        std::min<int>(depth, static_cast<int>(std::min(cfg.max_depth,
                                                       kMaxStackDepth)));
    if (max <= 0) return;
    // Skip the handler's own frames (signal trampoline + handler); keep it
    // conservative — symbol filtering at fold time tidies the rest.
    std::vector<void*> key(frames, frames + max);
    ++stacks[{t.label, std::move(key)}];
    samples.fetch_add(1, std::memory_order_relaxed);
  }
};

bool StackSampler::supported() noexcept { return true; }

StackSampler::StackSampler(Config cfg) : impl_(new Impl) { impl_->cfg = cfg; }

StackSampler::~StackSampler() { stop(); }

bool StackSampler::start() {
  if (impl_->run.load(std::memory_order_relaxed)) return true;
  bool expected = false;
  if (!g_sampler_running.compare_exchange_strong(expected, true))
    return false;  // another sampler owns the handler scratch
  struct sigaction sa {};
  sa.sa_handler = stack_signal_handler;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &impl_->old_action) != 0) {
    g_sampler_running.store(false);
    return false;
  }
  impl_->handler_installed = true;
  // Warm up the unwinder on this thread (glibc backtrace allocates on
  // first use; see handler comment).
  void* warm[4];
  backtrace(warm, 4);
  impl_->run.store(true, std::memory_order_relaxed);
  impl_->thread = std::thread([this] { impl_->loop(); });
  return true;
}

void StackSampler::stop() {
  if (impl_->run.exchange(false)) {
    if (impl_->thread.joinable()) impl_->thread.join();
  }
  if (impl_->handler_installed) {
    sigaction(SIGPROF, &impl_->old_action, nullptr);
    impl_->handler_installed = false;
    g_sampler_running.store(false);
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->targets.clear();
}

bool StackSampler::running() const noexcept {
  return impl_->run.load(std::memory_order_relaxed);
}

void StackSampler::register_current_thread(std::string label) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->labels.push_back(std::move(label));
  impl_->targets.push_back(
      Impl::Target{pthread_self(), impl_->labels.size() - 1});
}

std::uint64_t StackSampler::samples() const noexcept {
  return impl_->samples.load(std::memory_order_relaxed);
}

std::uint64_t StackSampler::missed() const noexcept {
  return impl_->missed.load(std::memory_order_relaxed);
}

std::string StackSampler::folded() {
  stop();
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Samples at different return addresses in the same functions symbolise
  // to the same stack: sum them into one line, ordered by stack.
  std::map<std::string, std::uint64_t> lines;
  for (const auto& [key, count] : impl_->stacks) {
    const auto& [label_idx, frames] = key;
    char** symbols = backtrace_symbols(
        const_cast<void* const*>(frames.data()), static_cast<int>(frames.size()));
    std::string line = impl_->labels[label_idx];
    // frames are leaf-first; folded output wants root-first.
    for (std::size_t i = frames.size(); i-- > 0;) {
      std::string name =
          demangle_frame(symbols != nullptr ? symbols[i] : nullptr);
      // Drop the signal plumbing the capture itself introduced.
      if (name.find("stack_signal_handler") != std::string::npos ||
          name.find("killpg") != std::string::npos ||
          name.find("__restore_rt") != std::string::npos)
        continue;
      line += ';';
      line += name;
    }
    std::free(symbols);
    lines[line] += count;
  }
  std::string out;
  for (const auto& [stack, count] : lines) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

#else  // !REMO_HAVE_STACK_SAMPLER

struct StackSampler::Impl {
  Config cfg;
};

bool StackSampler::supported() noexcept { return false; }
StackSampler::StackSampler(Config cfg) : impl_(new Impl) { impl_->cfg = cfg; }
StackSampler::~StackSampler() = default;
bool StackSampler::start() { return false; }
void StackSampler::stop() {}
bool StackSampler::running() const noexcept { return false; }
void StackSampler::register_current_thread(std::string) {}
std::uint64_t StackSampler::samples() const noexcept { return 0; }
std::uint64_t StackSampler::missed() const noexcept { return 0; }
std::string StackSampler::folded() { return std::string(); }

#endif  // REMO_HAVE_STACK_SAMPLER

bool StackSampler::write_folded(const std::string& path) {
  const std::string text = folded();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace remo::obs
