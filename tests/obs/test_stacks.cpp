// Sampled on-CPU stacks and the process rusage reader (obs/stacks.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/stacks.hpp"

namespace remo::obs::test {
namespace {

TEST(ProcRusageTest, ReadsSaneValues) {
  // Touch some memory so max RSS is definitely nonzero.
  std::vector<char> ballast(1 << 20, 1);
  ballast.back() = 2;
  const ProcRusage r = read_proc_rusage();
  EXPECT_GT(r.max_rss_kb, 0u);
  EXPECT_GT(r.user_ns + r.sys_ns, 0u);

  const Json j = proc_rusage_json(r);
  for (const char* key :
       {"user_ns", "sys_ns", "max_rss_kb", "minor_faults", "major_faults",
        "voluntary_ctx_switches", "involuntary_ctx_switches"})
    EXPECT_NE(j.find(key), nullptr) << key;
}

TEST(StackSamplerTest, FoldedOutputFromBusyThread) {
  if (!StackSampler::supported())
    GTEST_SKIP() << "stack sampling unsupported on this platform";
  StackSampler sampler(StackSamplerConfig{/*period_us=*/200, /*max_depth=*/48});
  ASSERT_TRUE(sampler.start());
  std::atomic<bool> stop{false};
  std::thread busy([&] {
    sampler.register_current_thread("busy");
    volatile std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed))
      for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  });
  // Let it collect for a while.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::string folded = sampler.folded();  // stops the sampler
  stop.store(true);
  busy.join();
  EXPECT_FALSE(sampler.running());
  if (sampler.samples() == 0)
    GTEST_SKIP() << "no samples landed (loaded CI box)";
  EXPECT_NE(folded.find("busy"), std::string::npos);
  // Every line is "frames count" with a positive trailing count, and no
  // two lines share a stack (the text before the last space: demangled
  // names contain spaces).
  std::istringstream in(folded);
  std::string line;
  std::set<std::string> stacks;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(std::strtoull(line.c_str() + sp + 1, nullptr, 10), 0u) << line;
    EXPECT_TRUE(stacks.insert(line.substr(0, sp)).second) << "repeated: " << line;
  }
}

TEST(StackSamplerTest, SamplesEveryRegisteredThread) {
  if (!StackSampler::supported()) GTEST_SKIP();
  StackSampler sampler(StackSamplerConfig{/*period_us=*/200, /*max_depth=*/48});
  ASSERT_TRUE(sampler.start());
  std::atomic<bool> stop{false};
  // Two targets share the handler's scratch slot. The mutex calls give a
  // sanitizer's deferred signal delivery a point to run the handler at.
  const auto work = [&](const char* label) {
    sampler.register_current_thread(label);
    std::mutex m;
    volatile std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::lock_guard<std::mutex> lock(m);
      sink = sink + 1;
    }
  };
  std::thread alpha(work, "alpha");
  std::thread beta(work, "beta");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::string folded = sampler.folded();  // stops the sampler
  stop.store(true);
  alpha.join();
  beta.join();
  if (sampler.samples() == 0)
    GTEST_SKIP() << "no samples landed (loaded CI box)";
  EXPECT_NE(folded.find("alpha;"), std::string::npos) << folded;
  EXPECT_NE(folded.find("beta;"), std::string::npos) << folded;
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line))
    EXPECT_TRUE(line.rfind("alpha;", 0) == 0 || line.rfind("beta;", 0) == 0) << line;
}

TEST(StackSamplerTest, OnlyOneInstanceRuns) {
  if (!StackSampler::supported()) GTEST_SKIP();
  StackSampler first;
  ASSERT_TRUE(first.start());
  StackSampler second;
  EXPECT_FALSE(second.start());
  first.stop();
  // Slot freed: a new sampler may start again.
  StackSampler third;
  EXPECT_TRUE(third.start());
  third.stop();
}

}  // namespace
}  // namespace remo::obs::test
