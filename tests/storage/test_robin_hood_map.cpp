// RobinHoodMap unit + randomized differential tests against
// std::unordered_map (DESIGN.md invariant 6).
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hpp"
#include "runtime/partitioner.hpp"
#include "storage/robin_hood_map.hpp"

namespace remo::test {
namespace {

TEST(RobinHoodMap, InsertFindErase) {
  RobinHoodMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.insert_or_assign(1, 10));
  EXPECT_TRUE(m.insert_or_assign(2, 20));
  EXPECT_FALSE(m.insert_or_assign(1, 11));  // overwrite
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.find(1), 11);
  EXPECT_EQ(*m.find(2), 20);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(1), nullptr);
}

TEST(RobinHoodMap, GetOrInsertDefaultConstructs) {
  RobinHoodMap<std::uint64_t, int> m;
  EXPECT_EQ(m.get_or_insert(5), 0);
  m.get_or_insert(5) = 42;
  EXPECT_EQ(m.get_or_insert(5), 42);
  EXPECT_EQ(m.size(), 1u);
}

TEST(RobinHoodMap, GrowthPreservesEntries) {
  RobinHoodMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 10000; ++i) m.insert_or_assign(i, i * 3);
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ASSERT_NE(m.find(i), nullptr) << i;
    EXPECT_EQ(*m.find(i), i * 3);
  }
}

TEST(RobinHoodMap, BackwardShiftKeepsClustersFindable) {
  // Insert colliding-ish keys, erase from the middle, re-find the rest.
  RobinHoodMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 64; ++i) m.insert_or_assign(i * 8, static_cast<int>(i));
  for (std::uint64_t i = 0; i < 64; i += 2) EXPECT_TRUE(m.erase(i * 8));
  for (std::uint64_t i = 1; i < 64; i += 2) {
    ASSERT_NE(m.find(i * 8), nullptr);
    EXPECT_EQ(*m.find(i * 8), static_cast<int>(i));
  }
}

TEST(RobinHoodMap, ForEachVisitsExactlyOnce) {
  RobinHoodMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 500; ++i) m.insert_or_assign(i, i);
  std::uint64_t count = 0, sum = 0;
  m.for_each([&](const std::uint64_t& k, std::uint64_t& v) {
    ++count;
    sum += k;
    EXPECT_EQ(k, v);
  });
  EXPECT_EQ(count, 500u);
  EXPECT_EQ(sum, 499u * 500u / 2);
}

TEST(RobinHoodMap, ReserveAvoidsRehashDuringFill) {
  RobinHoodMap<std::uint64_t, int> m;
  m.reserve(1000);
  const std::size_t cap = m.capacity();
  for (std::uint64_t i = 0; i < 1000; ++i) m.insert_or_assign(i, 1);
  EXPECT_EQ(m.capacity(), cap);
}

TEST(RobinHoodMap, ProbeDistanceStaysSmall) {
  RobinHoodMap<std::uint64_t, int> m;
  Xoshiro256 rng(3);
  for (int i = 0; i < 20000; ++i) m.insert_or_assign(rng(), 1);
  // Robin Hood keeps the mean probe length tiny at 0.875 load.
  EXPECT_LT(m.mean_probe_distance(), 3.0);
}

TEST(RobinHoodMap, OneRanksKeysProbeNoDeeperThanRandomKeys) {
  // Each rank's state and vertex maps hold only the vertices the
  // partitioner gives it, and the partitioner routes by the same splitmix64
  // hash mod P. With homes from the hash's low bits, P = 4 put every key of
  // one rank on one home slot in four: 3.41 mean probes at this load, where
  // unpartitioned keys take 2.6.
  const Partitioner part(4);
  RobinHoodMap<std::uint64_t, int> m;
  for (VertexId v = 0; m.size() < 24900; ++v)
    if (part.owner(v) == 1) m.insert_or_assign(v, 1);
  ASSERT_EQ(m.capacity(), 32768u);  // load 0.76
  EXPECT_LT(m.mean_probe_distance(), 3.0);  // ProbeDistanceStaysSmall's bound
}

TEST(RobinHoodMap, DifferentialVsUnorderedMap) {
  RobinHoodMap<std::uint64_t, std::uint64_t> rh;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Xoshiro256 rng(17);
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = rng.bounded(512);  // dense key space: collisions
    switch (rng.bounded(4)) {
      case 0:
      case 1: {  // insert/overwrite
        const std::uint64_t val = rng();
        rh.insert_or_assign(key, val);
        ref[key] = val;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(rh.erase(key), ref.erase(key) != 0);
        break;
      }
      default: {  // lookup
        const auto it = ref.find(key);
        const std::uint64_t* got = rh.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(*got, it->second);
        }
      }
    }
    ASSERT_EQ(rh.size(), ref.size());
  }
  // Final sweep: contents identical.
  std::size_t visited = 0;
  rh.for_each([&](const std::uint64_t& k, std::uint64_t& v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(RobinHoodMap, ClearResetsButKeepsCapacity) {
  RobinHoodMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.insert_or_assign(i, 1);
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.find(5), nullptr);
  m.insert_or_assign(5, 2);
  EXPECT_EQ(*m.find(5), 2);
}

}  // namespace
}  // namespace remo::test
