// Open-addressing hash map with Robin Hood hashing and backward-shift
// deletion — the building block of the DegAwareRHH-style dynamic graph
// store (Section III-B, [18] Iwabuchi et al., GABB'16).
//
// Design notes:
//  * power-of-two capacity, structure-of-arrays layout: one byte of probe
//    metadata per slot (0 = empty, k = probe distance k-1), keys and values
//    in separate arrays. Lookups touch the metadata array almost
//    exclusively — 64 slots of metadata per cache line keeps the probe walk
//    L2-resident even for tables whose keys have long spilled to memory,
//    which is what gives the structure its locality advantage over
//    node-based maps for high-degree adjacency sets. (An interleaved
//    {key, meta} slot layout was measured and rejected: it costs a full
//    cache line per probe step and regressed lookups ~20% on 64k-entry
//    tables.)
//  * Robin Hood insertion: a probing element displaces a resident whose
//    probe distance is shorter, keeping the variance of probe lengths small.
//  * backward-shift deletion: no tombstones, so long-lived dynamic graphs
//    do not degrade as edges churn.
//  * the home slot comes from the hash's high half. The partitioner routes
//    a vertex by the same hash mod P (runtime/partitioner.hpp), so with P a
//    power of two the low bits of every key one rank owns are equal, and
//    homes taken from them would crowd one slot in P.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace remo {

template <typename Key, typename Value, typename Hash = SplitMixHash>
class RobinHoodMap {
 public:
  static constexpr std::size_t kMinCapacity = 8;
  static constexpr double kMaxLoad = 0.875;

  RobinHoodMap() = default;

  explicit RobinHoodMap(std::size_t expected) { reserve(expected); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return meta_.size(); }

  /// Handle-stability epoch. A `Value*` obtained from find()/
  /// find_or_emplace()/get_or_insert() stays valid exactly as long as
  /// generation() is unchanged: the counter bumps whenever resident
  /// entries can move — a rehash (growth), a Robin Hood displacement
  /// during insert, or a backward-shift erase. Callers holding a handle
  /// across interleaved mutations must either re-resolve the key or
  /// assert the generation did not change (the DegAwareStore ingest hot
  /// path does the latter, see engine_loop.cpp).
  std::uint64_t generation() const noexcept { return generation_; }

  void clear() {
    meta_.assign(meta_.size(), 0);
    size_ = 0;
    ++generation_;  // every outstanding handle is dead
  }

  void reserve(std::size_t expected) {
    std::size_t want = kMinCapacity;
    while (static_cast<double>(expected) > kMaxLoad * static_cast<double>(want)) want <<= 1;
    if (want > meta_.size()) rehash(want);
  }

  /// Insert or overwrite. Returns true when the key was newly inserted.
  bool insert_or_assign(const Key& key, Value value) {
    auto [slot, fresh] = find_or_emplace(key, [&] { return std::move(value); });
    if (!fresh) *slot = std::move(value);  // make() untouched `value` on a hit
    return fresh;
  }

  /// operator[]-style access: default-constructs a missing entry.
  Value& get_or_insert(const Key& key) {
    return *find_or_emplace(key, [] { return Value{}; }).first;
  }

  /// Single-probe upsert: locate `key`, or insert `make()` at the slot the
  /// failed lookup already identified — the probe that proves absence is
  /// the same probe that finds the Robin Hood insertion point, so the
  /// edge-ingest hot path pays one metadata walk instead of the two a
  /// find-then-insert pair costs. `make` is invoked only on a miss.
  /// Returns {&value, newly_inserted}.
  template <typename Make>
  std::pair<Value*, bool> find_or_emplace(const Key& key, Make&& make) {
    if (!meta_.empty() &&
        static_cast<double>(size_ + 1) <=
            kMaxLoad * static_cast<double>(meta_.size())) {
      const std::size_t mask = meta_.size() - 1;
      std::size_t idx = home(key) & mask;
      std::uint8_t dist = 1;
      while (dist != 255) {
        const std::uint8_t m = meta_[idx];
        if (m == dist && keys_[idx] == key) return {&values_[idx], false};
        if (m == 0) {
          keys_[idx] = key;
          values_[idx] = make();
          meta_[idx] = dist;
          ++size_;
          return {&values_[idx], true};
        }
        if (m < dist) {
          // Robin Hood early exit proves absence: claim this slot and
          // push the displaced (shallower) resident onward. Residents
          // move: outstanding handles die.
          ++generation_;
          Key moved_key = std::move(keys_[idx]);
          Value moved_val = std::move(values_[idx]);
          std::uint8_t moved_dist = m;
          keys_[idx] = key;
          values_[idx] = make();
          meta_[idx] = dist;
          ++size_;
          std::size_t j = (idx + 1) & mask;
          ++moved_dist;
          while (true) {
            if (meta_[j] == 0) {
              keys_[j] = std::move(moved_key);
              values_[j] = std::move(moved_val);
              meta_[j] = moved_dist;
              return {&values_[idx], true};
            }
            if (meta_[j] < moved_dist) {
              std::swap(keys_[j], moved_key);
              std::swap(values_[j], moved_val);
              std::swap(meta_[j], moved_dist);
            }
            j = (j + 1) & mask;
            ++moved_dist;
            if (moved_dist == 255) {
              // Pathological clustering: grow (rehash recounts size_ from
              // the table, so the in-flight displaced element is simply
              // added after), then re-locate our entry — the rehash moved
              // it.
              rehash(meta_.size() * 2);
              insert_new(std::move(moved_key), std::move(moved_val));
              Value* v = find(key);
              REMO_ASSERT(v != nullptr);
              return {v, true};
            }
          }
        }
        idx = (idx + 1) & mask;
        ++dist;
      }
    }
    // Slow path: empty table, load-factor growth due, or a pathological
    // probe sequence. Two probes here, amortised away by the resize.
    if (Value* v = find(key)) return {v, false};
    insert_new(key, make());
    Value* v = find(key);
    REMO_ASSERT(v != nullptr);
    return {v, true};
  }

  Value* find(const Key& key) noexcept {
    return const_cast<Value*>(static_cast<const RobinHoodMap*>(this)->find(key));
  }

  const Value* find(const Key& key) const noexcept {
    if (meta_.empty()) return nullptr;
    const std::size_t mask = meta_.size() - 1;
    std::size_t idx = home(key) & mask;
    std::uint8_t dist = 1;
    while (true) {
      const std::uint8_t m = meta_[idx];
      if (m == 0 || m < dist) return nullptr;  // Robin Hood early exit
      if (m == dist && keys_[idx] == key) return &values_[idx];
      idx = (idx + 1) & mask;
      ++dist;
      // Probe distances are capped by rehashing before they overflow.
      REMO_ASSERT(dist != 0);
    }
  }

  bool contains(const Key& key) const noexcept { return find(key) != nullptr; }

  /// Erase by key. Returns true when an entry was removed.
  bool erase(const Key& key) {
    if (meta_.empty()) return false;
    const std::size_t mask = meta_.size() - 1;
    std::size_t idx = home(key) & mask;
    std::uint8_t dist = 1;
    while (true) {
      const std::uint8_t m = meta_[idx];
      if (m == 0 || m < dist) return false;
      if (m == dist && keys_[idx] == key) break;
      idx = (idx + 1) & mask;
      ++dist;
    }
    // Backward-shift: slide the following cluster segment one slot left
    // until an empty slot or a distance-1 (home) element is reached.
    // Residents move: outstanding handles die.
    ++generation_;
    std::size_t hole = idx;
    std::size_t next = (hole + 1) & mask;
    while (meta_[next] > 1) {
      keys_[hole] = std::move(keys_[next]);
      values_[hole] = std::move(values_[next]);
      meta_[hole] = static_cast<std::uint8_t>(meta_[next] - 1);
      hole = next;
      next = (next + 1) & mask;
    }
    meta_[hole] = 0;
    --size_;
    return true;
  }

  /// Visit every (key, value) pair. `fn(const Key&, Value&)`.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < meta_.size(); ++i)
      if (meta_[i] != 0) fn(keys_[i], values_[i]);
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < meta_.size(); ++i)
      if (meta_[i] != 0) fn(keys_[i], values_[i]);
  }

  /// Mean probe distance (1 = direct hit); diagnostic for the micro bench.
  double mean_probe_distance() const noexcept {
    if (size_ == 0) return 0.0;
    std::uint64_t total = 0;
    for (auto m : meta_)
      if (m != 0) total += m;
    return static_cast<double>(total) / static_cast<double>(size_);
  }

  /// Approximate resident bytes (for Table I style accounting).
  std::size_t memory_bytes() const noexcept {
    return meta_.size() * (sizeof(std::uint8_t) + sizeof(Key) + sizeof(Value));
  }

 private:
  static std::size_t home(const Key& key) noexcept {
    return static_cast<std::size_t>(
        std::rotl(Hash{}(static_cast<std::uint64_t>(key)), 32));
  }

  void insert_new(Key k, Value v) {
    if (meta_.empty() ||
        static_cast<double>(size_ + 1) > kMaxLoad * static_cast<double>(meta_.size()))
      rehash(meta_.empty() ? kMinCapacity : meta_.size() * 2);

    const std::size_t mask = meta_.size() - 1;
    std::size_t idx = home(k) & mask;
    std::uint8_t dist = 1;
    while (true) {
      if (meta_[idx] == 0) {
        keys_[idx] = std::move(k);
        values_[idx] = std::move(v);
        meta_[idx] = dist;
        ++size_;
        return;
      }
      if (meta_[idx] < dist) {
        // Rob the rich: displace the shallower resident (handles die).
        ++generation_;
        std::swap(keys_[idx], k);
        std::swap(values_[idx], v);
        std::swap(meta_[idx], dist);
      }
      idx = (idx + 1) & mask;
      ++dist;
      if (dist == 255) {  // pathological clustering: grow and restart
        rehash(meta_.size() * 2);
        insert_new(std::move(k), std::move(v));
        return;
      }
    }
  }

  void rehash(std::size_t new_cap) {
    ++generation_;  // every resident moves
    auto old_meta = std::move(meta_);
    auto old_keys = std::move(keys_);
    auto old_values = std::move(values_);
    meta_.assign(new_cap, 0);
    keys_.resize(new_cap);
    values_.resize(new_cap);
    size_ = 0;
    for (std::size_t i = 0; i < old_meta.size(); ++i)
      if (old_meta[i] != 0) insert_new(std::move(old_keys[i]), std::move(old_values[i]));
  }

  std::vector<std::uint8_t> meta_;
  std::vector<Key> keys_;
  mutable std::vector<Value> values_;
  std::size_t size_ = 0;
  std::uint64_t generation_ = 0;  // handle-stability epoch (see generation())
};

}  // namespace remo
