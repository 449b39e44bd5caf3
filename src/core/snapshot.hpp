// Snapshot: discretised global algorithm state (Section II-C / III-D).
//
// A snapshot holds, for one program, every vertex whose state differs from
// the program's identity at the discretisation point, sorted by vertex.
// Both collectors harvest a ShardedState first — each rank copies its state
// map, nothing is gathered or sorted globally — and Snapshot is its sorted
// form: Engine::collect_quiescent (drain, then harvest) and
// Engine::collect_versioned (Chandy-Lamport-style epoch split — ingestion
// keeps running while the previous epoch drains).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "storage/robin_hood_map.hpp"

namespace remo {

class Snapshot {
 public:
  using Entry = std::pair<VertexId, StateWord>;

  Snapshot() = default;
  Snapshot(std::vector<Entry> entries, StateWord identity)
      : entries_(std::move(entries)), identity_(identity) {
    std::sort(entries_.begin(), entries_.end());
  }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// State of `v` at the snapshot point; identity when untouched.
  StateWord at(VertexId v) const noexcept {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), v,
                               [](const Entry& e, VertexId key) { return e.first < key; });
    return (it != entries_.end() && it->first == v) ? it->second : identity_;
  }

  StateWord identity() const noexcept { return identity_; }
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Engine epoch in force when this snapshot's cut was taken (stamped by
  /// the collect paths; metadata only — not part of value equality).
  /// collect_versioned stamps the post-cut epoch, so snapshots from
  /// successive cuts carry strictly increasing epochs (mod 2^16); the
  /// serving plane's read-epoch pin (docs/SERVING.md) is built on this.
  std::uint16_t epoch() const noexcept { return epoch_; }
  void set_epoch(std::uint16_t e) noexcept { epoch_ = e; }

  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }

 private:
  std::vector<Entry> entries_;  // sorted by vertex id
  StateWord identity_ = kInfiniteState;
  std::uint16_t epoch_ = 0;
};

/// One program's state at a cut, split by owner rank: shards[r] is rank r's
/// state map as its harvest copied it — the live map with the entries the
/// rank froze in S_prev written over it. A shard may hold identity values
/// (a vertex reset to the identity); readers treat them as absent.
struct ShardedState {
  using Shard = RobinHoodMap<VertexId, StateWord>;

  std::vector<Shard> shards;  // indexed by Partitioner::owner
  StateWord identity = kInfiniteState;
  std::uint16_t epoch = 0;  // as Snapshot::epoch()

  /// The same state as a sorted Snapshot, identity values left out.
  Snapshot to_snapshot() const {
    std::vector<Snapshot::Entry> entries;
    for (const Shard& shard : shards)
      shard.for_each([&](const VertexId& v, const StateWord& val) {
        if (val != identity) entries.emplace_back(v, val);
      });
    Snapshot snap(std::move(entries), identity);
    snap.set_epoch(epoch);
    return snap;
  }
};

}  // namespace remo
