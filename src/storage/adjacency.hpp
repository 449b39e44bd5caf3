// Degree-aware adjacency container (the per-vertex half of DegAwareRHH).
//
// Low-degree vertices — the overwhelming majority in scale-free graphs —
// keep their edges in a compact inline array inside the vertex record.
// Once a vertex's degree crosses `promote_threshold`, its edges move into
// an open-addressing Robin Hood table, which keeps O(1) duplicate detection
// and deletion for the heavy hitters. This mirrors Section III-B: "a
// separate, compact data structure for low-degree vertices" combined with
// Robin-Hood-hashed high-degree storage.
#pragma once

#include <cstdint>

#include "common/small_vector.hpp"
#include "common/types.hpp"
#include "storage/robin_hood_map.hpp"

namespace remo {

/// Per-edge properties: the weight, and the cached algorithm state of the
/// neighbour at the far end. The cache corresponds to `nbrs.set(vis_ID,
/// vis_val)` in the paper's Algorithm 3 — visitors deposit their sender's
/// state so callbacks can consult neighbour values without messaging.
/// One cache word is shared by all attached programs; `cache_algo` tags
/// the program that last wrote it, so each program only ever trusts its
/// own deposits (the paper's prototype ran a single algorithm — with
/// several, the last writer per edge wins and the others simply lose the
/// redundancy-filter optimisation on that edge).
struct EdgeProp {
  static constexpr std::uint8_t kNoCacheOwner = 0xFF;

  Weight weight = kDefaultWeight;
  std::uint8_t cache_algo = kNoCacheOwner;
  StateWord nbr_cache = kInfiniteState;

  StateWord cache_for(std::uint8_t algo) const noexcept {
    return cache_algo == algo ? nbr_cache : kInfiniteState;
  }

  void set_cache(std::uint8_t algo, StateWord value) noexcept {
    cache_algo = algo;
    nbr_cache = value;
  }

  void clear_cache() noexcept {
    cache_algo = kNoCacheOwner;
    nbr_cache = kInfiniteState;
  }
};

class TwoTierAdjacency {
 public:
  static constexpr std::uint32_t kDefaultPromoteThreshold = 8;

  TwoTierAdjacency() = default;

  std::size_t degree() const noexcept {
    return promoted() ? table_.size() : inline_.size();
  }

  /// Handle-stability epoch for EdgeProp* obtained from find()/insert_get():
  /// unchanged generation ⟹ the pointer still addresses the same edge.
  /// Bumps on inline-tier reallocation, swap_erase, promotion, and every
  /// table-tier resident move (RobinHoodMap::generation()). NOTE this does
  /// not cover the record itself moving inside DegAwareStore's vertex map —
  /// use DegAwareStore::generation() for that outer layer.
  std::uint64_t generation() const noexcept {
    return gen_ + table_.generation();
  }

  bool promoted() const noexcept { return table_.size() != 0 || promoted_flag_; }

  /// Insert an edge to `nbr`, or update its weight when it already exists.
  /// Returns true when the edge is new. Parallel edges collapse into one
  /// (keeping the latest weight); the multigraph event count is tracked by
  /// the engine, not the store.
  bool insert(VertexId nbr, Weight w, std::uint32_t promote_threshold) {
    return insert_get(nbr, w, promote_threshold).second;
  }

  /// insert() that also hands back the edge's property slot, so callers
  /// that deposit into the neighbour cache right after inserting (the
  /// Reverse-Add hot path) skip a second probe. The pointer is valid until
  /// the next mutation of this adjacency — precisely: until generation()
  /// changes. Re-resolve with find() after any interleaved insert/erase.
  /// When the edge already existed, `old_w` (if given) receives the weight
  /// it carried before this call overwrote it — the engine uses this to
  /// distinguish a weight *change* from a fresh insert so non-monotone
  /// programs see on_weight_change instead of a spurious on_add.
  std::pair<EdgeProp*, bool> insert_get(VertexId nbr, Weight w,
                                        std::uint32_t promote_threshold,
                                        Weight* old_w = nullptr) {
    if (!promoted()) {
      for (auto& e : inline_) {
        if (e.nbr == nbr) {
          if (old_w) *old_w = e.prop.weight;
          e.prop.weight = w;
          return {&e.prop, false};
        }
      }
      if (inline_.size() < promote_threshold) {
        // A full inline buffer reallocates on append: existing EdgeProp
        // handles die with it.
        if (inline_.size() == inline_.capacity()) ++gen_;
        inline_.emplace_back(InlineEdge{nbr, EdgeProp{.weight = w}});
        return {&inline_.back().prop, true};
      }
      promote();
    }
    auto [prop, fresh] =
        table_.find_or_emplace(nbr, [&] { return EdgeProp{.weight = w}; });
    if (!fresh) {
      if (old_w) *old_w = prop->weight;
      prop->weight = w;
    }
    return {prop, fresh};
  }

  /// Remove the edge to `nbr`; returns true when it existed. `erased`
  /// (if given) receives a copy of the edge's properties — delete events
  /// name only the endpoints, but weight-dependent programs must retract
  /// the *stored* weight, and memo-delta programs the memoized message
  /// riding in the cache slot (PageRank mass revocation; DESIGN.md §8).
  bool erase(VertexId nbr, EdgeProp* erased = nullptr) {
    if (!promoted()) {
      for (std::size_t i = 0; i < inline_.size(); ++i) {
        if (inline_[i].nbr == nbr) {
          if (erased) *erased = inline_[i].prop;
          inline_.swap_erase(i);  // moves the tail edge: handles die
          ++gen_;
          return true;
        }
      }
      return false;
    }
    if (erased) {
      if (const EdgeProp* p = table_.find(nbr)) *erased = *p;
    }
    return table_.erase(nbr);
  }

  EdgeProp* find(VertexId nbr) noexcept {
    if (!promoted()) {
      for (auto& e : inline_)
        if (e.nbr == nbr) return &e.prop;
      return nullptr;
    }
    return table_.find(nbr);
  }

  const EdgeProp* find(VertexId nbr) const noexcept {
    return const_cast<TwoTierAdjacency*>(this)->find(nbr);
  }

  bool contains(VertexId nbr) const noexcept { return find(nbr) != nullptr; }

  Weight weight_of(VertexId nbr) const noexcept {
    const EdgeProp* p = find(nbr);
    return p ? p->weight : kDefaultWeight;
  }

  /// Visit every neighbour: `fn(VertexId, EdgeProp&)`.
  template <typename Fn>
  void for_each(Fn&& fn) {
    if (!promoted()) {
      for (auto& e : inline_) fn(e.nbr, e.prop);
    } else {
      table_.for_each([&](const VertexId& nbr, EdgeProp& prop) { fn(nbr, prop); });
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    const_cast<TwoTierAdjacency*>(this)->for_each(
        [&](VertexId nbr, EdgeProp& prop) { fn(nbr, static_cast<const EdgeProp&>(prop)); });
  }

  std::size_t memory_bytes() const noexcept {
    std::size_t bytes = sizeof(*this);
    if (promoted())
      bytes += table_.memory_bytes();
    else if (!inline_.is_inline())
      bytes += inline_.capacity() * sizeof(InlineEdge);
    return bytes;
  }

 private:
  struct InlineEdge {
    VertexId nbr;
    EdgeProp prop;
  };

  void promote() {
    ++gen_;  // every inline edge moves into the table
    table_.reserve(inline_.size() * 2);
    for (auto& e : inline_) table_.insert_or_assign(e.nbr, e.prop);
    inline_.clear();
    promoted_flag_ = true;
  }

  SmallVector<InlineEdge, 2> inline_;
  RobinHoodMap<VertexId, EdgeProp> table_;
  // A promoted vertex whose table becomes empty again (all edges deleted)
  // stays promoted; demotion churn is not worth the bookkeeping.
  bool promoted_flag_ = false;
  std::uint64_t gen_ = 0;  // inline-tier half of generation()
};

}  // namespace remo
