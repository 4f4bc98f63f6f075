// Set-associative private cache with per-line MESI (+deactivated) state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace iw::coherence {

enum class LineState : std::uint8_t {
  kInvalid,
  kShared,
  kExclusive,
  kModified,
  kIncoherent,  // selective-deactivation extension: untracked by the
                // directory, owned by exactly one task by construction
};

[[nodiscard]] const char* state_name(LineState s);

/// One way of a set, 16 bytes so that an 8-way set spans two or three
/// host cache lines: the way scan in find() is the model's hottest loop,
/// and the set array of a 64-core model is far larger than a host L2.
struct CacheLine {
  Addr tag{0};  // line-aligned address
  std::uint32_t region{0};
  /// LRU stamp, exact within a set: see PrivateCache::next_stamp().
  std::uint16_t lru{0};
  LineState state{LineState::kInvalid};
  bool dirty{false};  // meaningful for kIncoherent (M implies dirty)
};
static_assert(sizeof(CacheLine) == 16, "CacheLine is a 16-byte record");

struct CacheConfig {
  std::uint64_t size_bytes{256 * 1024};
  unsigned associativity{8};
  unsigned line_size{64};
};

/// One private cache level (models the combined L1+L2 private hierarchy
/// of a core: hit costs are charged by the simulator's latency table).
class PrivateCache {
 public:
  explicit PrivateCache(CacheConfig cfg);

  [[nodiscard]] Addr line_addr(Addr a) const {
    return a & ~static_cast<Addr>(cfg_.line_size - 1);
  }

  /// Look up a line; returns nullptr on miss. Updates LRU on hit.
  CacheLine* find(Addr addr);

  /// LRU-neutral const lookup (for invariant checkers / debugging).
  [[nodiscard]] const CacheLine* probe(Addr addr) const;

  /// Start loading the set `addr` maps to into the host cache; changes
  /// nothing observable.
  void prefetch(Addr addr) const;

  /// Insert (possibly evicting). Returns the evicted line if it was
  /// valid (caller handles writeback/directory notification). The
  /// victim is the set's first invalid way, else its least recent one.
  std::optional<CacheLine> insert(Addr addr, LineState state,
                                  std::uint32_t region);

  /// Invalidate the line if present; returns its prior state.
  LineState invalidate(Addr addr);

  /// Enumerate valid lines belonging to `region` (for handoff flushes),
  /// in (set, way) order. Callers sum floating-point energy in this
  /// order, so it is part of the model's observable behavior.
  std::vector<CacheLine> lines_in_region(std::uint32_t region) const;

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  /// Index of way 0 of the set holding `addr`.
  [[nodiscard]] std::size_t set_base(Addr addr) const {
    return static_cast<std::size_t>((addr >> line_shift_) & set_mask_) *
           assoc_;
  }
  /// A stamp newer than every valid line's. When the 16-bit counter
  /// would wrap, each set's valid ways are renumbered 1..k by age, which
  /// keeps every set's recency order (the only thing the victim choice
  /// reads) exactly as with unbounded stamps.
  std::uint16_t next_stamp();
  void renumber();

  CacheConfig cfg_;
  unsigned assoc_;
  unsigned line_shift_;
  Addr set_mask_;
  std::vector<CacheLine> lines_;  // num_sets x assoc
  std::uint16_t tick_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace iw::coherence
