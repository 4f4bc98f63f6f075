// Fully-associative LRU TLB model with cycle accounting. Fixed-size
// slot arrays searched by a linear scan: no access allocates.
//
// The paper's argument (§I, §IV-A): identity mapping with the largest
// possible pages means TLB entries can cover the whole physical address
// space — after warm-up there are *no* TLB misses; paging-based stacks
// pay walks continuously. Tlb lets both stacks charge translation costs
// against the same access streams.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "substrate/substrate.hpp"

namespace iw::mem {

struct TlbConfig {
  unsigned entries{64};
  std::uint64_t page_size{4096};
  Cycles hit_cost{0};
  Cycles miss_walk_cost{130};
};

class Tlb {
 public:
  explicit Tlb(TlbConfig cfg);

  /// Run this TLB on a stack substrate: every translation's cost is
  /// charged to `core`'s clock and mem.tlb_* counters stream to the
  /// registry. Unbound (the default): the caller owns the cycles.
  void bind_substrate(substrate::StackSubstrate* sub, CoreId core);
  [[nodiscard]] substrate::StackSubstrate* substrate() const { return sub_; }

  /// Translate an access to `addr`; returns the cycle cost (hit or walk)
  /// and updates LRU state.
  Cycles access(Addr addr);

  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double miss_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total)
                 : 0.0;
  }
  [[nodiscard]] const TlbConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  void unlink(std::uint32_t slot);
  void push_front(std::uint32_t slot);

  TlbConfig cfg_;
  // Resident pages live in slots [0, used_) of `entries` fixed slots,
  // found by a linear scan (production TLBs have 32 or 64 entries).
  // Recency is an intrusive doubly linked list over slot indices, most
  // recent at head_, so a hit relinks two indices and a miss reuses
  // tail_'s slot.
  std::vector<std::uint64_t> page_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  std::uint32_t head_{kNone};
  std::uint32_t tail_{kNone};
  std::uint32_t used_{0};
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};

  substrate::StackSubstrate* sub_{nullptr};
  CoreId core_{0};
  /// Cached registry cells (translations are hot). Null while unbound or
  /// metrics are off.
  std::uint64_t* hit_cell_{nullptr};
  std::uint64_t* miss_cell_{nullptr};
};

}  // namespace iw::mem
