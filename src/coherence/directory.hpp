// Full-map directory: per-line sharer set and owner, distributed across
// LLC home slices. Capacity is unbounded (document: we study protocol
// traffic, not directory sizing — the paper's extension removes entries
// from the directory entirely, which this model captures exactly).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/types.hpp"

namespace iw::coherence {

enum class DirState : std::uint8_t {
  kUncached,   // no private copies
  kSharedBy,   // >=1 read copies
  kOwnedBy,    // exactly one M/E copy
};

struct DirEntry {
  DirState state{DirState::kUncached};
  std::uint64_t sharers{0};  // bitmask over cores
  std::uint32_t owner{0};    // valid when kOwnedBy
};

class Directory {
 public:
  DirEntry& entry(Addr line) { return map_[line]; }

  void add_sharer(Addr line, unsigned core) {
    auto& e = map_[line];
    e.sharers |= (1ULL << core);
    e.state = DirState::kSharedBy;
  }
  void set_owner(Addr line, unsigned core) {
    auto& e = map_[line];
    e.state = DirState::kOwnedBy;
    e.owner = core;
    e.sharers = (1ULL << core);
  }
  void remove_core(Addr line, unsigned core) {
    auto it = map_.find(line);
    if (it == map_.end()) return;
    it->second.sharers &= ~(1ULL << core);
    if (it->second.sharers == 0) {
      it->second.state = DirState::kUncached;
    } else if (it->second.state == DirState::kOwnedBy &&
               it->second.owner == core) {
      // Owner dropped; remaining copies (if any) are sharers.
      it->second.state = DirState::kSharedBy;
    }
  }
  [[nodiscard]] std::size_t tracked_lines() const { return map_.size(); }

 private:
  std::unordered_map<Addr, DirEntry> map_;
};

}  // namespace iw::coherence
