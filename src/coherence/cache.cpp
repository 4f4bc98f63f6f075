#include "coherence/cache.hpp"

#include <bit>
#include <limits>

#include "common/assert.hpp"

namespace iw::coherence {

const char* state_name(LineState s) {
  switch (s) {
    case LineState::kInvalid: return "I";
    case LineState::kShared: return "S";
    case LineState::kExclusive: return "E";
    case LineState::kModified: return "M";
    case LineState::kIncoherent: return "D";  // deactivated
  }
  return "?";
}

namespace {
constexpr std::uint16_t kMaxStamp = std::numeric_limits<std::uint16_t>::max();
constexpr std::uintptr_t kHostLine = 64;
}  // namespace

PrivateCache::PrivateCache(CacheConfig cfg)
    : cfg_(cfg),
      assoc_(cfg.associativity),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg.line_size))) {
  IW_ASSERT(cfg.line_size >= 8 && std::has_single_bit(cfg.line_size));
  IW_ASSERT(cfg.associativity >= 1 && cfg.associativity < kMaxStamp / 2);
  const auto num_sets = static_cast<unsigned>(
      cfg.size_bytes / (cfg.line_size * cfg.associativity));
  IW_ASSERT(num_sets >= 1 && std::has_single_bit(num_sets));
  set_mask_ = num_sets - 1;
  lines_.assign(static_cast<std::size_t>(num_sets) * assoc_, CacheLine{});
}

std::uint16_t PrivateCache::next_stamp() {
  if (tick_ == kMaxStamp) renumber();
  return ++tick_;
}

void PrivateCache::renumber() {
  std::vector<std::uint16_t> rank(assoc_);
  for (std::size_t base = 0; base < lines_.size(); base += assoc_) {
    CacheLine* set = &lines_[base];
    for (unsigned w = 0; w < assoc_; ++w) {
      if (set[w].state == LineState::kInvalid) continue;
      rank[w] = 1;
      for (unsigned v = 0; v < assoc_; ++v) {
        if (set[v].state != LineState::kInvalid && set[v].lru < set[w].lru) {
          ++rank[w];
        }
      }
    }
    for (unsigned w = 0; w < assoc_; ++w) {
      if (set[w].state != LineState::kInvalid) set[w].lru = rank[w];
    }
  }
  tick_ = static_cast<std::uint16_t>(assoc_);
}

CacheLine* PrivateCache::find(Addr addr) {
  const Addr line = line_addr(addr);
  CacheLine* set = &lines_[set_base(line)];
  for (unsigned w = 0; w < assoc_; ++w) {
    CacheLine& l = set[w];
    if (l.state != LineState::kInvalid && l.tag == line) {
      l.lru = next_stamp();
      ++hits_;
      return &l;
    }
  }
  ++misses_;
  return nullptr;
}

void PrivateCache::prefetch(Addr addr) const {
  const CacheLine* set = &lines_[set_base(addr)];
  const auto first = reinterpret_cast<std::uintptr_t>(set) & ~(kHostLine - 1);
  const auto last = reinterpret_cast<std::uintptr_t>(set + assoc_) - 1;
  for (std::uintptr_t p = first; p <= last; p += kHostLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(p), /*rw=*/1);
  }
}

std::optional<CacheLine> PrivateCache::insert(Addr addr, LineState state,
                                              std::uint32_t region) {
  const Addr line = line_addr(addr);
  CacheLine* set = &lines_[set_base(line)];
  // Prefer an invalid way; else evict LRU.
  unsigned victim = 0;
  for (unsigned w = 0; w < assoc_; ++w) {
    if (set[w].state == LineState::kInvalid) {
      victim = w;
      break;
    }
    if (set[w].lru < set[victim].lru) victim = w;
  }
  std::optional<CacheLine> evicted;
  if (set[victim].state != LineState::kInvalid) evicted = set[victim];
  set[victim] = CacheLine{.tag = line,
                          .region = region,
                          .lru = next_stamp(),
                          .state = state,
                          .dirty = false};
  return evicted;
}

const CacheLine* PrivateCache::probe(Addr addr) const {
  const Addr line = line_addr(addr);
  const CacheLine* set = &lines_[set_base(line)];
  for (unsigned w = 0; w < assoc_; ++w) {
    if (set[w].state != LineState::kInvalid && set[w].tag == line) {
      return &set[w];
    }
  }
  return nullptr;
}

LineState PrivateCache::invalidate(Addr addr) {
  const Addr line = line_addr(addr);
  CacheLine* set = &lines_[set_base(line)];
  for (unsigned w = 0; w < assoc_; ++w) {
    CacheLine& l = set[w];
    if (l.state != LineState::kInvalid && l.tag == line) {
      const LineState prior = l.state;
      l.state = LineState::kInvalid;
      return prior;
    }
  }
  return LineState::kInvalid;
}

std::vector<CacheLine> PrivateCache::lines_in_region(
    std::uint32_t region) const {
  std::vector<CacheLine> out;
  for (const auto& l : lines_) {
    if (l.state != LineState::kInvalid && l.region == region) {
      out.push_back(l);
    }
  }
  return out;
}

}  // namespace iw::coherence
