#include "mem/paging.hpp"

#include <algorithm>

namespace iw::mem {

IdentityPaging::IdentityPaging(unsigned covering_entries,
                               std::uint64_t page_size, Cycles walk_cost)
    : tlb_(TlbConfig{covering_entries, page_size, 0, walk_cost}) {}

Cycles IdentityPaging::touch(Addr addr) {
  ++stats_.accesses;
  const Cycles c = tlb_.access(addr);
  stats_.translation_cycles += c;
  return c;
}

DemandPaging::DemandPaging(Config cfg)
    : cfg_(cfg),
      tlb_(TlbConfig{cfg.tlb_entries, cfg.page_size, 0, cfg.walk_cost}) {}

std::uint64_t* DemandPaging::chunk_bits(std::uint64_t base) {
  if (last_chunk_ < chunks_.size() && chunks_[last_chunk_].base == base) {
    return chunks_[last_chunk_].bits.get();
  }
  auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), base,
      [](const Chunk& c, std::uint64_t b) { return c.base < b; });
  if (it == chunks_.end() || it->base != base) {
    it = chunks_.insert(
        it, Chunk{base, std::make_unique<std::uint64_t[]>(kChunkWords)});
  }
  last_chunk_ = static_cast<std::size_t>(it - chunks_.begin());
  return it->bits.get();
}

Cycles DemandPaging::touch(Addr addr) {
  ++stats_.accesses;
  Cycles c = tlb_.access(addr);
  stats_.translation_cycles += c;
  const std::uint64_t page = addr / cfg_.page_size;
  std::uint64_t& word =
      chunk_bits(page >> kChunkBits)[(page & (kChunkPages - 1)) / 64];
  const std::uint64_t bit = std::uint64_t{1} << (page % 64);
  if ((word & bit) == 0) {
    word |= bit;
    ++stats_.minor_faults;
    stats_.fault_cycles += cfg_.minor_fault_cost;
    c += cfg_.minor_fault_cost;
  }
  return c;
}

}  // namespace iw::mem
