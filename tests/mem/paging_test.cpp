#include "mem/paging.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "mem/tlb.hpp"

namespace iw::mem {
namespace {

TEST(Tlb, HitAfterFirstAccess) {
  Tlb t(TlbConfig{4, 4096, 0, 100});
  EXPECT_EQ(t.access(0x1000), 100u);  // cold miss
  EXPECT_EQ(t.access(0x1008), 0u);    // same page: hit
  EXPECT_EQ(t.misses(), 1u);
  EXPECT_EQ(t.hits(), 1u);
}

TEST(Tlb, LruEviction) {
  Tlb t(TlbConfig{2, 4096, 0, 100});
  t.access(0x0000);   // page 0
  t.access(0x1000);   // page 1
  t.access(0x0000);   // page 0 now MRU
  t.access(0x2000);   // evicts page 1 (LRU)
  EXPECT_EQ(t.access(0x0000), 0u);    // still resident
  EXPECT_EQ(t.access(0x1000), 100u);  // was evicted
}

TEST(Tlb, FlushClearsAll) {
  Tlb t(TlbConfig{8, 4096, 0, 100});
  t.access(0x0000);
  t.flush();
  EXPECT_EQ(t.access(0x0000), 100u);
}

TEST(IdentityPaging, NoMissesAfterWarmup) {
  // 16 x 1 GiB entries cover the whole simulated memory: after each
  // region is touched once, translation is free — the Nautilus claim.
  IdentityPaging p(16, 1ULL << 30, 150);
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    p.touch(r.uniform(0, (1ULL << 34) - 1));
  }
  const auto warm_misses = p.tlb().misses();
  EXPECT_LE(warm_misses, 16u);  // at most one per covering entry
  for (int i = 0; i < 100000; ++i) {
    p.touch(r.uniform(0, (1ULL << 34) - 1));
  }
  EXPECT_EQ(p.tlb().misses(), warm_misses);  // zero steady-state misses
  EXPECT_EQ(p.stats().fault_cycles, 0u);     // never any faults
}

TEST(DemandPaging, MinorFaultOncePerPage) {
  DemandPaging::Config cfg;
  cfg.tlb_entries = 64;
  cfg.minor_fault_cost = 2000;
  DemandPaging p(cfg);
  p.touch(0x0000);
  p.touch(0x0100);  // same page: no new fault
  p.touch(0x1000);  // new page
  EXPECT_EQ(p.stats().minor_faults, 2u);
  EXPECT_EQ(p.stats().fault_cycles, 4000u);
}

TEST(DemandPaging, LargeWorkingSetThrashesSmallTlb) {
  DemandPaging::Config cfg;
  cfg.tlb_entries = 16;
  DemandPaging p(cfg);
  // Touch 256 distinct pages round-robin: every access misses the TLB.
  for (int round = 0; round < 10; ++round) {
    for (Addr pg = 0; pg < 256; ++pg) p.touch(pg * 4096);
  }
  EXPECT_GT(p.tlb().miss_rate(), 0.99);
}

TEST(PagingComparison, IdentityBeatsDemandOnSameStream) {
  IdentityPaging ident(16, 1ULL << 30, 150);
  DemandPaging::Config cfg;
  cfg.tlb_entries = 64;
  DemandPaging demand(cfg);
  Rng r(7);
  Cycles ident_cost = 0, demand_cost = 0;
  for (int i = 0; i < 50000; ++i) {
    const Addr a = r.uniform(0, (1ULL << 28) - 1);
    ident_cost += ident.touch(a);
    demand_cost += demand.touch(a);
  }
  EXPECT_LT(ident_cost * 10, demand_cost)
      << "identity mapping should be >10x cheaper on a scattered stream";
}

/// Reference fully-associative LRU: a std::list of pages, most recent
/// first, searched linearly. Tlb must agree with it access for access.
class ReferenceLru {
 public:
  ReferenceLru(unsigned entries, std::uint64_t page_size, Cycles walk)
      : entries_(entries), page_size_(page_size), walk_(walk) {}
  Cycles access(Addr addr) {
    const std::uint64_t page = addr / page_size_;
    const auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      ++hits;
      return 0;
    }
    ++misses;
    if (lru_.size() == entries_) lru_.pop_back();
    lru_.push_front(page);
    return walk_;
  }
  void flush() { lru_.clear(); }
  std::uint64_t hits{0};
  std::uint64_t misses{0};

 private:
  unsigned entries_;
  std::uint64_t page_size_;
  Cycles walk_;
  std::list<std::uint64_t> lru_;
};

TEST(Tlb, MatchesReferenceLruOnRandomStreams) {
  // Streams mix a hot set about twice the TLB size (so hits, misses and
  // evictions all happen), far-flung pages across the whole 64-bit
  // space, pages that differ only in high bits, and occasional
  // flushes.
  for (const unsigned entries : {1u, 2u, 3u, 16u, 64u, 1000u}) {
    Tlb tlb(TlbConfig{entries, 4096, 0, 130});
    ReferenceLru ref(entries, 4096, 130);
    Rng r(entries * 7919 + 1);
    const std::uint64_t hot_pages = 2ULL * entries + 1;
    for (int i = 0; i < 60000; ++i) {
      const std::uint64_t pick = r.uniform(0, 99);
      if (pick == 0 && r.uniform(0, 49) == 0) {
        tlb.flush();
        ref.flush();
        continue;
      }
      Addr a = 0;
      if (pick < 80) {
        a = r.uniform(0, hot_pages - 1) * 4096 + r.uniform(0, 4095);
      } else if (pick < 90) {
        // Pages that differ only in high bits.
        a = (r.uniform(0, 15) << 44) | (r.uniform(0, 3) << 12);
      } else {
        a = r.next_u64();
      }
      const Cycles want = ref.access(a);
      ASSERT_EQ(tlb.access(a), want)
          << "entries=" << entries << " access " << i;
    }
    EXPECT_EQ(tlb.hits(), ref.hits) << "entries=" << entries;
    EXPECT_EQ(tlb.misses(), ref.misses) << "entries=" << entries;
    EXPECT_GT(ref.hits, 0u) << "entries=" << entries;
    EXPECT_GT(ref.misses, 0u) << "entries=" << entries;
  }
}

TEST(DemandPaging, SparseHighPagesFaultOnceInBoundedMemory) {
  // Pages near 2^40 and 2^52 (the top of a 64-bit address space at
  // 4 KiB pages), scattered over short runs: each distinct page faults
  // exactly once, and the populated-page set allocates only the bitmap
  // chunks those pages fall in.
  DemandPaging::Config cfg;
  cfg.minor_fault_cost = 1000;
  DemandPaging p(cfg);
  std::set<std::uint64_t> pages;
  std::set<std::uint64_t> chunks;
  Rng r(11);
  // The first run straddles a chunk boundary; the second ends at the
  // last page a 64-bit address can name.
  for (const std::uint64_t base : {(std::uint64_t{1} << 40) - 6000,
                                   (std::uint64_t{1} << 52) - 3 * 4096 - 1}) {
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t page = base + r.uniform(0, 3 * 4096);
      pages.insert(page);
      chunks.insert(page / DemandPaging::kChunkPages);
      p.touch(page * 4096 + r.uniform(0, 4095));
    }
  }
  p.touch(0);
  pages.insert(0);
  chunks.insert(0);
  EXPECT_EQ(p.stats().minor_faults, pages.size());
  EXPECT_EQ(p.stats().fault_cycles, pages.size() * 1000);
  // Touching every page again faults nothing.
  for (const std::uint64_t page : pages) p.touch(page * 4096);
  EXPECT_EQ(p.stats().minor_faults, pages.size());
  EXPECT_EQ(p.bitmap_bytes(), chunks.size() * DemandPaging::kChunkPages / 8);
  EXPECT_LE(p.bitmap_bytes(), std::size_t{5} * 4096);
}

}  // namespace
}  // namespace iw::mem
