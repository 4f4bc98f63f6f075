#include "mem/tlb.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace iw::mem {

Tlb::Tlb(TlbConfig cfg)
    : cfg_(cfg), page_(cfg.entries), prev_(cfg.entries), next_(cfg.entries) {
  IW_ASSERT(cfg.entries >= 1);
}

void Tlb::bind_substrate(substrate::StackSubstrate* sub, CoreId core) {
  sub_ = sub;
  core_ = core;
  hit_cell_ = nullptr;
  miss_cell_ = nullptr;
  if (sub_ == nullptr) return;
  IW_ASSERT_MSG(core < sub_->num_cores(), "TLB bound to out-of-range core");
  if (obs::MetricsRegistry* m = sub_->metrics()) {
    hit_cell_ = &m->counter(obs::names::kMemTlbHits);
    miss_cell_ = &m->counter(obs::names::kMemTlbMisses);
  }
}

void Tlb::unlink(std::uint32_t slot) {
  const std::uint32_t p = prev_[slot];
  const std::uint32_t n = next_[slot];
  (p == kNone ? head_ : next_[p]) = n;
  (n == kNone ? tail_ : prev_[n]) = p;
}

void Tlb::push_front(std::uint32_t slot) {
  prev_[slot] = kNone;
  next_[slot] = head_;
  (head_ == kNone ? tail_ : prev_[head_]) = slot;
  head_ = slot;
}

Cycles Tlb::access(Addr addr) {
  const std::uint64_t page = addr / cfg_.page_size;
  const auto resident = page_.begin() + used_;
  const auto it = std::find(page_.begin(), resident, page);
  if (it != resident) {
    ++hits_;
    const auto slot = static_cast<std::uint32_t>(it - page_.begin());
    if (slot != head_) {  // move to front
      unlink(slot);
      push_front(slot);
    }
    if (sub_ != nullptr) {
      sub_->charge(core_, cfg_.hit_cost);
      if (hit_cell_ != nullptr) ++*hit_cell_;
    }
    return cfg_.hit_cost;
  }
  ++misses_;
  std::uint32_t slot = used_;
  if (used_ == cfg_.entries) {
    // Full: evict the least recently used page and reuse its slot.
    slot = tail_;
    unlink(slot);
  } else {
    ++used_;
  }
  page_[slot] = page;
  push_front(slot);
  if (sub_ != nullptr) {
    // A walk is long enough to matter on the timeline: record it as a
    // span so miss storms are visible next to whatever triggered them.
    sub_->charge_span(core_, "mem.tlb_walk", cfg_.miss_walk_cost);
    if (miss_cell_ != nullptr) ++*miss_cell_;
  }
  return cfg_.miss_walk_cost;
}

void Tlb::flush() {
  head_ = kNone;
  tail_ = kNone;
  used_ = 0;
}

}  // namespace iw::mem
