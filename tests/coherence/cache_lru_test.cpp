// PrivateCache against a reference LRU with unbounded 64-bit stamps.
// The 16-bit stamps wrap many times over each stream, so every stream
// crosses several renumberings; hits, evictions, invalidations and the
// (set, way) order of lines_in_region must match the reference
// operation for operation.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coherence/cache.hpp"
#include "common/rng.hpp"

namespace iw::coherence {
namespace {

/// The model's placement rule with 64-bit stamps that never wrap:
/// victim = first invalid way, else the way with the oldest stamp.
class ReferenceLru {
 public:
  struct Way {
    Addr tag{0};
    LineState state{LineState::kInvalid};
    std::uint64_t lru{0};
    std::uint32_t region{0};
    bool dirty{false};
  };

  explicit ReferenceLru(CacheConfig cfg)
      : cfg_(cfg),
        sets_(cfg.size_bytes / (cfg.line_size * cfg.associativity)),
        ways_(sets_ * cfg.associativity) {}

  Way* find(Addr addr) {
    for (Way& w : set_of(addr)) {
      if (w.state != LineState::kInvalid && w.tag == line(addr)) {
        w.lru = ++tick_;
        return &w;
      }
    }
    return nullptr;
  }

  std::optional<Way> insert(Addr addr, LineState state, std::uint32_t region) {
    std::span<Way> set = set_of(addr);
    std::size_t victim = 0;
    for (std::size_t w = 0; w < set.size(); ++w) {
      if (set[w].state == LineState::kInvalid) {
        victim = w;
        break;
      }
      if (set[w].lru < set[victim].lru) victim = w;
    }
    std::optional<Way> evicted;
    if (set[victim].state != LineState::kInvalid) evicted = set[victim];
    set[victim] = Way{line(addr), state, ++tick_, region, false};
    return evicted;
  }

  LineState invalidate(Addr addr) {
    for (Way& w : set_of(addr)) {
      if (w.state != LineState::kInvalid && w.tag == line(addr)) {
        const LineState prior = w.state;
        w.state = LineState::kInvalid;
        return prior;
      }
    }
    return LineState::kInvalid;
  }

  std::vector<Way> lines_in_region(std::uint32_t region) const {
    std::vector<Way> out;
    for (const Way& w : ways_) {
      if (w.state != LineState::kInvalid && w.region == region) {
        out.push_back(w);
      }
    }
    return out;
  }

 private:
  Addr line(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_size - 1); }
  std::span<Way> set_of(Addr a) {
    const std::size_t set = (a / cfg_.line_size) % sets_;
    return {ways_.data() + set * cfg_.associativity, cfg_.associativity};
  }

  CacheConfig cfg_;
  std::size_t sets_;
  std::vector<Way> ways_;
  std::uint64_t tick_{0};
};

constexpr std::uint32_t kRegions = 3;
constexpr LineState kFillStates[] = {LineState::kShared, LineState::kExclusive,
                                     LineState::kModified,
                                     LineState::kIncoherent};

void expect_same_lines(const std::vector<CacheLine>& got,
                       const std::vector<ReferenceLru::Way>& want,
                       std::uint64_t op) {
  ASSERT_EQ(got.size(), want.size()) << "op " << op;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tag, want[i].tag) << "op " << op << " line " << i;
    EXPECT_EQ(got[i].state, want[i].state) << "op " << op << " line " << i;
    EXPECT_EQ(got[i].region, want[i].region) << "op " << op << " line " << i;
    EXPECT_EQ(got[i].dirty, want[i].dirty) << "op " << op << " line " << i;
  }
}

/// Plays one random stream through both caches: lookups that fill on a
/// miss (as the simulator does), dirtying hits, and interleaved
/// invalidations. Counts the LRU stamps the stream consumed in `stamps`.
void play_stream(CacheConfig cfg, std::uint64_t seed, std::uint64_t ops,
                 std::uint64_t& stamps) {
  PrivateCache dut(cfg);
  ReferenceLru ref(cfg);
  Rng rng(seed);
  const std::uint64_t lines = cfg.size_bytes / cfg.line_size;
  // Twice the capacity, with a hot quarter, so sets both thrash and
  // keep a recency order worth checking.
  const std::uint64_t pool = 2 * lines;
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t idx =
        rng.chance(0.5) ? rng.uniform(0, pool / 4) : rng.uniform(0, pool - 1);
    const Addr addr = 0x4000'0000 + idx * cfg.line_size + rng.uniform(0, 7);
    if (rng.chance(0.1)) {
      EXPECT_EQ(dut.invalidate(addr), ref.invalidate(addr)) << "op " << op;
      continue;
    }
    CacheLine* hit = dut.find(addr);
    ReferenceLru::Way* want = ref.find(addr);
    ASSERT_EQ(hit != nullptr, want != nullptr) << "op " << op;
    if (hit != nullptr) {
      ++stamps;
      EXPECT_EQ(hit->state, want->state) << "op " << op;
      if (rng.chance(0.2)) hit->dirty = want->dirty = true;
    } else {
      ++stamps;
      const LineState st = kFillStates[rng.uniform(0, 3)];
      const auto region = static_cast<std::uint32_t>(rng.uniform(0, kRegions - 1));
      const auto got = dut.insert(addr, st, region);
      const auto exp = ref.insert(addr, st, region);
      ASSERT_EQ(got.has_value(), exp.has_value()) << "op " << op;
      if (got) {
        EXPECT_EQ(got->tag, exp->tag) << "op " << op;
        EXPECT_EQ(got->state, exp->state) << "op " << op;
        EXPECT_EQ(got->region, exp->region) << "op " << op;
        EXPECT_EQ(got->dirty, exp->dirty) << "op " << op;
      }
    }
    if (op % 4096 == 0) {
      for (std::uint32_t r = 0; r < kRegions; ++r) {
        expect_same_lines(dut.lines_in_region(r), ref.lines_in_region(r), op);
      }
    }
  }
  for (std::uint32_t r = 0; r < kRegions; ++r) {
    expect_same_lines(dut.lines_in_region(r), ref.lines_in_region(r), ops);
  }
}

class CacheLruTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheLruTest, MatchesUnboundedStampReferenceAcrossRenumbering) {
  const unsigned assoc = GetParam();
  // 64 sets at every associativity.
  const CacheConfig cfg{64ULL * 64 * assoc, assoc, 64};
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    std::uint64_t stamps = 0;
    play_stream(cfg, seed, 240'000, stamps);
    // Each 16-bit counter wrap renumbers; make sure several happened.
    EXPECT_GT(stamps, 3u * 65'535u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Associativity, CacheLruTest,
                         ::testing::Values(1u, 2u, 8u, 16u));

TEST(PrivateCacheUnit, RenumberingKeepsRecencyOrderOfASet) {
  // One 4-way set. Touch the ways in a fixed order, wrap the stamp
  // counter with hits on one line, and check the victim order.
  PrivateCache c(CacheConfig{4 * 64, 4, 64});
  for (Addr a = 0; a < 4; ++a) c.insert(a * 64, LineState::kShared, 0);
  for (const Addr a : {2, 0, 3}) c.find(a * 64);  // order: 1, 2, 0, 3
  for (int i = 0; i < 70'000; ++i) c.find(3 * 64);
  for (const Addr want : {1, 2, 0}) {
    const auto evicted = c.insert((8 + want) * 64, LineState::kShared, 0);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->tag, want * 64);
  }
}

}  // namespace
}  // namespace iw::coherence
