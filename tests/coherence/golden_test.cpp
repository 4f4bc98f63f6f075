// CoherenceSim golden outcomes: the PBBS suite at 8, 24 and 64 cores,
// deactivation off and on, each run bound to an analytic substrate with
// a metrics registry. Every SimStats field, the bit pattern of the
// interconnect energy, every core clock and the exported metrics must
// equal the recorded values. The per-message energies are given
// fractional values so that the energy total depends on the order of
// its floating-point additions (the handoff flush's order among them).
// The interconnect is configured for the traced core count, as Fig. 7
// does. On a mismatch the test prints the actual row in table form.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "coherence/simulator.hpp"
#include "obs/metrics.hpp"
#include "substrate/substrate.hpp"
#include "workloads/pbbs_traces.hpp"

namespace iw::coherence {
namespace {

struct Golden {
  unsigned cores;
  bool deactivate;
  const char* kernel;
  std::uint64_t accesses;
  std::uint64_t private_hits;
  std::uint64_t directory_lookups;
  std::uint64_t directory_updates;
  std::uint64_t invalidations;
  std::uint64_t three_hop_transfers;
  std::uint64_t memory_fetches;
  std::uint64_t handoff_flushes;
  std::uint64_t total_latency;
  std::uint64_t noc_messages;
  std::uint64_t noc_line_transfers;
  std::uint64_t noc_socket_crossings;
  std::uint64_t noc_energy_bits;
  std::uint64_t clocks_hash;
  std::uint64_t metrics_hash;

  bool operator==(const Golden&) const = default;
};

// clang-format off
constexpr Golden kGolden[] = {
    {8, false, "map", 48000, 41984, 6016, 3968, 0, 4, 3004, 0, 2350324, 16004, 8000, 7990, 0x4138194fccccd01fULL, 0x36ffe1267b6739a4ULL, 0xe8c3ed585c43e375ULL},
    {8, false, "reduce", 27052, 24002, 3050, 991, 21, 576, 1516, 0, 1212992, 7693, 3051, 3656, 0x41259570999998ebULL, 0x922c49a2fef739faULL, 0x4d0dd707d611ad97ULL},
    {8, false, "filter", 60067, 55153, 4914, 2828, 38, 53, 2465, 0, 2006098, 12709, 6003, 6322, 0x4132e4b08000013fULL, 0xdbea8846fff23793ULL, 0x650598316037c69eULL},
    {8, false, "bfs", 30000, 15663, 14337, 2126, 10420, 10516, 2064, 0, 5039296, 41317, 14748, 21415, 0x414e25240000030bULL, 0x3b10d489d36f58e9ULL, 0x3194f12b0f0a6cc8ULL},
    {8, false, "sort", 95936, 86976, 8960, 6847, 41, 1722, 3008, 0, 3440872, 26547, 13063, 13385, 0x41440f4900000226ULL, 0x8858dce7225094deULL, 0xa7e2414a7511a71aULL},
    {8, true, "map", 48000, 41984, 0, 0, 0, 0, 1500, 1024, 1246596, 8000, 4992, 3992, 0x4129423f333333d2ULL, 0xdd631f412f762494ULL, 0x2f3d171d3aa80f6cULL},
    {8, true, "reduce", 27052, 23998, 30, 0, 15, 15, 1516, 8, 1150838, 6159, 3062, 3038, 0x412265b5cccccc2fULL, 0x66f79c73830ec504ULL, 0x3649ac6906d2a628ULL},
    {8, true, "filter", 60067, 55153, 1522, 862, 52, 52, 2273, 172, 1824562, 10187, 5605, 5072, 0x412f3c7d99999abbULL, 0x5f486af2d1445db0ULL, 0x1b06e93cec37b425ULL},
    {8, true, "bfs", 30000, 15664, 10576, 0, 10388, 10388, 1696, 312, 4730264, 38030, 14042, 19801, 0x414bf8b50ccccf68ULL, 0xbd3406eb1ac5087eULL, 0x74f7725ad29bd411ULL},
    {8, true, "sort", 95936, 86840, 0, 0, 0, 0, 1504, 3143, 2256200, 18105, 11993, 9050, 0x413d0497333337e0ULL, 0xfaba2b86b5a2c497ULL, 0x94772784e09c1125ULL},
    {24, false, "map", 144000, 125952, 18048, 11904, 0, 12, 9012, 0, 9234464, 48012, 24000, 23993, 0x4159862140000606ULL, 0x05cf0ac696ee8822ULL, 0x3b0fa99b6931e5f0ULL},
    {24, false, "reduce", 81164, 72010, 9154, 2978, 60, 1759, 4548, 0, 4708178, 23117, 9155, 10681, 0x414690eae6666667ULL, 0x6834473b38ffc7c6ULL, 0x3e50015503d0d415ULL},
    {24, false, "filter", 179990, 165271, 14719, 8523, 52, 110, 7377, 0, 7789920, 38071, 18035, 18942, 0x41540c47666669fdULL, 0x8ff635d8578c3d0fULL, 0x54706c544245aee4ULL},
    {24, false, "bfs", 90000, 44159, 45841, 6494, 34083, 34358, 6191, 0, 23505198, 132535, 47111, 67139, 0x4171135e3ffff71fULL, 0xadc4c93a97dae79dULL, 0x6bf1b86728e0386eULL},
    {24, false, "sort", 287424, 259650, 27774, 21579, 43, 7584, 9024, 0, 14473272, 84789, 37006, 42432, 0x4166256003332f87ULL, 0x9c2c7d1a30bdd20fULL, 0x74e316e462678c4eULL},
    {24, true, "map", 144000, 125952, 0, 0, 0, 0, 4500, 3072, 4833024, 24000, 14976, 11996, 0x414a66d3b33335d1ULL, 0x513caee5f50387c7ULL, 0x14e70ec129958dbcULL},
    {24, true, "reduce", 81164, 71998, 94, 0, 47, 47, 4548, 24, 4551428, 18495, 9190, 9104, 0x414371257333337bULL, 0x78dd6726ad94ec2cULL, 0x8c2a833da1624df8ULL},
    {24, true, "filter", 179990, 165271, 4543, 2584, 140, 140, 6801, 513, 7106446, 30501, 16794, 15153, 0x415063b18ccccf6eULL, 0x6cb95ce6fcbb0e13ULL, 0x0f0fcb0c0070c9b3ULL},
    {24, true, "bfs", 90000, 44159, 34561, 0, 33998, 33998, 5087, 919, 22317362, 122603, 44972, 62336, 0x416fc6bc5ffff058ULL, 0xf9f1b800e5dd3dbaULL, 0x1c6af907408cd812ULL},
    {24, true, "sort", 287424, 259592, 0, 0, 0, 0, 4512, 10228, 9147744, 54476, 35660, 27146, 0x415e1f4753333ca4ULL, 0x025f3074bd2185f3ULL, 0xfecb1bc590e906aeULL},
    {64, false, "map", 384000, 335872, 48128, 31744, 0, 32, 24032, 0, 39051468, 128032, 64000, 64002, 0x417d4f8649998862ULL, 0x593e2689cc03df87ULL, 0x383ac1b6b87f52e3ULL},
    {64, false, "reduce", 216444, 192030, 24414, 7938, 176, 4640, 12128, 0, 19807272, 61628, 24414, 28292, 0x4169da0d1666654cULL, 0xa87041ded0d32681ULL, 0x58ef4b86d956e619ULL},
    {64, false, "filter", 479875, 440647, 39228, 22742, 102, 240, 19658, 0, 32438068, 101438, 48047, 50388, 0x41770335b333286fULL, 0xdfdb3d52bcaf4f1fULL, 0x28007818f90aaa76ULL},
    {64, false, "bfs", 240000, 115421, 124579, 17351, 93248, 93930, 16508, 0, 114937914, 360445, 127915, 180133, 0x419432b6c2cce78dULL, 0x04fd346a339a5fd5ULL, 0xa0a7486b24d67e7bULL},
    {64, false, "sort", 764416, 685600, 78816, 62375, 54, 22052, 24064, 0, 67161018, 242164, 100829, 113302, 0x418b0dd7d000151aULL, 0xd444159f65cbb605ULL, 0x42ae5387a2687a45ULL},
    {64, true, "map", 384000, 335872, 0, 0, 0, 0, 12000, 8192, 20116688, 64000, 39936, 32000, 0x416de788333328e9ULL, 0x9a4db0b3e196abeaULL, 0xaf691f3948c42b0aULL},
    {64, true, "reduce", 216444, 191998, 254, 0, 127, 127, 12128, 64, 19415390, 49335, 24510, 24242, 0x41664e676ffffcc6ULL, 0xcf5c5280e0672d3bULL, 0x64c5c7ca1e426665ULL},
    {64, true, "filter", 479875, 440647, 12092, 6791, 408, 408, 18122, 1352, 29724564, 81233, 44669, 40221, 0x4172a19fc6665d93ULL, 0x139ccac2f873e42eULL, 0xe0f06bb22451739fULL},
    {64, true, "bfs", 240000, 115426, 94494, 0, 92994, 92994, 13564, 2452, 110010618, 333929, 122249, 167341, 0x4192cb0a7a667f3aULL, 0x7df25505c5bfa889ULL, 0xa5505c322710b3dcULL},
    {64, true, "sort", 764416, 685571, 0, 0, 0, 0, 12032, 27909, 41928408, 153851, 99067, 69759, 0x4181bade15999296ULL, 0x86e88acfb8a679a4ULL, 0xe64e8df20286711dULL},
};
// clang-format on

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

Golden run(unsigned cores, bool deactivate, const Trace& trace) {
  SimConfig cfg;
  cfg.num_cores = cores;
  cfg.noc.num_cores = cores;
  cfg.noc.hop_energy_pj = 12.1;
  cfg.noc.socket_energy_pj = 95.3;
  cfg.noc.line_transfer_energy_pj = 38.7;
  cfg.private_cache = CacheConfig{16 * 1024, 8, 64};
  cfg.selective_deactivation = deactivate;
  substrate::AnalyticSubstrate sub(cores, 7);
  obs::MetricsRegistry metrics;
  sub.set_metrics(&metrics);
  CoherenceSim sim(cfg, sub.rng_stream("coherence"));
  sim.bind_substrate(&sub);
  const SimStats s = sim.run(trace);

  std::uint64_t clocks = 1469598103934665603ULL;
  for (unsigned c = 0; c < cores; ++c) clocks = fnv(clocks, sub.core_now(c));
  std::ostringstream json;
  metrics.write_json(json);
  std::uint64_t mh = 1469598103934665603ULL;
  for (const unsigned char ch : json.str()) mh = fnv(mh, ch);

  return Golden{cores,
                deactivate,
                trace.name.c_str(),
                s.accesses,
                s.private_hits,
                s.directory_lookups,
                s.directory_updates,
                s.invalidations,
                s.three_hop_transfers,
                s.memory_fetches,
                s.handoff_flushes,
                s.total_latency,
                s.noc.messages,
                s.noc.line_transfers,
                s.noc.socket_crossings,
                std::bit_cast<std::uint64_t>(s.noc.energy_pj),
                clocks,
                mh};
}

std::string row(const Golden& g) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    {%u, %s, \"%s\", %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %llu, %llu, %llu, %llu, %llu, 0x%016llxULL, "
                "0x%016llxULL, 0x%016llxULL},",
                g.cores, g.deactivate ? "true" : "false", g.kernel,
                static_cast<unsigned long long>(g.accesses),
                static_cast<unsigned long long>(g.private_hits),
                static_cast<unsigned long long>(g.directory_lookups),
                static_cast<unsigned long long>(g.directory_updates),
                static_cast<unsigned long long>(g.invalidations),
                static_cast<unsigned long long>(g.three_hop_transfers),
                static_cast<unsigned long long>(g.memory_fetches),
                static_cast<unsigned long long>(g.handoff_flushes),
                static_cast<unsigned long long>(g.total_latency),
                static_cast<unsigned long long>(g.noc_messages),
                static_cast<unsigned long long>(g.noc_line_transfers),
                static_cast<unsigned long long>(g.noc_socket_crossings),
                static_cast<unsigned long long>(g.noc_energy_bits),
                static_cast<unsigned long long>(g.clocks_hash),
                static_cast<unsigned long long>(g.metrics_hash));
  return buf;
}

TEST(CoherenceGolden, PbbsSuiteMatchesRecordedOutcomes) {
  std::size_t i = 0;
  std::string actual;
  for (const unsigned cores : {8u, 24u, 64u}) {
    workloads::PbbsParams p;
    p.cores = cores;
    p.elements = 1'500 * cores;
    p.rounds = 2;
    const auto suite = workloads::pbbs_suite(p);
    for (const bool deactivate : {false, true}) {
      for (const Trace& trace : suite) {
        const Golden got = run(cores, deactivate, trace);
        actual += row(got) + "\n";
        if (i >= std::size(kGolden)) {
          ADD_FAILURE() << "no recorded row for " << row(got);
          continue;
        }
        const Golden& want = kGolden[i++];
        EXPECT_EQ(std::string(got.kernel), std::string(want.kernel));
        Golden cmp = got;
        cmp.kernel = want.kernel;
        EXPECT_TRUE(cmp == want) << "want\n"
                                 << row(want) << "\ngot\n"
                                 << row(got);
      }
    }
  }
  EXPECT_EQ(i, std::size(kGolden));
  if (HasFailure()) std::printf("actual table:\n%s", actual.c_str());
}

}  // namespace
}  // namespace iw::coherence
