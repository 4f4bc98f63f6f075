// Barrier spin polls are fast-forwarded (inert_spin_cost certifies
// them), and that must change no result. The golden rows below were
// captured from the stepping-only runtime, before any poll was ever
// skipped: SP-mini 48^3 x 3 on the KNL model, every thread-based mode
// at 8 and 32 threads, two noise seeds. Each row is checked under the
// frontier and the linear-scan scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "omp/runtime.hpp"

namespace iw::omp {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Golden {
  OmpMode mode;
  unsigned threads;
  std::uint64_t seed;
  Cycles makespan;
  std::uint64_t barriers;
  std::uint64_t syscalls;
  double tlb_miss_rate;
  std::uint64_t advances;
  std::uint64_t wait_count;  // omp.barrier.wait histogram
  std::uint64_t wait_p50;
  std::uint64_t wait_p99;
  std::uint64_t trace_hash;  // FNV-1a of TraceRecorder::write_text
};

constexpr Golden kGolden[] = {
    {OmpMode::kLinux, 8, 1, 16017459, 21, 0, 0x1.9b46b99e1bae5p-1, 48409,
     168, 103, 32767, 0x0b309ad6494e2d15ull},
    {OmpMode::kLinux, 8, 2, 16020488, 21, 0, 0x1.9b46b99e1bae5p-1, 46427,
     168, 103, 36863, 0xfcbf0a07c3e19593ull},
    {OmpMode::kLinux, 32, 1, 4461870, 21, 0, 0x1.bc72dfaf71cb8p-1, 399024,
     672, 24575, 36863, 0x4a92d89a52add44eull},
    {OmpMode::kLinux, 32, 2, 4446820, 21, 0, 0x1.bc72dfaf71cb8p-1, 386907,
     672, 24575, 36863, 0x99977eef7f779748ull},
    {OmpMode::kRTK, 8, 1, 14451210, 21, 0, 0x1.37e9ea9044892p-14, 21419,
     168, 103, 103, 0x6535dfadbedc5f4cull},
    {OmpMode::kRTK, 8, 2, 14451210, 21, 0, 0x1.37e9ea9044892p-14, 21419,
     168, 103, 103, 0x6535dfadbedc5f4cull},
    {OmpMode::kRTK, 32, 1, 3616730, 21, 0, 0x1.a4dc80069372p-13, 22667,
     672, 103, 103, 0x6432124ee62cbf50ull},
    {OmpMode::kRTK, 32, 2, 3616730, 21, 0, 0x1.a4dc80069372p-13, 22667,
     672, 103, 103, 0x6432124ee62cbf50ull},
    {OmpMode::kPIK, 8, 1, 14469350, 21, 0, 0x1.37e9ea9044892p-14, 24184,
     168, 103, 4095, 0xb9603cf88e623f90ull},
    {OmpMode::kPIK, 8, 2, 14469350, 21, 0, 0x1.37e9ea9044892p-14, 24184,
     168, 103, 4095, 0xb9603cf88e623f90ull},
    {OmpMode::kPIK, 32, 1, 3634790, 21, 0, 0x1.a4dc80069372p-13, 34912,
     672, 103, 4095, 0x9918cb1d0fb11f04ull},
    {OmpMode::kPIK, 32, 2, 3634790, 21, 0, 0x1.a4dc80069372p-13, 34912,
     672, 103, 4095, 0x9918cb1d0fb11f04ull},
};

/// Spin polls the stepping-only runtime executed in the Linux, 32-thread,
/// seed-1 run (kGolden[2]): 377,008 of its 399,024 advances.
constexpr std::uint64_t kLinux32Seed1Polls = 377'008;

OmpConfig config(const Golden& g, hwsim::SchedulerKind sched) {
  OmpConfig cfg;
  cfg.mode = g.mode;
  cfg.num_threads = g.threads;
  cfg.seed = g.seed;
  cfg.scheduler = sched;
  return cfg;
}

TEST(OmpFastForward, ReproducesSteppedGoldenRuns) {
  const auto app = workloads::sp_mini(48, 3);
  for (const Golden& g : kGolden) {
    for (const auto sched : {hwsim::SchedulerKind::kFrontier,
                             hwsim::SchedulerKind::kLinearScan}) {
      OmpConfig cfg = config(g, sched);
      obs::TraceRecorder tr;
      obs::MetricsRegistry mx;
      cfg.tracer = &tr;
      cfg.metrics = &mx;
      const OmpResult r = run_miniapp(app, cfg);
      const std::string label =
          std::string(mode_name(g.mode)) + " threads=" +
          std::to_string(g.threads) + " seed=" + std::to_string(g.seed) +
          (sched == hwsim::SchedulerKind::kFrontier ? " frontier" : " linear");
      EXPECT_EQ(r.makespan, g.makespan) << label;
      EXPECT_EQ(r.barriers_passed, g.barriers) << label;
      EXPECT_EQ(r.tasks_executed, 0u) << label;
      EXPECT_EQ(r.syscalls, g.syscalls) << label;
      EXPECT_EQ(r.tlb_miss_rate, g.tlb_miss_rate) << label;
      EXPECT_EQ(r.advances, g.advances) << label;
      auto& h = mx.histogram(obs::names::kOmpBarrierWait);
      EXPECT_EQ(h.count(), g.wait_count) << label;
      EXPECT_EQ(h.value_at_percentile(50.0), g.wait_p50) << label;
      EXPECT_EQ(h.value_at_percentile(99.0), g.wait_p99) << label;
      std::ostringstream os;
      tr.write_text(os);
      EXPECT_EQ(fnv1a(os.str()), g.trace_hash) << label;
    }
  }
}

TEST(OmpFastForward, SkipsMostLinuxSpinPolls) {
  const Golden& g = kGolden[2];
  const OmpResult r = run_miniapp(workloads::sp_mini(48, 3),
                                  config(g, hwsim::SchedulerKind::kFrontier));
  EXPECT_EQ(r.advances, g.advances);
  EXPECT_GE(r.fast_forwarded_steps, kLinux32Seed1Polls * 9 / 10);
  EXPECT_LE(r.fast_forwarded_steps, kLinux32Seed1Polls);
  EXPECT_GT(r.fast_forward_windows, 0u);
}

TEST(OmpFastForwardDeathTest, BarrierTimeoutFiresAtTheSteppedPoll) {
  // A 30k-cycle hang detector trips during a noise-stretched Linux wait.
  // The spinner declines every window its firing poll would fall in, so
  // it panics on the same core, after the same wait, at the same advance
  // as the stepping-only runtime did.
  OmpConfig cfg = config(kGolden[2], hwsim::SchedulerKind::kFrontier);
  cfg.barrier_timeout = 30'000;
  EXPECT_DEATH(run_miniapp(workloads::sp_mini(48, 3), cfg),
               "PANIC: omp barrier timeout on core 1: waited 30020 cycles "
               "\\(limit 30000\\), 31/32 arrived.*"
               "now=1300840 advances=94952 ");
}

}  // namespace
}  // namespace iw::omp
