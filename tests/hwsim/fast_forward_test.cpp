// Golden-digest equivalence for selectable-fidelity fast-forward.
//
// Fast-forward (MachineConfig::fast_forward) may only change how much
// wall clock the DES burns, never what it computes: these tests run a
// fig3-style heartbeat workload with skip-ahead on and off — across all
// four schedulers, work-stealing on and off, and fault plans including
// a stall window armed *exactly* at the first proposed horizon (the
// off-by-one that silently corrupts determinism if the proof treats the
// horizon as inclusive) — and assert byte-identical traces plus equal
// advance/IPI/clock accounting. Paranoid mode's full-fidelity audit and
// the skip accounting surface are covered here too.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hwsim/fault_plan.hpp"
#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "substrate/substrate.hpp"

namespace iw {
namespace {

/// FNV-1a over the full text dump (same digest as determinism_test).
std::uint64_t trace_hash(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_text(os);
  const std::string s = os.str();
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Finite spin work that certifies its steps for fast-forward: each
/// step consumes `step` cycles and decrements a per-core remaining
/// count — nothing else — so the trajectory to any horizon is
/// closed-form. Mirrors what a kernel idle/poll loop looks like to the
/// skip-ahead proof.
class FfSpinDriver final : public hwsim::CoreDriver {
 public:
  FfSpinDriver(unsigned cores, Cycles step, std::uint64_t steps)
      : step_(step), remaining_(cores, steps) {}

  bool runnable(hwsim::Core& core) override {
    return remaining_[core.id()] > 0;
  }
  void step(hwsim::Core& core) override {
    core.consume(step_);
    --remaining_[core.id()];
  }
  bool plan_fast_forward(hwsim::Core& core, Cycles horizon,
                         hwsim::FastForwardPlan* plan) override {
    const Cycles gap = horizon - core.clock();
    const std::uint64_t steps =
        std::min<std::uint64_t>(remaining_[core.id()],
                                (gap + step_ - 1) / step_);
    if (steps == 0) return false;  // not runnable; should not be asked
    plan->end_clock = core.clock() + steps * step_;
    plan->steps = steps;
    return true;
  }
  void apply_fast_forward(hwsim::Core& core,
                          const hwsim::FastForwardPlan& plan) override {
    remaining_[core.id()] -= plan.steps;
  }

 private:
  Cycles step_;
  std::vector<std::uint64_t> remaining_;
};

/// Plain spin driver WITHOUT fast-forward certification: the machine
/// must never skip over it no matter what the quiet proof says.
class UncertifiedSpinDriver final : public hwsim::CoreDriver {
 public:
  explicit UncertifiedSpinDriver(Cycles step) : step_(step) {}
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override { core.consume(step_); }

 private:
  Cycles step_;
};

/// Cache-line-private IRQ tally (handlers on different shards).
struct alignas(64) IrqCell {
  std::uint64_t v{0};
};

/// Endless non-inert work that declines certification: every step
/// charges an uneven cycle count, records a trace instant and a metric,
/// and every third step IPIs a spinner. Running beside certifying
/// spinners, it is the straggler every skip window must stop at.
class DecliningWorkDriver final : public hwsim::CoreDriver {
 public:
  DecliningWorkDriver(unsigned cores, Cycles base, unsigned spinners)
      : base_(base), spinners_(spinners), steps_(cores) {}

  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override {
    const std::uint64_t n = ++steps_[core.id()].v;
    core.consume(base_ + (n * 37 + core.id() * 11) % 1'900);
    auto& m = core.machine();
    if (auto* tr = m.tracer()) {
      tr->instant(core.id(), "work.step", core.clock());
    }
    if (auto* mx = m.metrics()) mx->record("bench.ff_work_step", core.clock());
    if (n % 3 == 0) {
      m.send_ipi(core, static_cast<CoreId>((n + core.id()) % spinners_), 0x41);
    }
  }

 private:
  Cycles base_;
  unsigned spinners_;
  std::vector<IrqCell> steps_;
};

/// Per-core state and the machine's accounting after a mixed run.
struct MixedResult {
  std::uint64_t hash{0};
  std::string metrics;
  std::vector<Cycles> clocks;
  std::vector<std::uint64_t> steps;
  std::uint64_t advances{0};
  std::uint64_t ipis{0};
  std::uint64_t stalls{0};
  std::uint64_t ff_steps{0};
  std::uint64_t ff_windows{0};
  std::uint64_t ff_paranoid{0};
  bool ok{false};
};

/// Cores [0, spinners) spin with certification (and take the workers'
/// IPIs); the rest run DecliningWorkDriver with different step sizes.
MixedResult run_mixed(hwsim::SchedulerKind sched, hwsim::FastForwardPolicy ff,
                      const char* faults = nullptr) {
  constexpr unsigned kCores = 8;
  constexpr unsigned kSpinners = 6;
  hwsim::MachineConfig mc;
  mc.num_cores = kCores;
  mc.scheduler = sched;
  mc.shard_policy = hwsim::ShardPolicy::kPerCore;
  mc.threads = 2;
  mc.fast_forward = ff;
  if (faults != nullptr) {
    std::string err;
    EXPECT_TRUE(hwsim::FaultPlan::parse(faults, &mc.faults, &err)) << err;
  }
  hwsim::Machine m(mc);
  obs::TraceRecorder tr;
  obs::MetricsRegistry mx;
  m.set_tracer(&tr);
  m.set_metrics(&mx);
  FfSpinDriver spin(kCores, 60, 1u << 30);
  DecliningWorkDriver work(kCores, 2'000, kSpinners);
  for (unsigned i = 0; i < kCores; ++i) {
    auto& core = m.core(i);
    if (i < kSpinners) {
      core.set_driver(&spin);
      core.set_irq_handler(0x41, [](hwsim::Core& c, int) {
        c.consume(150);
        if (auto* x = c.machine().metrics()) x->add("bench.ff_work_irq");
      });
    } else {
      core.set_driver(&work);
    }
  }
  MixedResult r;
  r.ok = m.run_until(300'000);
  r.hash = trace_hash(tr);
  std::ostringstream os;
  mx.write_json(os);
  r.metrics = os.str();
  for (unsigned i = 0; i < kCores; ++i) {
    r.clocks.push_back(m.core(i).clock());
    r.steps.push_back(m.core(i).steps_executed());
  }
  r.advances = m.total_advances();
  r.ipis = m.total_ipis();
  r.stalls = m.fault_injector().counters().stalls;
  r.ff_steps = m.fast_forwarded_steps();
  r.ff_windows = m.fast_forward_windows();
  r.ff_paranoid = m.fast_forward_paranoid_checks();
  return r;
}

void expect_mixed_equal(const MixedResult& full, const MixedResult& ff,
                        const std::string& label) {
  EXPECT_EQ(full.hash, ff.hash) << label;
  EXPECT_EQ(full.metrics, ff.metrics) << label;
  EXPECT_EQ(full.clocks, ff.clocks) << label;
  EXPECT_EQ(full.steps, ff.steps) << label;
  EXPECT_EQ(full.advances, ff.advances) << label;
  EXPECT_EQ(full.ipis, ff.ipis) << label;
  EXPECT_EQ(full.stalls, ff.stalls) << label;
  EXPECT_EQ(full.ok, ff.ok) << label;
}

constexpr std::pair<const char*, hwsim::SchedulerKind> kMixedScheds[] = {
    {"frontier", hwsim::SchedulerKind::kFrontier},
    {"linear", hwsim::SchedulerKind::kLinearScan},
    {"parallel", hwsim::SchedulerKind::kParallelEpoch},
};

struct RunResult {
  std::uint64_t hash{0};
  std::uint64_t advances{0};
  std::uint64_t irqs{0};
  std::uint64_t ipis{0};
  Cycles end_time{0};
  bool ok{false};
  std::uint64_t ff_steps{0};
  Cycles ff_cycles{0};
  std::uint64_t ff_windows{0};
  std::uint64_t ff_paranoid{0};
  std::uint64_t stalls{0};
  std::uint64_t mq_ticks{0};
};

struct RunOpts {
  unsigned cores{8};
  hwsim::SchedulerKind sched{hwsim::SchedulerKind::kFrontier};
  hwsim::ShardPolicy shards{hwsim::ShardPolicy::kPerCore};
  unsigned threads{2};
  bool steal{true};
  const char* faults{nullptr};
  hwsim::FastForwardPolicy ff;
  Cycles step{60};
  std::uint64_t driver_steps{1u << 30};  // effectively endless
  Cycles period{20'000};
  Cycles horizon{400'000};
  std::uint64_t max_advances{0};
};

/// Fig3-style heartbeat: periodic LAPIC on core 0 whose handler
/// broadcasts to every worker, a machine-queue device tick, and spin
/// work on every core. Shard-safe (all cross-core traffic is the IPI
/// fabric; tallies are per-core cells), so it runs under every
/// scheduler including kParallelEpoch/kPerCore.
RunResult run_heartbeat(const RunOpts& o) {
  hwsim::MachineConfig mc;
  mc.num_cores = o.cores;
  mc.scheduler = o.sched;
  mc.shard_policy = o.shards;
  mc.threads = o.threads;
  mc.work_stealing = o.steal;
  mc.fast_forward = o.ff;
  mc.max_advances = o.max_advances;
  if (o.faults != nullptr) {
    std::string err;
    EXPECT_TRUE(hwsim::FaultPlan::parse(o.faults, &mc.faults, &err)) << err;
  }
  hwsim::Machine m(mc);
  obs::TraceRecorder tr;
  m.set_tracer(&tr);

  FfSpinDriver driver(o.cores, o.step, o.driver_steps);
  auto cells = std::vector<IrqCell>(o.cores);
  for (unsigned i = 0; i < o.cores; ++i) {
    auto& core = m.core(i);
    core.set_driver(&driver);
    core.set_irq_handler(0x40, [&cells](hwsim::Core& c, int) {
      c.consume(120);
      ++cells[c.id()].v;
      if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
    });
  }
  hwsim::LapicTimer timer(m.core(0), 0x40);
  timer.periodic(o.period);

  // A machine-queue device tick: the quiet proof must stop at the
  // machine queue's head, and the coordinator-owned turn must land at
  // the same virtual times under every mode.
  RunResult r;
  std::function<void()> tick = [&] {
    ++r.mq_ticks;
    m.schedule_at(m.now() + 50'000, tick);
  };
  m.schedule_at(50'000, tick);

  r.ok = m.run_until(o.horizon);
  r.hash = trace_hash(tr);
  r.advances = m.total_advances();
  r.ipis = m.total_ipis();
  for (unsigned i = 0; i < o.cores; ++i) {
    r.irqs += cells[i].v;
  }
  r.end_time = m.now();
  r.ff_steps = m.fast_forwarded_steps();
  r.ff_cycles = m.fast_forwarded_cycles();
  r.ff_windows = m.fast_forward_windows();
  r.ff_paranoid = m.fast_forward_paranoid_checks();
  r.stalls = m.fault_injector().counters().stalls;
  return r;
}

void expect_equal(const RunResult& full, const RunResult& ff,
                  const std::string& label) {
  EXPECT_EQ(full.hash, ff.hash) << label;
  EXPECT_EQ(full.advances, ff.advances) << label;
  EXPECT_EQ(full.irqs, ff.irqs) << label;
  EXPECT_EQ(full.ipis, ff.ipis) << label;
  EXPECT_EQ(full.end_time, ff.end_time) << label;
  EXPECT_EQ(full.stalls, ff.stalls) << label;
  EXPECT_EQ(full.mq_ticks, ff.mq_ticks) << label;
  EXPECT_EQ(full.ok, ff.ok) << label;
}

struct SchedCell {
  const char* name;
  hwsim::SchedulerKind sched;
  bool steal;
};

constexpr SchedCell kSchedMatrix[] = {
    {"frontier", hwsim::SchedulerKind::kFrontier, true},
    {"linear", hwsim::SchedulerKind::kLinearScan, true},
    {"auto", hwsim::SchedulerKind::kAuto, true},
    {"parallel+steal", hwsim::SchedulerKind::kParallelEpoch, true},
    {"parallel-steal", hwsim::SchedulerKind::kParallelEpoch, false},
};

TEST(FastForward, EquivalenceMatrixAcrossSchedulersAndFaultPlans) {
  // Plan 3 arms stalls in a mid-run window; plan 4's window begins at a
  // beat boundary (a dedicated exact-horizon case follows below).
  const char* kPlans[] = {
      nullptr,
      "drop=0.05,delay=0.2:600,dup=0.05,jitter=0.2:300,spurious=0.05",
      "stall=0.3:200,window=100000-200000",
      "stall=0.5:150,window=20000-26000",
  };
  for (const char* plan : kPlans) {
    const std::string plan_label = plan == nullptr ? "no-faults" : plan;
    RunResult baseline;
    bool have_baseline = false;
    for (const SchedCell& cell : kSchedMatrix) {
      RunOpts o;
      o.sched = cell.sched;
      o.steal = cell.steal;
      o.faults = plan;
      const RunResult full = run_heartbeat(o);
      o.ff.enabled = true;
      const RunResult ff = run_heartbeat(o);
      const std::string label = plan_label + " / " + cell.name;
      expect_equal(full, ff, label);
      // Coverage: the run must actually have skipped, or the cell is
      // vacuous (every plan leaves quiet inter-beat windows somewhere).
      EXPECT_GT(ff.ff_steps, 0u) << label;
      EXPECT_GT(ff.ff_cycles, 0u) << label;
      EXPECT_EQ(full.ff_steps, 0u) << label;
      // Cross-scheduler: one schedule for the whole matrix.
      if (!have_baseline) {
        baseline = full;
        have_baseline = true;
      } else {
        expect_equal(baseline, full, plan_label + " / " + cell.name +
                                         " vs baseline");
      }
    }
  }
}

TEST(FastForward, StallWindowArmedExactlyAtProposedHorizon) {
  // Discover the first horizon the proof would propose for this
  // workload, then arm a stall window starting exactly there. Steps
  // replayed by a skip all start at clocks strictly below the horizon,
  // so the skip must still happen — and the very next executed step sits
  // inside the window and must draw its stall in both modes.
  Cycles first_horizon = 0;
  {
    RunOpts probe;
    hwsim::MachineConfig mc;
    mc.num_cores = probe.cores;
    hwsim::Machine m(mc);
    FfSpinDriver driver(probe.cores, probe.step, probe.driver_steps);
    for (unsigned i = 0; i < probe.cores; ++i) {
      m.core(i).set_driver(&driver);
    }
    hwsim::LapicTimer timer(m.core(0), 0x40);
    timer.periodic(probe.period);
    first_horizon = m.prove_quiet_until(kNever);
    ASSERT_NE(first_horizon, kNever);
    ASSERT_GT(first_horizon, 0u);
  }
  const std::string spec = "stall=0.6:150,window=" +
                           std::to_string(first_horizon) + "-" +
                           std::to_string(first_horizon + 6'000);
  for (const SchedCell& cell : kSchedMatrix) {
    RunOpts o;
    o.sched = cell.sched;
    o.steal = cell.steal;
    o.faults = spec.c_str();
    const RunResult full = run_heartbeat(o);
    o.ff.enabled = true;
    const RunResult ff = run_heartbeat(o);
    const std::string label = std::string("exact-horizon / ") + cell.name;
    expect_equal(full, ff, label);
    EXPECT_GT(ff.ff_steps, 0u) << label;
    EXPECT_GT(full.stalls, 0u) << label;  // the armed window really fires
  }
}

TEST(FastForward, ReportsSkippedVsSteppedCycles) {
  RunOpts o;
  const RunResult full = run_heartbeat(o);
  o.ff.enabled = true;
  const RunResult ff = run_heartbeat(o);
  // total_advances is mode-invariant; the split is the new information.
  EXPECT_EQ(full.advances, ff.advances);
  EXPECT_EQ(full.ff_steps, 0u);
  EXPECT_EQ(full.ff_cycles, 0u);
  EXPECT_EQ(full.ff_windows, 0u);
  EXPECT_GT(ff.ff_steps, 0u);
  EXPECT_GT(ff.ff_cycles, 0u);
  EXPECT_GT(ff.ff_windows, 0u);
  EXPECT_LT(ff.ff_steps, ff.advances);  // boundary events always step
  // Most of this workload is quiet spin: the analytic share dominates.
  EXPECT_GT(ff.ff_steps, ff.advances / 2);
}

TEST(FastForward, ParanoidAuditMatchesFullFidelity) {
  RunOpts o;
  o.faults = "stall=0.3:200,window=100000-200000";
  const RunResult full = run_heartbeat(o);
  // Audit every window: full fidelity throughout, every plan checked.
  o.ff.enabled = true;
  o.ff.paranoid_interval = 1;
  const RunResult audited = run_heartbeat(o);
  expect_equal(full, audited, "paranoid=1");
  EXPECT_GT(audited.ff_paranoid, 0u);
  EXPECT_EQ(audited.ff_steps, 0u);  // every window was re-run, not skipped
  // Sampled audit: skips and audits interleave, results still identical.
  o.ff.paranoid_interval = 3;
  const RunResult sampled = run_heartbeat(o);
  expect_equal(full, sampled, "paranoid=3");
  EXPECT_GT(sampled.ff_paranoid, 0u);
  EXPECT_GT(sampled.ff_steps, 0u);
}

TEST(FastForward, TraceSkipSpansAnnotateWindowsWithoutPerturbing) {
  RunOpts o;
  const RunResult full = run_heartbeat(o);
  o.ff.enabled = true;
  o.ff.trace_skips = true;
  // Re-run with annotation on, comparing by hand: the ff.skip spans are
  // the ONLY difference from the full-fidelity trace.
  hwsim::MachineConfig mc;
  mc.num_cores = o.cores;
  mc.fast_forward = o.ff;
  hwsim::Machine m(mc);
  obs::TraceRecorder tr;
  m.set_tracer(&tr);
  FfSpinDriver driver(o.cores, o.step, o.driver_steps);
  auto cells = std::vector<IrqCell>(o.cores);
  for (unsigned i = 0; i < o.cores; ++i) {
    auto& core = m.core(i);
    core.set_driver(&driver);
    core.set_irq_handler(0x40, [&cells](hwsim::Core& c, int) {
      c.consume(120);
      ++cells[c.id()].v;
      if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
    });
  }
  hwsim::LapicTimer timer(m.core(0), 0x40);
  timer.periodic(o.period);
  std::uint64_t mq_ticks = 0;
  std::function<void()> tick = [&] {
    ++mq_ticks;
    m.schedule_at(m.now() + 50'000, tick);
  };
  m.schedule_at(50'000, tick);
  EXPECT_TRUE(m.run_until(o.horizon));

  const auto skips = tr.find(substrate::kFastForwardSpan);
  ASSERT_FALSE(skips.empty());
  for (const auto& ev : skips) {
    EXPECT_EQ(ev.phase, obs::TracePhase::kSpan);
    EXPECT_LT(ev.begin, ev.end);
  }
  // Strip the annotations; the rest of the trace must hash identically
  // to the full-fidelity run.
  obs::TraceRecorder stripped;
  stripped.ensure_cores(o.cores);
  for (unsigned i = 0; i < o.cores; ++i) {
    for (const auto& ev : tr.events(i)) {
      if (std::string(ev.name) == substrate::kFastForwardSpan) continue;
      if (ev.phase == obs::TracePhase::kSpan) {
        stripped.span(ev.core, ev.name, ev.begin, ev.end, ev.vector);
      } else {
        stripped.instant(ev.core, ev.name, ev.begin, ev.vector, ev.count);
      }
    }
  }
  EXPECT_EQ(trace_hash(stripped), full.hash);
  EXPECT_EQ(mq_ticks, full.mq_ticks);
}

TEST(FastForward, UncertifiedDriverIsNeverSkipped) {
  for (const bool ff : {false, true}) {
    hwsim::MachineConfig mc;
    mc.num_cores = 4;
    mc.fast_forward.enabled = ff;
    hwsim::Machine m(mc);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    UncertifiedSpinDriver driver(70);
    for (unsigned i = 0; i < 4; ++i) m.core(i).set_driver(&driver);
    hwsim::LapicTimer timer(m.core(0), 0x40);
    m.core(0).set_irq_handler(0x40, [](hwsim::Core& c, int) {
      c.consume(90);
    });
    timer.periodic(10'000);
    EXPECT_TRUE(m.run_until(120'000));
    // The default plan_fast_forward declines, so nothing may be skipped
    // even though every window is provably quiet machine-side.
    EXPECT_EQ(m.fast_forwarded_steps(), 0u);
    EXPECT_EQ(m.fast_forward_windows(), 0u);
  }
}

TEST(FastForward, DecliningCoreBoundsWindowInsteadOfAborting) {
  // Two cores never certify and post IPIs, traces and metrics on every
  // step, so no window can cover the whole machine: every skip must
  // stop at the earliest decliner's clock and still match stepping.
  hwsim::FastForwardPolicy on;
  on.enabled = true;
  MixedResult baseline;
  for (const auto& [name, sched] : kMixedScheds) {
    const MixedResult full = run_mixed(sched, {});
    const MixedResult ff = run_mixed(sched, on);
    expect_mixed_equal(full, ff, name);
    EXPECT_TRUE(ff.ok) << name;
    EXPECT_GT(ff.ff_steps, 0u) << name;
    EXPECT_EQ(full.ff_steps, 0u) << name;
    if (sched == hwsim::SchedulerKind::kFrontier) {
      baseline = full;
    } else {
      expect_mixed_equal(baseline, full, std::string(name) + " vs frontier");
    }
  }
}

TEST(FastForward, DecliningCoreWindowsPassParanoidAuditWithStalls) {
  // Every bounded window is re-stepped and checked against its plans,
  // with a stall window armed mid-run: stalls must strike at the same
  // steps as in a run that never tries to skip.
  const char* kPlan = "stall=0.3:200,window=100000-160000";
  hwsim::FastForwardPolicy audit;
  audit.enabled = true;
  audit.paranoid_interval = 1;
  for (const auto& [name, sched] : kMixedScheds) {
    const MixedResult full = run_mixed(sched, {}, kPlan);
    const MixedResult audited = run_mixed(sched, audit, kPlan);
    expect_mixed_equal(full, audited, name);
    EXPECT_GT(full.stalls, 0u) << name;
    EXPECT_GT(audited.ff_paranoid, 0u) << name;
    EXPECT_EQ(audited.ff_paranoid, audited.ff_windows) << name;
    EXPECT_EQ(audited.ff_steps, 0u) << name;
  }
}

TEST(FastForward, AdvanceWatchdogFiresAtIdenticalAdvance) {
  RunOpts o;
  o.max_advances = 20'000;  // trips mid-run, inside quiet spin regions
  const RunResult full = run_heartbeat(o);
  o.ff.enabled = true;
  const RunResult ff = run_heartbeat(o);
  EXPECT_FALSE(full.ok);
  EXPECT_FALSE(ff.ok);
  EXPECT_EQ(full.advances, ff.advances);
  EXPECT_EQ(full.hash, ff.hash);
  EXPECT_EQ(full.end_time, ff.end_time);
}

TEST(FastForward, DriverGoingIdleMidWindowIsExact) {
  // Cores run out of work at staggered points inside quiet windows: the
  // plans stop short of the horizon and the cores go idle exactly where
  // stepped execution would put them.
  RunOpts o;
  o.driver_steps = 1'500;  // 90k cycles of work vs a 400k-cycle horizon
  const RunResult full = run_heartbeat(o);
  o.ff.enabled = true;
  const RunResult ff = run_heartbeat(o);
  expect_equal(full, ff, "idle-mid-window");
  EXPECT_GT(ff.ff_steps, 0u);
}

TEST(FastForward, SingleGroupParallelTakesAnalyticStride) {
  RunOpts o;
  o.sched = hwsim::SchedulerKind::kParallelEpoch;
  o.shards = hwsim::ShardPolicy::kSingleGroup;
  o.threads = 1;
  const RunResult full = run_heartbeat(o);
  o.ff.enabled = true;
  const RunResult ff = run_heartbeat(o);
  expect_equal(full, ff, "single-group");
  EXPECT_GT(ff.ff_steps, 0u);
}

TEST(FastForward, ProveQuietUntilHonorsEachBound) {
  // Machine-queue head bounds the horizon.
  {
    hwsim::MachineConfig mc;
    mc.num_cores = 2;
    hwsim::Machine m(mc);
    m.schedule_at(5'000, [] {});
    EXPECT_EQ(m.prove_quiet_until(kNever), 5'000u);
    EXPECT_EQ(m.prove_quiet_until(3'000), 3'000u);  // want clamps
  }
  // An idle core's deliverable callback bounds it.
  {
    hwsim::MachineConfig mc;
    mc.num_cores = 2;
    hwsim::Machine m(mc);
    m.core(1).post_callback(7'000, [] {});
    EXPECT_EQ(m.prove_quiet_until(kNever), 7'000u);
  }
  // A masked IRQ is not deliverable and must NOT bound the proof.
  {
    hwsim::MachineConfig mc;
    mc.num_cores = 2;
    hwsim::Machine m(mc);
    m.core(1).set_interrupts_enabled(false);
    m.core(1).post_irq(4'000, 0x21);
    EXPECT_EQ(m.prove_quiet_until(kNever), kNever);
    m.core(1).set_interrupts_enabled(true);
    EXPECT_EQ(m.prove_quiet_until(kNever), 4'000u);
  }
  // An armed stall window bounds it — but only once a core is runnable
  // (per-step draws need steps to strike).
  {
    hwsim::MachineConfig mc;
    mc.num_cores = 2;
    std::string err;
    ASSERT_TRUE(hwsim::FaultPlan::parse("stall=0.5:100,window=9000-12000",
                                        &mc.faults, &err));
    hwsim::Machine m(mc);
    m.core(0).post_callback(30'000, [] {});
    EXPECT_EQ(m.prove_quiet_until(kNever), 30'000u);  // nothing runnable
    FfSpinDriver driver(2, 50, 1u << 20);
    m.core(0).set_driver(&driver);
    m.core(1).set_driver(&driver);
    EXPECT_EQ(m.prove_quiet_until(kNever), 9'000u);  // window start wins
  }
}

TEST(FastForward, NextArmedStallLowerBound) {
  hwsim::FaultPlan p;
  EXPECT_EQ(p.next_armed_stall_after(0), kNever);  // disabled plan
  std::string err;
  ASSERT_TRUE(hwsim::FaultPlan::parse("drop=0.5", &p, &err));
  EXPECT_EQ(p.next_armed_stall_after(0), kNever);  // no stall term
  ASSERT_TRUE(hwsim::FaultPlan::parse("stall=0.2:300", &p, &err));
  EXPECT_EQ(p.next_armed_stall_after(123), 123u);  // windowless: always
  ASSERT_TRUE(hwsim::FaultPlan::parse(
      "stall=0.2:300,window=1000-2000,window=5000-6000", &p, &err));
  EXPECT_EQ(p.next_armed_stall_after(0), 1'000u);    // before both
  EXPECT_EQ(p.next_armed_stall_after(1'500), 1'500u);  // inside first
  EXPECT_EQ(p.next_armed_stall_after(2'000), 5'000u);  // between (end excl.)
  EXPECT_EQ(p.next_armed_stall_after(6'000), kNever);  // past both
}

TEST(FastForward, AnalyticSubstrateSkipChargesAndAnnotates) {
  substrate::AnalyticSubstrate sub(2);
  obs::TraceRecorder tr;
  sub.set_tracer(&tr);
  sub.charge(0, 100);
  sub.fast_forward_core(0, 5'000);
  EXPECT_EQ(sub.core_now(0), 5'000u);
  const auto skips = tr.find(substrate::kFastForwardSpan);
  ASSERT_EQ(skips.size(), 1u);
  EXPECT_EQ(skips[0].begin, 100u);
  EXPECT_EQ(skips[0].end, 5'000u);
  sub.fast_forward_core(0, 4'000);  // already past: no-op, no span
  EXPECT_EQ(sub.core_now(0), 5'000u);
  sub.fast_forward_core(1, 2'000, /*annotate=*/false);
  EXPECT_EQ(sub.core_now(1), 2'000u);
  EXPECT_EQ(tr.find(substrate::kFastForwardSpan).size(), 1u);
}

}  // namespace
}  // namespace iw
