// Per-core epoch engine: the reduced epoch minimum and the chunked
// shard claims.
//
// The coordinator takes each epoch's minimum next-action time from the
// per-thread drain tallies plus the merged delivery targets instead of
// rescanning every core. With paranoid_frontier set, every epoch that
// uses the reduction is cross-checked against the full scan (the run
// aborts on divergence), so each ParallelEpoch case below runs the
// check over threads {1,2,4} x steal {on,off} through one of the paths
// where a core's next action can move: broadcast wake-ups of idle
// cores, an IPI staged to a core that has interrupts disabled,
// machine-queue events, fast-forward, the watchdogs, and a stop
// predicate. The WorkStealing chunk-edge cases pin the claim side:
// core counts that chunks do not divide evenly must still reduce to the
// frontier schedule bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/sink.hpp"
#include "hwsim/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::hwsim {
namespace {

constexpr int kVector = 0x40;
constexpr Cycles kHandlerCost = 120;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Finite per-core spin work whose steps only consume cycles and count
/// down, so it can certify them for fast-forward.
class WorkDriver final : public CoreDriver {
 public:
  WorkDriver(std::vector<std::uint64_t> steps, Cycles step)
      : remaining_(std::move(steps)), step_(step) {}
  bool runnable(Core& core) override { return remaining_[core.id()] > 0; }
  void step(Core& core) override {
    core.consume(step_);
    --remaining_[core.id()];
  }
  bool plan_fast_forward(Core& core, Cycles horizon,
                         FastForwardPlan* plan) override {
    const std::uint64_t steps = std::min<std::uint64_t>(
        remaining_[core.id()], (horizon - core.clock() + step_ - 1) / step_);
    if (steps == 0) return false;
    plan->end_clock = core.clock() + steps * step_;
    plan->steps = steps;
    return true;
  }
  void apply_fast_forward(Core& core, const FastForwardPlan& plan) override {
    remaining_[core.id()] -= plan.steps;
  }
  /// Machine or setup context only (shards parked).
  void add_work(Core& core, std::uint64_t n) {
    remaining_[core.id()] += n;
    core.mark_schedule_dirty();
  }
  [[nodiscard]] std::uint64_t remaining(CoreId id) const {
    return remaining_[id];
  }

 private:
  std::vector<std::uint64_t> remaining_;
  Cycles step_;
};

struct alignas(64) IrqCell {
  std::uint64_t v{0};
};

struct Scenario {
  unsigned cores{8};
  /// Spin steps per busy core; cores whose id is not a multiple of
  /// `busy_every` start idle and only wake for IRQs.
  std::uint64_t busy_steps{400};
  unsigned busy_every{1};
  Cycles step{180};
  /// LAPIC period on core 0, whose handler broadcasts to every core.
  Cycles period{20'000};
  /// run_until(horizon), then stop the timer and run() to quiescence.
  Cycles horizon{300'000};
  /// Core that starts with interrupts disabled (0 = none: core 0 runs
  /// the LAPIC), and the machine-queue event that re-enables them
  /// (kNever = never).
  CoreId masked_core{0};
  Cycles unmask_at{kNever};
  /// Machine-queue ticks that hand one core more work (0 = none).
  Cycles mq_period{0};
  FastForwardPolicy ff;
  std::uint64_t max_advances{0};
  Cycles max_time{0};
};

struct Outcome {
  std::uint64_t trace{0};
  std::uint64_t metrics{0};
  std::uint64_t digest{0};
  std::uint64_t advances{0};
  std::uint64_t ipis{0};
  std::uint64_t irqs{0};
  Cycles end_time{0};
  bool ok{false};
};

void expect_same(const Outcome& a, const Outcome& b, const std::string& what) {
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.metrics, b.metrics) << what;
  EXPECT_EQ(a.digest, b.digest) << what;
  EXPECT_EQ(a.advances, b.advances) << what;
  EXPECT_EQ(a.ipis, b.ipis) << what;
  EXPECT_EQ(a.irqs, b.irqs) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  EXPECT_EQ(a.ok, b.ok) << what;
}

/// Machine-queue device: payload w[0] selects the action.
class Device final : public EventSink {
 public:
  enum : std::uint64_t { kTick = 0, kUnmask = 1 };
  Device(WorkDriver& driver, const Scenario& sc) : driver_(driver), sc_(sc) {}
  void on_machine_event(Machine& m, Cycles at,
                        const EventPayload& p) override {
    if (p.w[0] == kUnmask) {
      m.core(sc_.masked_core).set_interrupts_enabled(true);
      return;
    }
    // Hand the next core in turn a little more work; it may be idle
    // (a wake-up from machine context) or busy (more of the same).
    driver_.add_work(m.core(static_cast<CoreId>(ticks_++ % sc_.cores)), 30);
    if (at + sc_.mq_period < sc_.horizon) {
      m.schedule_event(at + sc_.mq_period, id, p);
    }
  }
  SinkId id{0};

 private:
  WorkDriver& driver_;
  const Scenario& sc_;
  std::uint64_t ticks_{0};
};

Outcome run(const Scenario& sc, SchedulerKind sched, unsigned threads,
            bool steal) {
  const bool parallel = sched == SchedulerKind::kParallelEpoch;
  MachineConfig mc;
  mc.num_cores = sc.cores;
  mc.scheduler = sched;
  mc.shard_policy = parallel ? ShardPolicy::kPerCore : ShardPolicy::kSingleGroup;
  mc.threads = threads;
  mc.work_stealing = steal;
  // The frontier reference skips its own O(cores)-per-advance check.
  mc.paranoid_frontier = parallel;
  mc.fast_forward = sc.ff;
  mc.max_advances = sc.max_advances;
  mc.max_time = sc.max_time;
  Machine m(mc);

  obs::TraceRecorder tr;
  obs::MetricsRegistry mx;
  m.set_tracer(&tr);
  m.set_metrics(&mx);

  std::vector<std::uint64_t> steps(sc.cores, 0);
  for (unsigned i = 0; i < sc.cores; i += sc.busy_every) {
    steps[i] = sc.busy_steps;
  }
  WorkDriver driver(steps, sc.step);
  std::vector<IrqCell> irqs(sc.cores);
  for (unsigned i = 0; i < sc.cores; ++i) {
    m.core(i).set_driver(&driver);
    m.core(i).set_irq_handler(kVector, [&irqs, &sc](Core& c, int) {
      c.consume(kHandlerCost);
      ++irqs[c.id()].v;
      if (auto* reg = c.machine().metrics()) reg->add("bench.epoch_irq");
      if (c.id() != 0) return;
      // A masked core also gets a direct IPI one send ahead of the
      // broadcast, so its staged delivery is the earliest in the epoch.
      if (sc.masked_core != 0) c.machine().send_ipi(c, sc.masked_core, kVector);
      c.machine().broadcast_ipi(c, kVector);
    });
  }
  if (sc.masked_core != 0) m.core(sc.masked_core).set_interrupts_enabled(false);
  Device dev(driver, sc);
  dev.id = m.register_event_sink(&dev);
  if (sc.mq_period != 0) {
    EventPayload p;
    p.w[0] = Device::kTick;
    m.schedule_event(sc.mq_period, dev.id, p);
  }
  if (sc.unmask_at != kNever) {
    EventPayload p;
    p.w[0] = Device::kUnmask;
    m.schedule_event(sc.unmask_at, dev.id, p);
  }
  LapicTimer timer(m.core(0), kVector);
  timer.periodic(sc.period);

  Outcome o;
  o.ok = m.run_until(sc.horizon);
  timer.stop();
  if (o.ok) o.ok = m.run();

  std::ostringstream ts;
  tr.write_text(ts);
  o.trace = fnv1a(ts.str());
  std::ostringstream ms;
  mx.write_json(ms);
  o.metrics = fnv1a(ms.str());
  o.digest = m.snapshot().digest();
  o.advances = m.total_advances();
  o.ipis = m.total_ipis();
  for (const auto& c : irqs) o.irqs += c.v;
  o.end_time = m.now();
  return o;
}

std::string label(unsigned threads, bool steal) {
  return "threads=" + std::to_string(threads) +
         " steal=" + std::to_string(steal);
}

/// The per-core engine, cross-checked on every reduced epoch, must equal
/// the frontier schedule at every threads x steal point.
void expect_matrix_matches_frontier(const Scenario& sc) {
  const Outcome seq = run(sc, SchedulerKind::kFrontier, 1, true);
  EXPECT_TRUE(seq.ok);
  EXPECT_NE(seq.irqs, 0u);
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const bool steal : {false, true}) {
      expect_same(seq, run(sc, SchedulerKind::kParallelEpoch, threads, steal),
                  label(threads, steal));
    }
  }
}

// ------------------------------------------- paranoid reduction matrix

TEST(ParallelEpoch, ReducedMinimumSurvivesBroadcastWakeups) {
  // Three of every four cores are idle: their next action is kNever
  // until a broadcast lands, so every wake-up reaches the minimum only
  // through the merge-target term of the reduction.
  Scenario sc;
  sc.cores = 16;
  sc.busy_every = 4;
  expect_matrix_matches_frontier(sc);
}

TEST(ParallelEpoch, MaskedIdleCoreDoesNotPinTheMinimum) {
  // Core 3 is idle with interrupts disabled, so the IPIs staged to it
  // cannot run and must not count toward the epoch minimum, even though
  // each one lands a send earlier than the broadcast. First it is never
  // unmasked (the run must still reach quiescence with the IRQs
  // pending), then a machine event unmasks it mid-run and it drains the
  // backlog exactly when the frontier schedule does.
  Scenario sc;
  sc.busy_every = 2;
  sc.masked_core = 3;
  expect_matrix_matches_frontier(sc);
  sc.unmask_at = 150'001;
  expect_matrix_matches_frontier(sc);
}

TEST(ParallelEpoch, ReducedMinimumAfterMachineQueueEvents) {
  // Machine-queue ticks hand idle and busy cores new work with every
  // shard parked: the loop must rescan after each turn.
  Scenario sc;
  sc.busy_every = 3;
  sc.mq_period = 7'001;
  expect_matrix_matches_frontier(sc);
}

TEST(ParallelEpoch, ReducedMinimumWithFastForward) {
  // Fast-forward commits move clocks outside any shard drain; every
  // third window is re-run in full fidelity by the paranoid audit.
  Scenario sc;
  sc.busy_steps = 2'000;
  sc.step = 60;
  sc.mq_period = 50'003;
  for (const std::uint64_t audit : {0u, 3u}) {
    sc.ff.enabled = true;
    sc.ff.paranoid_interval = audit;
    expect_matrix_matches_frontier(sc);
  }
}

TEST(ParallelEpoch, ReducedMinimumUnderAdvanceWatchdog) {
  // The budget caps epochs; an epoch it cuts short leaves the tally
  // partial, but the watchdog must then fire at exactly max + 1
  // advances, as in the sequential schedulers.
  Scenario sc;
  sc.max_advances = 1'500;
  const Outcome seq = run(sc, SchedulerKind::kFrontier, 1, true);
  EXPECT_FALSE(seq.ok);
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const bool steal : {false, true}) {
      const Outcome par =
          run(sc, SchedulerKind::kParallelEpoch, threads, steal);
      EXPECT_FALSE(par.ok) << label(threads, steal);
      EXPECT_EQ(par.advances, seq.advances) << label(threads, steal);
    }
  }
}

TEST(ParallelEpoch, ReducedMinimumUnderTimeWatchdog) {
  // The time watchdog reads the frontier clock from the per-thread
  // maxima. Barriers fall at the same virtual times for every thread
  // count, so the aborted runs agree with each other exactly, and every
  // core stops within one advance (an IRQ plus a step) of the limit.
  // The busy cores outlast the limit, so the epoch minimum stays below
  // it and no idle core can jump to a wake-up far past it.
  Scenario sc;
  sc.busy_every = 2;
  sc.busy_steps = 2'000;
  sc.max_time = 90'000;
  const Outcome ref = run(sc, SchedulerKind::kParallelEpoch, 1, false);
  EXPECT_FALSE(ref.ok);
  const CostModel cm = CostModel::knl();
  EXPECT_LE(ref.end_time, sc.max_time + cm.interrupt_dispatch + kHandlerCost +
                              sc.cores * cm.ipi_send + cm.interrupt_return +
                              sc.step);
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const bool steal : {false, true}) {
      expect_same(ref, run(sc, SchedulerKind::kParallelEpoch, threads, steal),
                  label(threads, steal));
    }
  }
}

TEST(ParallelEpoch, StopPredicateThatWakesACoreIsSeen) {
  // A stop predicate may touch state: this one hands idle core 5 work
  // once core 0 has taken 4 IRQs. The loop rescans on every epoch while
  // a predicate is set, so the woken core runs its work; results agree
  // across thread counts and steal modes (the predicate is
  // barrier-granular, so there is no frontier counterpart).
  struct Result {
    std::uint64_t trace{0};
    std::uint64_t advances{0};
    Cycles end_time{0};
    std::uint64_t left{0};
  };
  auto run_stop = [](unsigned threads, bool steal) {
    MachineConfig mc;
    mc.num_cores = 8;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.shard_policy = ShardPolicy::kPerCore;
    mc.threads = threads;
    mc.work_stealing = steal;
    mc.paranoid_frontier = true;
    Machine m(mc);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    std::vector<std::uint64_t> steps(8, 0);
    steps[0] = 400;
    WorkDriver driver(steps, 180);
    std::vector<IrqCell> irqs(8);
    for (unsigned i = 0; i < 8; ++i) {
      m.core(i).set_driver(&driver);
      m.core(i).set_irq_handler(kVector, [&irqs](Core& c, int) {
        c.consume(kHandlerCost);
        ++irqs[c.id()].v;
        if (c.id() == 0) c.machine().broadcast_ipi(c, kVector);
      });
    }
    LapicTimer timer(m.core(0), kVector);
    timer.periodic(20'000);
    bool woken = false;
    EXPECT_TRUE(m.run([&] {
      if (!woken && irqs[0].v >= 4) {
        woken = true;
        driver.add_work(m.core(5), 200);
      }
      return irqs[0].v >= 8;
    }));
    EXPECT_TRUE(woken);
    timer.stop();
    EXPECT_TRUE(m.run());
    std::ostringstream ts;
    tr.write_text(ts);
    return Result{fnv1a(ts.str()), m.total_advances(), m.now(),
                  driver.remaining(5)};
  };
  const Result ref = run_stop(1, false);
  EXPECT_EQ(ref.left, 0u) << "the woken core never ran";
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const bool steal : {false, true}) {
      const Result r = run_stop(threads, steal);
      EXPECT_EQ(r.trace, ref.trace) << label(threads, steal);
      EXPECT_EQ(r.advances, ref.advances) << label(threads, steal);
      EXPECT_EQ(r.end_time, ref.end_time) << label(threads, steal);
      EXPECT_EQ(r.left, 0u) << label(threads, steal);
    }
  }
}

TEST(ParallelEpoch, ParanoidCheckNamesACoreWokenOutsideItsDrain) {
  // Illegal under per-core shards: core 1's step makes idle core 0
  // runnable by writing state core 0's driver reads. Core 0 drained
  // first and reported kNever, so the reduced minimum misses it; the
  // cross-check must catch that and name core 0.
  auto bad_wake = [] {
    MachineConfig mc;
    mc.num_cores = 2;
    mc.scheduler = SchedulerKind::kParallelEpoch;
    mc.shard_policy = ShardPolicy::kPerCore;
    mc.threads = 1;  // single host thread: the death is deterministic
    mc.paranoid_frontier = true;
    Machine m(mc);
    class CrossWaker final : public CoreDriver {
     public:
      bool runnable(Core& core) override {
        return core.id() == 0 ? wake_ > 0 : work_ > 0;
      }
      void step(Core& core) override {
        core.consume(100);
        if (core.id() == 0) {
          --wake_;
        } else if (--work_ == 0) {
          wake_ = 5;
        }
      }

     private:
      int wake_{0};
      int work_{3};
    } d;
    m.core(0).set_driver(&d);
    m.core(1).set_driver(&d);
    (void)m.run();
  };
  EXPECT_DEATH(bad_wake(), "full scan finds core 0 due");
}

// ------------------------------------------------ chunked shard claims

TEST(WorkStealing, ChunkEdgeDigestsMatchFrontier) {
  // Chunks are clamp(cores / (threads * 16), 1, 32) cores wide, so
  // 1000 and 4097 cores leave a short last chunk (4097 at 32: one core)
  // and 1 and 3 cores ask for more threads than there are cores. Every
  // point must reduce to the frontier schedule bit for bit.
  for (const unsigned cores : {1u, 3u, 33u, 1000u, 4097u}) {
    Scenario sc;
    sc.cores = cores;
    sc.busy_steps = 60;
    sc.busy_every = 2;
    sc.step = 200;
    sc.horizon = 100'000;
    const Outcome seq = run(sc, SchedulerKind::kFrontier, 1, true);
    EXPECT_TRUE(seq.ok) << cores;
    for (const unsigned threads : {1u, 2u, 3u, 4u}) {
      for (const bool steal : {false, true}) {
        expect_same(seq,
                    run(sc, SchedulerKind::kParallelEpoch, threads, steal),
                    "cores=" + std::to_string(cores) + " " +
                        label(threads, steal));
      }
    }
  }
}

}  // namespace
}  // namespace iw::hwsim
