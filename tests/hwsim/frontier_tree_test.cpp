// Equivalence of the frontier scheduler's tournament tree with the
// linear-scan reference.
//
// The tree keeps one leaf per core (padding leaves and idle cores hold
// the all-ones key) and re-indexes a core by rewriting its leaf and
// root path. Every frontier run below sets paranoid_frontier, so each
// frontier pick is also checked against a full linear scan in-loop, and
// the recorded trace, metrics JSON and final state digest must equal
// the linear-scan scheduler's. Core counts straddle the tree's
// power-of-two padding (3, 5, 33, 65, 257), fill it exactly (2, 4, 64),
// and reach the one-leaf tree whose root is the leaf (1).
// The workload drives the paths where a leaf changes: cores going idle
// (their leaf becomes the idle key) and being woken again by IPIs and
// by machine-queue events, machine-queue events landing on the same
// cycle as core actions (the queue wins the tie), and a snapshot
// restore after a divergent detour, then a continued run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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
/// Step and tick periods are multiples of each other, so machine-queue
/// ticks land on the very cycle busy cores act.
constexpr Cycles kStep = 100;
constexpr Cycles kTickPeriod = 1'000;
constexpr Cycles kBeatPeriod = 20'000;
constexpr Cycles kMid = 120'000;
constexpr Cycles kEnd = 260'000;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Spin work with uneven budgets (cores go idle at different times and
/// some start idle), a machine-queue tick that hands cores more work,
/// and IRQ handlers that wake idle cores. All mutable state is a
/// snapshot participant, so restore rewinds it with the machine.
class TreeWorkload final : public CoreDriver,
                           public SnapshotParticipant,
                           public EventSink {
 public:
  explicit TreeWorkload(Machine& m) : m_(m), remaining_(m.num_cores()) {
    const unsigned n = m.num_cores();
    for (unsigned i = 0; i < n; ++i) {
      // Every third core starts idle; the rest get budgets that run out
      // at staggered times.
      remaining_[i] = i % 3 == 2 ? 0 : 40 + 37 * (i % 7);
      Core& core = m.core(i);
      core.set_driver(this);
      core.set_irq_handler(kVector, [this, n](Core& c, int) {
        c.consume(120);
        add_work(c, 15);
        if (c.id() != 0 || n == 1) return;
        // The beat wakes one other core by IPI, chosen so it is often
        // an idle one.
        const auto to = static_cast<CoreId>(1 + (beats_++ * 3) % (n - 1));
        c.machine().send_ipi(c, to, kVector);
      });
    }
    timer_ = std::make_unique<LapicTimer>(m.core(0), kVector);
    m.register_snapshot_participant(this);
    sink_ = m.register_event_sink(this);
    timer_->periodic(kBeatPeriod);
    m.schedule_event(kTickPeriod, sink_);
  }
  ~TreeWorkload() {
    m_.unregister_event_sink(sink_);
    m_.unregister_snapshot_participant(this);
  }

  void stop() {
    timer_->stop();
    ticking_ = false;
  }

  // EventSink: the machine-queue tick. It hands the next core in turn
  // more work (waking it if idle) and re-arms on the tick grid.
  void on_machine_event(Machine& m, Cycles at, const EventPayload&) override {
    add_work(m.core(static_cast<CoreId>(ticks_++ % m.num_cores())), 5);
    if (ticking_) m.schedule_event(at + kTickPeriod, sink_);
  }

  bool runnable(Core& core) override { return remaining_[core.id()] > 0; }
  void step(Core& core) override {
    core.consume(kStep);
    --remaining_[core.id()];
  }

  void save_state(SnapshotWriter& w) const override {
    for (const std::uint64_t r : remaining_) w.u64(r);
    w.u64(ticks_);
    w.u64(beats_);
    w.u64(ticking_ ? 1 : 0);
  }
  void restore_state(SnapshotReader& r) override {
    for (std::uint64_t& x : remaining_) x = r.u64();
    ticks_ = r.u64();
    beats_ = r.u64();
    ticking_ = r.u64() != 0;
  }

 private:
  void add_work(Core& core, std::uint64_t n) {
    remaining_[core.id()] += n;
    core.mark_schedule_dirty();
  }

  Machine& m_;
  std::vector<std::uint64_t> remaining_;
  std::uint64_t ticks_{0};
  std::uint64_t beats_{0};
  bool ticking_{true};
  std::unique_ptr<LapicTimer> timer_;
  SinkId sink_{kNoSink};
};

struct Outcome {
  std::uint64_t trace{0};
  std::uint64_t metrics{0};
  std::uint64_t digest{0};
  std::uint64_t advances{0};
  std::uint64_t ipis{0};
  Cycles end_time{0};
};

void expect_same(const Outcome& a, const Outcome& b, const std::string& what) {
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.metrics, b.metrics) << what;
  EXPECT_EQ(a.digest, b.digest) << what;
  EXPECT_EQ(a.advances, b.advances) << what;
  EXPECT_EQ(a.ipis, b.ipis) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
}

/// Run to kMid; with `detour`, snapshot there, run a diverging stretch
/// (more ticks, more beats), and restore. Then record kMid..kEnd and the
/// drain to quiescence with a fresh tracer and registry.
Outcome run(unsigned cores, SchedulerKind sched, bool detour) {
  MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = sched;
  mc.paranoid_frontier = sched == SchedulerKind::kFrontier;
  Machine m(mc);
  TreeWorkload w(m);

  EXPECT_TRUE(m.run_until(kMid));
  if (detour) {
    const Snapshot snap = m.snapshot();
    EXPECT_TRUE(m.run_until(kMid + 3 * kBeatPeriod + 17));
    m.restore(snap);
  }
  obs::TraceRecorder tr;
  obs::MetricsRegistry mx;
  m.set_tracer(&tr);
  m.set_metrics(&mx);
  EXPECT_TRUE(m.run_until(kEnd));
  w.stop();
  EXPECT_TRUE(m.run());

  Outcome o;
  std::ostringstream ts;
  tr.write_text(ts);
  o.trace = fnv1a(ts.str());
  std::ostringstream ms;
  mx.write_json(ms);
  o.metrics = fnv1a(ms.str());
  o.digest = m.snapshot().digest();
  o.advances = m.total_advances();
  o.ipis = m.total_ipis();
  o.end_time = m.now();
  m.set_tracer(nullptr);
  m.set_metrics(nullptr);
  return o;
}

constexpr unsigned kCoreCounts[] = {1, 2, 3, 4, 5, 33, 64, 65, 257};

TEST(FrontierTree, MatchesLinearScanAcrossCoreCounts) {
  for (const unsigned cores : kCoreCounts) {
    const std::string what = "cores=" + std::to_string(cores);
    const Outcome linear = run(cores, SchedulerKind::kLinearScan, false);
    EXPECT_NE(linear.advances, 0u) << what;
    if (cores > 1) {
      EXPECT_NE(linear.ipis, 0u) << what;
    }
    expect_same(run(cores, SchedulerKind::kFrontier, false), linear, what);
  }
}

TEST(FrontierTree, SnapshotRestoreThenContinueMatchesLinearScan) {
  // restore() marks every core dirty, so every leaf is rewritten before
  // the next pick; the continued run must pick exactly what an
  // uninterrupted linear-scan run picks.
  for (const unsigned cores : kCoreCounts) {
    const std::string what = "cores=" + std::to_string(cores);
    const Outcome linear = run(cores, SchedulerKind::kLinearScan, false);
    expect_same(run(cores, SchedulerKind::kFrontier, true), linear, what);
    expect_same(run(cores, SchedulerKind::kLinearScan, true), linear,
                what + " linear detour");
  }
}

TEST(FrontierTree, AllCoresIdleLeavesOnlyTheMachineQueue) {
  // Every leaf holds the idle key while a machine event is pending: the
  // pick is the machine queue, and next_event_time() reports its time.
  for (const unsigned cores : kCoreCounts) {
    MachineConfig mc;
    mc.num_cores = cores;
    mc.paranoid_frontier = true;
    Machine m(mc);
    class Wake final : public EventSink {
     public:
      void on_machine_event(Machine& mm, Cycles at,
                            const EventPayload&) override {
        ++fired;
        mm.core(mm.num_cores() - 1).post_event(at + 500, id, {});
      }
      void on_core_event(Core& c, Cycles, const EventPayload&) override {
        c.consume(7);
        ++fired;
      }
      SinkId id{kNoSink};
      int fired{0};
    } wake;
    wake.id = m.register_event_sink(&wake);
    m.schedule_event(1'000, wake.id);
    EXPECT_EQ(m.next_event_time(), 1'000u) << "cores=" << cores;
    EXPECT_TRUE(m.run());
    EXPECT_EQ(wake.fired, 2) << "cores=" << cores;
    EXPECT_EQ(m.next_event_time(), kNever) << "cores=" << cores;
    m.unregister_event_sink(wake.id);
  }
}

}  // namespace
}  // namespace iw::hwsim
