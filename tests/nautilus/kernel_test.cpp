#include "nautilus/kernel.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "linuxmodel/linux_stack.hpp"
#include "mem/numa.hpp"
#include "nautilus/event.hpp"
#include "obs/trace.hpp"

namespace iw::nautilus {
namespace {

hwsim::MachineConfig mcfg(unsigned cores) {
  hwsim::MachineConfig cfg;
  cfg.num_cores = cores;
  cfg.max_advances = 50'000'000;
  return cfg;
}

/// Thread body: run `steps` steps of `step_cycles` each, then finish.
ThreadBody counting_body(std::uint64_t steps, Cycles step_cycles,
                         std::uint64_t* counter = nullptr) {
  auto remaining = std::make_shared<std::uint64_t>(steps);
  return [remaining, step_cycles, counter](ThreadContext&) -> StepResult {
    if (counter) ++*counter;
    if (--*remaining == 0) return StepResult::done(step_cycles);
    return StepResult::cont(step_cycles);
  };
}

TEST(Kernel, SingleThreadRunsToCompletion) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::uint64_t count = 0;
  ThreadConfig tc;
  tc.name = "t0";
  tc.body = counting_body(10, 100, &count);
  Thread* t = k.spawn(std::move(tc));
  EXPECT_TRUE(m.run());
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(t->state(), ThreadState::kFinished);
  EXPECT_EQ(t->run_cycles(), 1000u);
  EXPECT_TRUE(k.quiescent());
}

TEST(Kernel, ThreadsOnDifferentCoresRunInParallel) {
  hwsim::Machine m(mcfg(4));
  Kernel k(m);
  k.attach();
  for (unsigned i = 0; i < 4; ++i) {
    ThreadConfig tc;
    tc.bound_core = i;
    tc.body = counting_body(100, 50);
    k.spawn(std::move(tc));
  }
  EXPECT_TRUE(m.run());
  // Parallel: every core finished at roughly the same virtual time.
  const Cycles c0 = m.core(0).clock();
  for (unsigned i = 1; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(m.core(i).clock()),
                static_cast<double>(c0), 500.0);
  }
}

TEST(Kernel, RoundRobinSharesOneCore) {
  hwsim::Machine m(mcfg(1));
  KernelConfig kc;
  kc.tick_period = 10'000;
  kc.rr_slice = 10'000;
  Kernel k(m, kc);
  k.attach();
  std::uint64_t c1 = 0, c2 = 0;
  {
    ThreadConfig tc;
    tc.name = "a";
    tc.body = counting_body(100, 1'000, &c1);
    k.spawn(std::move(tc));
  }
  {
    ThreadConfig tc;
    tc.name = "b";
    tc.body = counting_body(100, 1'000, &c2);
    k.spawn(std::move(tc));
  }
  EXPECT_TRUE(m.run());
  EXPECT_EQ(c1, 100u);
  EXPECT_EQ(c2, 100u);
  // Both made progress via preemption: >2 switches happened.
  EXPECT_GT(k.stats().context_switches, 4u);
}

TEST(Kernel, EdfRunsEarliestDeadlineFirst) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::vector<int> order;
  auto body = [&order](int id) {
    return [&order, id](ThreadContext&) -> StepResult {
      order.push_back(id);
      return StepResult::done(100);
    };
  };
  // Spawn in reverse-deadline order; EDF must reorder.
  ThreadConfig late;
  late.realtime = true;
  late.rt_relative_deadline = 100'000;
  late.body = body(2);
  k.spawn(std::move(late));
  ThreadConfig early;
  early.realtime = true;
  early.rt_relative_deadline = 1'000;
  early.body = body(1);
  k.spawn(std::move(early));
  EXPECT_TRUE(m.run());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Kernel, RtBeatsNonRt) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::vector<int> order;
  ThreadConfig nrt;
  nrt.body = [&order](ThreadContext&) -> StepResult {
    order.push_back(0);
    return StepResult::done(100);
  };
  k.spawn(std::move(nrt));
  ThreadConfig rt;
  rt.realtime = true;
  rt.rt_relative_deadline = 10'000;
  rt.body = [&order](ThreadContext&) -> StepResult {
    order.push_back(1);
    return StepResult::done(100);
  };
  k.spawn(std::move(rt));
  EXPECT_TRUE(m.run());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1) << "RT thread must run before non-RT";
}

TEST(Kernel, YieldAlternatesThreads) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::vector<int> order;
  auto yielding_body = [&order](int id, int rounds) {
    auto left = std::make_shared<int>(rounds);
    return [&order, id, left](ThreadContext&) -> StepResult {
      order.push_back(id);
      if (--*left == 0) return StepResult::done(10);
      return StepResult::yield(10);
    };
  };
  ThreadConfig a;
  a.body = yielding_body(0, 3);
  k.spawn(std::move(a));
  ThreadConfig b;
  b.body = yielding_body(1, 3);
  k.spawn(std::move(b));
  EXPECT_TRUE(m.run());
  const std::vector<int> expect{0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, expect);
}

TEST(Kernel, BlockAndWakeAcrossCores) {
  hwsim::Machine m(mcfg(2));
  Kernel k(m);
  k.attach();
  WaitQueue wq(k);
  std::vector<std::string> events;

  ThreadConfig sleeper;
  sleeper.name = "sleeper";
  sleeper.bound_core = 0;
  auto phase = std::make_shared<int>(0);
  sleeper.body = [&, phase](ThreadContext&) -> StepResult {
    if (*phase == 0) {
      *phase = 1;
      events.push_back("sleep");
      return StepResult::block(50, &wq);
    }
    events.push_back("woken");
    return StepResult::done(50);
  };
  Thread* st = k.spawn(std::move(sleeper));

  ThreadConfig waker;
  waker.name = "waker";
  waker.bound_core = 1;
  auto wphase = std::make_shared<int>(0);
  waker.body = [&, wphase](ThreadContext& ctx) -> StepResult {
    if (*wphase == 0) {
      *wphase = 1;
      return StepResult::cont(10'000);  // let the sleeper block first
    }
    events.push_back("signal");
    wq.signal(ctx.core);
    return StepResult::done(100);
  };
  k.spawn(std::move(waker));

  EXPECT_TRUE(m.run());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "sleep");
  EXPECT_EQ(events[1], "signal");
  EXPECT_EQ(events[2], "woken");
  EXPECT_EQ(st->state(), ThreadState::kFinished);
  EXPECT_EQ(k.stats().wakes, 1u);
}

TEST(Kernel, CrossCoreSpawnArrivesWithLatency) {
  hwsim::Machine m(mcfg(2));
  Kernel k(m);
  k.attach();
  Cycles spawn_time = 0, first_step_time = 0;

  ThreadConfig parent;
  parent.bound_core = 0;
  parent.body = [&](ThreadContext& ctx) -> StepResult {
    spawn_time = ctx.core.clock();
    ThreadConfig child;
    child.bound_core = 1;
    child.body = [&](ThreadContext& cctx) -> StepResult {
      first_step_time = cctx.core.clock();
      return StepResult::done(10);
    };
    ctx.kernel.spawn(std::move(child), &ctx.core);
    return StepResult::done(10);
  };
  k.spawn(std::move(parent));
  EXPECT_TRUE(m.run());
  EXPECT_GT(first_step_time, spawn_time + m.costs().ipi_latency);
}

TEST(Kernel, TasksRunWhenNoThreads) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  int ran = 0;
  k.submit_task(0, Task{[&] {
                          ++ran;
                          return Cycles{500};
                        },
                        500});
  k.submit_task(0, Task{[&] {
                          ++ran;
                          return Cycles{500};
                        },
                        500});
  EXPECT_TRUE(m.run());
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(k.stats().tasks.executed, 2u);
  EXPECT_TRUE(k.quiescent());
}

TEST(Kernel, SmallTaskRunsInline) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  int ran = 0;
  k.run_task_inline_or_queue(m.core(0), Task{[&] {
                                               ++ran;
                                               return Cycles{100};
                                             },
                                             100});
  EXPECT_EQ(ran, 1);  // executed synchronously, no machine.run needed
  EXPECT_EQ(k.stats().tasks.executed_inline, 1u);
}

TEST(Kernel, LargeTaskGetsQueued) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  int ran = 0;
  k.run_task_inline_or_queue(m.core(0),
                             Task{[&] {
                                    ++ran;
                                    return Cycles{100'000};
                                  },
                                  100'000});
  EXPECT_EQ(ran, 0);  // deferred
  EXPECT_TRUE(m.run());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(k.stats().tasks.executed_inline, 0u);
}

TEST(Kernel, ThreadStateAllocatedInLocalNumaZone) {
  hwsim::Machine m(mcfg(8));
  mem::NumaConfig nc;
  nc.num_zones = 2;
  nc.zone_size = 1 << 22;
  nc.cores_per_zone = 4;
  mem::NumaDomain numa(nc);
  KernelConfig kc;
  kc.numa = &numa;
  Kernel k(m, kc);
  k.attach();
  std::vector<Thread*> threads;
  for (unsigned c = 0; c < 8; ++c) {
    ThreadConfig tc;
    tc.bound_core = c;
    tc.body = counting_body(2, 100);
    threads.push_back(k.spawn(std::move(tc)));
  }
  // §III: thread state lives in the zone local to the bound CPU.
  for (unsigned c = 0; c < 8; ++c) {
    ASSERT_NE(threads[c]->state_addr(), kNever);
    EXPECT_EQ(numa.zone_of_addr(threads[c]->state_addr()),
              numa.zone_of_core(c))
        << "core " << c;
  }
  const auto held = numa.zone(0).allocated_bytes() +
                    numa.zone(1).allocated_bytes();
  EXPECT_EQ(held, 8u * kc.thread_state_bytes);
  EXPECT_TRUE(m.run());
  // Thread state is released as threads finish.
  EXPECT_EQ(numa.zone(0).allocated_bytes(), 0u);
  EXPECT_EQ(numa.zone(1).allocated_bytes(), 0u);
}

TEST(Kernel, ContextSwitchPaysFpCostOnlyForFpThreads) {
  // Two runs: FP vs no-FP ping-pong; FP run must show higher switch
  // overhead by exactly the fp save/restore costs per switch.
  auto run_pingpong = [&](bool fp) -> double {
    hwsim::Machine m(mcfg(1));
    Kernel k(m);
    k.attach();
    for (int t = 0; t < 2; ++t) {
      ThreadConfig tc;
      tc.uses_fp = fp;
      auto left = std::make_shared<int>(100);
      tc.body = [left](ThreadContext&) -> StepResult {
        if (--*left == 0) return StepResult::done(10);
        return StepResult::yield(10);
      };
      k.spawn(std::move(tc));
    }
    EXPECT_TRUE(m.run());
    return static_cast<double>(k.stats().switch_overhead) /
           static_cast<double>(k.stats().context_switches);
  };
  const double no_fp = run_pingpong(false);
  const double with_fp = run_pingpong(true);
  EXPECT_GT(with_fp, no_fp + 300.0);
}

/// Endless spin whose steps always certify (and count the times the
/// kernel asked).
ThreadConfig hooked_spin(CoreId core, Cycles cost, std::uint64_t* asked) {
  ThreadConfig tc;
  tc.bound_core = core;
  tc.body = [cost](ThreadContext&) { return StepResult::cont(cost); };
  tc.inert_step_cost = [cost, asked](ThreadContext&, Cycles) {
    ++*asked;
    return cost;
  };
  return tc;
}

TEST(Kernel, FastForwardNeverSkipsAThreadOnAContendedCore) {
  // Core 0 round-robins a hooked thread with an unhooked one; core 1
  // runs a hooked thread alone, so skip windows exist but stop at core
  // 0. The kernel must never even ask core 0's hook.
  struct Run {
    std::vector<std::uint64_t> steps;
    std::vector<Cycles> run_cycles;
    std::uint64_t switches{0};
    std::uint64_t ff_steps{0};
    std::uint64_t asked_contended{0};
  };
  auto run = [](bool ff) {
    hwsim::MachineConfig mc = mcfg(2);
    mc.fast_forward.enabled = ff;
    hwsim::Machine m(mc);
    KernelConfig kc;
    kc.tick_period = 10'000;
    kc.rr_slice = 10'000;
    Kernel k(m, kc);
    k.attach();
    Run r;
    std::uint64_t asked_alone = 0;
    k.spawn(hooked_spin(0, 1'000, &r.asked_contended));
    ThreadConfig plain;
    plain.body = [](ThreadContext&) { return StepResult::cont(1'500); };
    k.spawn(std::move(plain));
    k.spawn(hooked_spin(1, 40, &asked_alone));
    EXPECT_TRUE(m.run_until(200'000));
    for (const auto& t : k.threads()) {
      r.steps.push_back(t->steps());
      r.run_cycles.push_back(t->run_cycles());
    }
    r.switches = k.stats().context_switches;
    r.ff_steps = m.fast_forwarded_steps();
    EXPECT_EQ(asked_alone > 0, ff);
    return r;
  };
  const Run full = run(false);
  const Run ff = run(true);
  EXPECT_EQ(ff.asked_contended, 0u);
  EXPECT_GT(ff.ff_steps, 0u);
  EXPECT_EQ(full.steps, ff.steps);
  EXPECT_EQ(full.run_cycles, ff.run_cycles);
  EXPECT_EQ(full.switches, ff.switches);
  EXPECT_GT(ff.switches, 4u);  // the two threads really share core 0
}

TEST(Kernel, FastForwardOnTickArmedCoreMatchesStepping) {
  // A lone hooked thread under the Linux cost profile: the tick stays
  // armed, so each tick bounds a window and its handler's need_resched
  // must be cleared exactly as the stepped kContinue clears it. The
  // body finishes after kSteps steps; its state is Thread::steps(),
  // which the kernel commits for skipped steps too.
  constexpr std::uint64_t kSteps = 20'000;
  constexpr Cycles kCost = 40;
  struct Run {
    std::uint64_t steps{0};
    Cycles run_cycles{0};
    std::uint64_t switches{0};
    std::uint64_t advances{0};
    Cycles clock{0};
    std::string trace;
    std::uint64_t ff_steps{0};
  };
  auto run = [&](bool ff) {
    hwsim::MachineConfig mc = mcfg(1);
    mc.fast_forward.enabled = ff;
    hwsim::Machine m(mc);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    auto lc = linuxmodel::LinuxCosts::knl();
    lc.tick_period = 25'000;
    linuxmodel::LinuxStack lx(m, lc);
    lx.attach();
    ThreadConfig tc;
    tc.body = [](ThreadContext& ctx) {
      return ctx.thread.steps() + 1 == kSteps ? StepResult::done(kCost)
                                              : StepResult::cont(kCost);
    };
    tc.inert_step_cost = [](ThreadContext& ctx, Cycles horizon) -> Cycles {
      const std::uint64_t n =
          (horizon - ctx.core.clock() + kCost - 1) / kCost;
      return ctx.thread.steps() + n < kSteps ? kCost : 0;
    };
    Thread* t = lx.spawn_user_thread(std::move(tc));
    EXPECT_TRUE(m.run_until(2'000'000));
    EXPECT_EQ(t->state(), ThreadState::kFinished);
    Run r;
    r.steps = t->steps();
    r.run_cycles = t->run_cycles();
    r.switches = lx.kernel().stats().context_switches;
    r.advances = m.total_advances();
    r.clock = m.core(0).clock();
    std::ostringstream os;
    tr.write_text(os);
    r.trace = os.str();
    r.ff_steps = m.fast_forwarded_steps();
    return r;
  };
  const Run full = run(false);
  const Run ff = run(true);
  EXPECT_EQ(full.steps, kSteps);
  EXPECT_EQ(full.steps, ff.steps);
  EXPECT_EQ(full.run_cycles, ff.run_cycles);
  EXPECT_EQ(full.switches, ff.switches);
  EXPECT_EQ(full.advances, ff.advances);
  EXPECT_EQ(full.clock, ff.clock);
  EXPECT_EQ(full.trace, ff.trace);
  EXPECT_EQ(full.ff_steps, 0u);
  EXPECT_GT(ff.ff_steps, kSteps / 2);
}

}  // namespace
}  // namespace iw::nautilus
