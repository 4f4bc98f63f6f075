// The Nautilus kernel substrate: a lightweight kernel framework driving
// every core of a simulated machine (paper §III).
//
// Properties reproduced from the real system:
//  * single address space, no kernel/user distinction — thread bodies ARE
//    kernel code; there is no crossing cost anywhere;
//  * streamlined primitives: constant-path-length thread create, wake,
//    and context switch;
//  * per-core run queues with round-robin plus an EDF queue for
//    real-time threads (hard real-time scheduling support);
//  * tickless by default with fully steerable interrupts — timer ticks
//    exist only where an experiment arms them;
//  * a SoftIRQ-like task framework whose small tasks may run inline in
//    the scheduler (used by CCK OpenMP).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "hwsim/core.hpp"
#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "mem/numa.hpp"
#include "nautilus/task.hpp"
#include "nautilus/thread.hpp"

namespace iw::nautilus {

class WaitQueue;

struct KernelConfig {
  /// Round-robin slice; only enforced while a tick source is armed.
  Cycles rr_slice{1'000'000};
  /// Periodic tick per core (0 = tickless, the Nautilus default).
  Cycles tick_period{0};
  /// Keep the tick armed whenever the core has any load (Linux behavior);
  /// Nautilus arms it only under contention.
  bool tick_always_on{false};
  /// CPU consumed by the tick handler body beyond interrupt dispatch
  /// (timekeeping, RCU, scheduler bookkeeping — Linux pays this hourly
  /// housekeeping; Nautilus's handler is a flag write).
  Cycles tick_cost{0};
  /// Extra cost charged on every context switch (kernel/user crossing,
  /// Spectre/Meltdown mitigation, runqueue locking — zero in Nautilus,
  /// thousands of cycles in the Linux profile).
  Cycles switch_extra{0};
  int timer_vector{0x20};

  // Primitive path lengths (cycles), Nautilus-streamlined.
  Cycles sched_pick_cost{60};      // RR dequeue
  Cycles sched_pick_rt_cost{110};  // EDF heap op
  Cycles thread_create_cost{700};  // alloc stack+context in local zone
  Cycles wake_cost{140};           // queue move
  Cycles task_dispatch_cost{40};   // task framework pop+call
  /// Tasks at or below this size estimate may run inline (interrupt or
  /// scheduler context).
  Cycles small_task_threshold{4000};

  /// Optional NUMA domain for thread state. When set, each thread's
  /// stack + context block is carved from the zone local to its bound
  /// CPU — §III: "essential thread (e.g., context, stack) and scheduler
  /// state is guaranteed to always be in the most desirable zone."
  mem::NumaDomain* numa{nullptr};
  std::uint64_t thread_state_bytes{16 * 1024};
};

struct KernelStats {
  std::uint64_t context_switches{0};
  Cycles switch_overhead{0};
  std::uint64_t threads_created{0};
  std::uint64_t wakes{0};
  TaskStats tasks;
};

class Kernel final : public hwsim::CoreDriver {
 public:
  Kernel(hwsim::Machine& machine, KernelConfig cfg = {});
  ~Kernel() override;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] hwsim::Machine& machine() { return machine_; }
  [[nodiscard]] const KernelConfig& config() const { return cfg_; }
  [[nodiscard]] const KernelStats& stats() const { return stats_; }

  /// Install this kernel as the driver of every core; arm ticks if
  /// configured. Call once before Machine::run.
  void attach();

  /// Create a thread bound to cfg.bound_core. If `creator` is non-null
  /// the creation path length is charged to it.
  Thread* spawn(ThreadConfig cfg, hwsim::Core* creator = nullptr);

  /// Wake `t` (must be kBlocked or freshly created); called from `from`'s
  /// timeline. Remote wakes arrive after one IPI latency.
  void wake(Thread* t, hwsim::Core& from);

  /// Enqueue a task on `core`'s task queue.
  void submit_task(CoreId core, Task task);

  /// Run a small task inline right now on `core` (interrupt context).
  /// Falls back to queueing if the size estimate exceeds the threshold.
  void run_task_inline_or_queue(hwsim::Core& core, Task task);

  /// True when no thread is live (ready/running/blocked) and all task
  /// queues are empty.
  [[nodiscard]] bool quiescent() const;

  /// All spawned threads (owned by the kernel).
  [[nodiscard]] const std::vector<std::unique_ptr<Thread>>& threads() const {
    return threads_;
  }

  /// Request a reschedule on `core` at its next step boundary.
  void request_resched(CoreId core) { cpus_[core].need_resched = true; }

  // --- CoreDriver ---
  bool runnable(hwsim::Core& core) override;
  void step(hwsim::Core& core) override;
  /// Certifies only a core whose current thread runs uncontended (empty
  /// ready queues) and whose ThreadConfig::inert_step_cost certifies:
  /// such a step is the body plus the kContinue bookkeeping, nothing
  /// else (no pick, no switch, no slice preemption).
  bool plan_fast_forward(hwsim::Core& core, Cycles horizon,
                         hwsim::FastForwardPlan* plan) override;
  void apply_fast_forward(hwsim::Core& core,
                          const hwsim::FastForwardPlan& plan) override;

 private:
  struct Cpu {
    Thread* current{nullptr};
    std::deque<Thread*> rr_ready;
    std::vector<Thread*> edf_ready;  // min-heap by deadline
    std::deque<Task> tasks;
    bool need_resched{false};
    std::unique_ptr<hwsim::LapicTimer> tick;
  };

  void enqueue_ready(Cpu& cpu, Thread* t);
  /// Arm the per-core tick only while the core is contended (>1 runnable
  /// entity); Nautilus is tickless otherwise, and a quiescent machine
  /// must not keep firing timers.
  void update_tick(CoreId id);
  Thread* pick_next(hwsim::Core& core, Cpu& cpu);
  void context_switch(hwsim::Core& core, Cpu& cpu, Thread* next);
  void run_one_task(hwsim::Core& core, Cpu& cpu);

  hwsim::Machine& machine_;
  KernelConfig cfg_;
  KernelStats stats_;
  std::vector<Cpu> cpus_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::uint64_t next_tid_{1};
  std::uint64_t live_threads_{0};
};

}  // namespace iw::nautilus
