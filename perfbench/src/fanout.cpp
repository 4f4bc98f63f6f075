// fanout_4k: a LAPIC heartbeat on CPU 0 broadcasts an IPI to 4096
// always-busy spin cores, on the epoch-parallel engine with per-core
// shards and min(4, nproc) host threads. Nearly all host time is the
// engine itself (queues, epoch drain, barrier, outbox merge) over a
// working set far larger than the host caches.
//
// The seed draws each core's spin-step cost from [150, 250] cycles.
#include <memory>
#include <vector>

#include "hwsim/lapic.hpp"
#include "hwsim/snapshot.hpp"
#include "sliced.hpp"

namespace perfbench {

namespace {

constexpr unsigned kCores = 4096;
constexpr Cycles kPeriod = 20'000;
constexpr int kVector = 0x40;
constexpr Cycles kHandlerCost = 120;
constexpr unsigned kWarmSlices = 8;
constexpr unsigned kPassUnits = 120;
/// The spin step costs about as much as a clock read: time one in 64.
constexpr std::uint32_t kStepSample = 64;

class SpinDriver final : public hwsim::CoreDriver {
 public:
  explicit SpinDriver(const std::vector<Cycles>& steps) : steps_(steps) {}
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override {
    SampledSpan span(Layer::kWorkloadsStep, kStepSample);
    core.consume(steps_[core.id()]);
  }

 private:
  const std::vector<Cycles>& steps_;
};

/// One cache line per core: handlers on different shards never share.
struct alignas(64) IrqCell {
  std::uint64_t v{0};
};

class FanoutInstance final : public SlicedWorkload::Instance {
 public:
  FanoutInstance(const hwsim::MachineConfig& mc,
                 const std::vector<Cycles>& steps)
      : machine_(mc), driver_(steps), irqs_(kCores) {
    IrqCell* cells = irqs_.data();
    for (unsigned i = 0; i < kCores; ++i) {
      hwsim::Core& core = machine_.core(i);
      core.set_driver(&driver_);
      core.set_irq_handler(kVector, [cells](hwsim::Core& c, int) {
        Span handler(Layer::kWorkloadsHandler);
        c.consume(kHandlerCost);
        ++cells[c.id()].v;
        if (c.id() == 0) {
          Span bcast(Layer::kHwsimBroadcastIpi);
          c.machine().broadcast_ipi(c, kVector);
        }
      });
    }
    timer_ = std::make_unique<hwsim::LapicTimer>(machine_.core(0), kVector);
    timer_->periodic(kPeriod);
  }

  hwsim::Machine& machine() override { return machine_; }

  std::uint64_t slice_outcome() override {
    std::uint64_t irqs = 0;
    for (const IrqCell& c : irqs_) irqs += c.v;
    Digest d;
    d.mix(machine_.total_advances());
    d.mix(machine_.total_ipis());
    d.mix(machine_.now());
    d.mix(irqs);
    return d.value();
  }

  std::uint64_t end_digest() override { return machine_.snapshot().digest(); }

  SlicedWorkload::Counts counts() override {
    return {{"advances", machine_.total_advances()},
            {"ipis", machine_.total_ipis()},
            {"steals", machine_.parallel_steals()},
            {"allocs", machine_.hot_path_allocs()}};
  }

 private:
  hwsim::Machine machine_;
  SpinDriver driver_;
  std::vector<IrqCell> irqs_;
  std::unique_ptr<hwsim::LapicTimer> timer_;
};

/// One instance per pass: the engine itself spreads it over the host
/// threads.
class Fanout final : public SlicedWorkload {
 public:
  Fanout(const Options& o, Reference& ref)
      : SlicedWorkload(ref, kPeriod, kWarmSlices, kPassUnits, /*replicas=*/1),
        seed_(o.seed),
        threads_(bench_threads()) {
    std::uint64_t st = o.seed;
    steps_.resize(kCores);
    for (Cycles& c : steps_) c = 150 + splitmix(st) % 101;
  }

  [[nodiscard]] unsigned threads() const override { return threads_; }

  void layer_metrics(Metrics& out) const override {
    const std::uint64_t advances = count("advances");
    put(out, "hwsim.advances", static_cast<double>(advances), "count");
    put(out, "hwsim.ipis", static_cast<double>(count("ipis")), "count");
    put(out, "hwsim.parallel_steals", static_cast<double>(count("steals")),
        "count");
    put(out, "hwsim.allocs_per_mevent",
        advances > 0 ? static_cast<double>(count("allocs")) /
                           (static_cast<double>(advances) / 1e6)
                     : 0.0,
        "count/Mevent");
  }

 protected:
  hwsim::SchedulerKind main_scheduler() const override {
    return hwsim::SchedulerKind::kParallelEpoch;
  }
  hwsim::SchedulerKind alt_scheduler() const override {
    return hwsim::SchedulerKind::kFrontier;
  }
  const char* alt_name() const override { return "frontier"; }
  unsigned machine_threads() const override { return threads_; }

  std::unique_ptr<Instance> build(hwsim::SchedulerKind sched,
                                  unsigned threads) override {
    Span span(Layer::kHwsimConstruct);
    hwsim::MachineConfig mc;
    mc.num_cores = kCores;
    mc.seed = seed_;
    mc.scheduler = sched;
    mc.shard_policy = hwsim::ShardPolicy::kPerCore;
    mc.threads = threads;
    return std::make_unique<FanoutInstance>(mc, steps_);
  }

 private:
  std::uint64_t seed_;
  unsigned threads_;
  std::vector<Cycles> steps_;
};

}  // namespace

std::unique_ptr<Workload> make_fanout(const Options& o, Reference& ref) {
  return std::make_unique<Fanout>(o, ref);
}

}  // namespace perfbench
