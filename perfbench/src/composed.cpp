// composed_64: heartbeat delivery and coherence-charged memory accesses
// interwoven on one 64-core machine under the default frontier
// scheduler. The benchmark's own driver polls the heartbeat at every
// step boundary, then runs CoherenceDriver::step; at slice 40 every
// private region is handed to the next core (as bench/composed_stack
// does), flushing the old owners' incoherent lines. The model layers do
// most of the host work here and the engine little.
//
// The seed is the machine seed, which seeds the access streams.
#include <memory>

#include "coherence/simulator.hpp"
#include "heartbeat/delivery.hpp"
#include "sliced.hpp"
#include "workloads/coherence_driver.hpp"

namespace perfbench {

namespace {

constexpr unsigned kCores = 64;
constexpr Cycles kPeriod = 20'000;
constexpr Cycles kPollCost = 90;
constexpr unsigned kWarmSlices = 10;
constexpr unsigned kPassUnits = 500;
constexpr unsigned kHandoffSlice = 40;

struct PollCounts {
  std::uint64_t polls{0};
  std::uint64_t hits{0};
};

/// The promotion-point wrapper: poll at every step boundary, then run
/// the memory-bound step.
class ComposedDriver final : public hwsim::CoreDriver {
 public:
  ComposedDriver(workloads::CoherenceDriver& work,
                 heartbeat::HeartbeatBackend& hb, PollCounts& counts)
      : work_(work), hb_(hb), counts_(counts) {}

  bool runnable(hwsim::Core& core) override { return work_.runnable(core); }

  void step(hwsim::Core& core) override {
    Span span(Layer::kWorkloadsStep);
    bool hit = false;
    {
      Span poll(Layer::kHeartbeatPoll);
      hit = hb_.poll(core.id(), core.clock());
    }
    ++counts_.polls;
    if (hit) {
      ++counts_.hits;
      core.consume(kPollCost);
    }
    Span coherence(Layer::kCoherenceStep);
    work_.step(core);
  }

 private:
  workloads::CoherenceDriver& work_;
  heartbeat::HeartbeatBackend& hb_;
  PollCounts& counts_;
};

class ComposedInstance final : public SlicedWorkload::Instance {
 public:
  explicit ComposedInstance(const hwsim::MachineConfig& mc)
      : machine_(mc),
        sim_(sim_config(), machine_.rng_stream("coherence")),
        work_(sim_, kCores, work_config(), machine_.rng_stream("workload")),
        hb_(machine_),
        driver_(work_, hb_, polls_) {
    sim_.bind_substrate(&machine_);
    for (unsigned c = 0; c < kCores; ++c) machine_.core(c).set_driver(&driver_);
    hb_.start(kPeriod, kCores);
  }

  hwsim::Machine& machine() override { return machine_; }

  void before_slice(unsigned s) override {
    if (s != kHandoffSlice) return;
    Span span(Layer::kCoherenceHandoff);
    for (unsigned c = 0; c < kCores; ++c) {
      work_.handoff_private(c, (c + 1) % kCores);
    }
  }

  std::uint64_t slice_outcome() override {
    const coherence::SimStats& st = sim_.stats();
    Digest d;
    d.mix(machine_.total_advances());
    d.mix(machine_.now());
    d.mix(work_.total_accesses());
    d.mix(st.private_hits);
    d.mix(st.invalidations);
    d.mix(st.handoff_flushes);
    d.mix(delivered());
    return d.value();
  }

  std::uint64_t end_digest() override {
    const coherence::SimStats& st = sim_.stats();
    Digest d;
    for (unsigned c = 0; c < kCores; ++c) {
      const heartbeat::BeatState& bs = hb_.state(c);
      d.mix(machine_.core(c).clock());
      d.mix(work_.steps_done(c));
      d.mix(bs.delivered);
      d.mix(bs.last_delivery);
      d.mix(bs.duplicates_suppressed);
      d.mix(bs.interbeat.count());
      d.mix_double(bs.interbeat.mean());
    }
    d.mix(st.accesses);
    d.mix(st.private_hits);
    d.mix(st.directory_lookups);
    d.mix(st.invalidations);
    d.mix(st.three_hop_transfers);
    d.mix(st.memory_fetches);
    d.mix(st.handoff_flushes);
    d.mix(st.total_latency);
    d.mix(machine_.snapshot().digest());
    return d.value();
  }

  SlicedWorkload::Counts counts() override {
    const coherence::SimStats& st = sim_.stats();
    return {{"advances", machine_.total_advances()},
            {"ipis", machine_.total_ipis()},
            {"allocs", machine_.hot_path_allocs()},
            {"accesses", st.accesses},
            {"private_hits", st.private_hits},
            {"invalidations", st.invalidations},
            {"handoff_flushes", st.handoff_flushes},
            {"polls", polls_.polls},
            {"hits", polls_.hits},
            {"delivered", delivered()},
            {"polled_beats", hb_.polled_beats()}};
  }

 private:
  static coherence::SimConfig sim_config() {
    coherence::SimConfig sc;
    sc.num_cores = kCores;
    sc.selective_deactivation = true;
    return sc;
  }

  static workloads::CoherenceDriver::Config work_config() {
    workloads::CoherenceDriver::Config wc;
    wc.steps_per_core = ~0ULL;  // never runs dry within a pass
    return wc;
  }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const heartbeat::BeatState& bs : hb_.states()) n += bs.delivered;
    return n;
  }

  hwsim::Machine machine_;
  coherence::CoherenceSim sim_;
  workloads::CoherenceDriver work_;
  heartbeat::NautilusHeartbeat hb_;
  PollCounts polls_;
  ComposedDriver driver_;
};

/// min(4, nproc) single-threaded replicas per pass: one replica's host
/// time depended on which host CPU it ran on (by up to 1.7x on a shared
/// 4-CPU VM), all of them side by side average that out.
class Composed final : public SlicedWorkload {
 public:
  Composed(const Options& o, Reference& ref)
      : SlicedWorkload(ref, kPeriod, kWarmSlices, kPassUnits, bench_threads()),
        seed_(o.seed) {}

  [[nodiscard]] unsigned threads() const override { return bench_threads(); }

  void layer_metrics(Metrics& out) const override {
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    auto total = [&](const char* counter, const char* metric) {
      put(out, metric, static_cast<double>(count(counter)), "count");
    };
    total("advances", "hwsim.advances");
    total("ipis", "hwsim.ipis");
    put(out, "hwsim.allocs_per_mevent",
        ratio(count("allocs") * 1'000'000, count("advances")), "count/Mevent");
    total("accesses", "coherence.accesses");
    put(out, "coherence.private_hit_ratio",
        ratio(count("private_hits"), count("accesses")), "ratio");
    total("invalidations", "coherence.invalidations");
    total("handoff_flushes", "coherence.handoff_flushes");
    total("polls", "heartbeat.polls");
    put(out, "heartbeat.poll_hit_ratio", ratio(count("hits"), count("polls")),
        "ratio");
    total("delivered", "heartbeat.delivered");
    total("polled_beats", "heartbeat.polled_beats");
  }

 protected:
  hwsim::SchedulerKind main_scheduler() const override {
    return hwsim::SchedulerKind::kFrontier;
  }
  hwsim::SchedulerKind alt_scheduler() const override {
    return hwsim::SchedulerKind::kParallelEpoch;
  }
  const char* alt_name() const override { return "parallel-epoch"; }

  std::unique_ptr<Instance> build(hwsim::SchedulerKind sched,
                                  unsigned threads) override {
    Span span(Layer::kHwsimConstruct);
    hwsim::MachineConfig mc;
    mc.num_cores = kCores;
    mc.seed = seed_;
    mc.scheduler = sched;
    mc.threads = threads;
    return std::make_unique<ComposedInstance>(mc);
  }

 private:
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_composed(const Options& o, Reference& ref) {
  return std::make_unique<Composed>(o, ref);
}

}  // namespace perfbench
