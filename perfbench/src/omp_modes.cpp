// omp_sp32: SP-mini on a 32-CPU KNL machine through omp::run_miniapp,
// one unit running the Linux, RTK, PIK and CCK modes once each. The
// only workload that runs nautilus kernel threads and cross-core
// wakeups, omp barriers and tasking, the linuxmodel noise path and the
// mem TLBs.
//
// The seed is the OmpConfig seed (the Linux OS-noise draws).
#include <memory>
#include <mutex>
#include <string>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "omp/runtime.hpp"

namespace perfbench {

namespace {

constexpr unsigned kThreads = 32;
/// Per replica; with min(4, nproc) replicas a pass has enough units for
/// its 90th percentile to have ten beyond it.
constexpr unsigned kPassUnits = 25;

struct Mode {
  omp::OmpMode mode;
  Layer layer;
  const char* key;
};

constexpr Mode kModes[] = {
    {omp::OmpMode::kLinux, Layer::kOmpLinux, "mode.linux"},
    {omp::OmpMode::kRTK, Layer::kOmpRtk, "mode.rtk"},
    {omp::OmpMode::kPIK, Layer::kOmpPik, "mode.pik"},
    {omp::OmpMode::kCCK, Layer::kOmpCck, "mode.cck"},
};

std::uint64_t outcome(const omp::OmpResult& r) {
  Digest d;
  d.mix(r.makespan);
  d.mix(r.barriers_passed);
  d.mix(r.tasks_executed);
  d.mix(r.syscalls);
  d.mix_double(r.tlb_miss_rate);
  return d.value();
}

/// min(4, nproc) replicas per pass, side by side: one replica's host
/// time depended on which host CPU it ran on.
class OmpModes final : public Workload {
 public:
  OmpModes(const Options& o, Reference& ref)
      : ref_(ref), seed_(o.seed), replicas_(bench_threads()) {}

  [[nodiscard]] unsigned threads() const override { return replicas_; }

  void run_pass(std::uint64_t deadline_ns, RunStats& stats) override {
    run_replicas(replicas_, stats,
                 [&](RunStats& s) { run_replica(deadline_ns, s); });
  }

  bool cross_check(std::string* why) override {
    // The same four runs on the reference linear-scan scheduler.
    const workloads::MiniApp app = workloads::sp_mini(48, 3);
    if (!run_modes(app, hwsim::SchedulerKind::kLinearScan, nullptr,
                   nullptr)) {
      *why = "a mode's outcome differs under linear-scan scheduling";
      return false;
    }
    return true;
  }

  void layer_metrics(Metrics& out) const override {
    put(out, "omp.barriers_passed", static_cast<double>(c_.barriers), "count");
    put(out, "omp.tasks_executed", static_cast<double>(c_.tasks), "count");
    put(out, "linuxmodel.syscalls", static_cast<double>(c_.syscalls),
        "count");
    put(out, "mem.tlb_miss_rate", c_.linux_tlb_miss_rate, "ratio");
    if (registry_.has_histogram(obs::names::kOmpBarrierWait)) {
      const auto& h = registry_.histogram(obs::names::kOmpBarrierWait);
      put(out, "omp.barrier_wait_cycles_p50",
          static_cast<double>(h.value_at_percentile(50.0)), "cycles");
      put(out, "omp.barrier_wait_cycles_p99",
          static_cast<double>(h.value_at_percentile(99.0)), "cycles");
    }
  }

 private:
  struct Counters {
    std::uint64_t barriers{0};
    std::uint64_t tasks{0};
    std::uint64_t syscalls{0};
    double linux_tlb_miss_rate{0.0};
  };

  void run_replica(std::uint64_t deadline_ns, RunStats& stats) {
    const std::uint64_t t0 = now_ns();
    const workloads::MiniApp app = workloads::sp_mini(48, 3);
    const bool pass_ok =
        run_modes(app, hwsim::SchedulerKind::kFrontier, nullptr, nullptr);
    stats.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    // Traced passes count and feed the barrier-wait histogram.
    const bool traced = Tracer::get() != nullptr;
    Counters counts;
    obs::MetricsRegistry registry;
    std::uint64_t units = 0;
    std::uint64_t failed = 0;
    for (unsigned i = 0; i < kPassUnits; ++i) {
      if (i > 0 && now_ns() >= deadline_ns) break;
      const std::uint64_t u0 = now_ns();
      bool ok = false;
      {
        Span unit(Layer::kUnit, /*unit=*/true);
        ok = run_modes(app, hwsim::SchedulerKind::kFrontier,
                       traced ? &counts : nullptr,
                       traced ? &registry : nullptr);
      }
      const double dt = static_cast<double>(now_ns() - u0) / 1e9;
      stats.unit_s.push_back(dt);
      stats.units_wall_s += dt;
      stats.sim_calls += 4;
      ++units;
      if (!ok) ++failed;
    }
    stats.attempted += units;
    stats.failed += pass_ok ? failed : units;
    if (!traced) return;
    std::lock_guard<std::mutex> lock(mu_);
    c_.barriers += counts.barriers;
    c_.tasks += counts.tasks;
    c_.syscalls += counts.syscalls;
    c_.linux_tlb_miss_rate = counts.linux_tlb_miss_rate;
    registry_.merge_from(registry);
  }

  /// One run of each mode, checked against the reference; counts and
  /// metrics land in `counts` and `metrics` when given.
  bool run_modes(const workloads::MiniApp& app, hwsim::SchedulerKind sched,
                 Counters* counts, obs::MetricsRegistry* metrics) {
    bool ok = true;
    for (const Mode& mode : kModes) {
      omp::OmpConfig cfg;
      cfg.mode = mode.mode;
      cfg.num_threads = kThreads;
      cfg.seed = seed_;
      cfg.scheduler = sched;
      cfg.metrics = metrics;
      omp::OmpResult r;
      {
        Span span(mode.layer);
        r = omp::run_miniapp(app, cfg);
      }
      ok &= ref_.check(mode.key, outcome(r));
      if (counts != nullptr) {
        counts->barriers += r.barriers_passed;
        counts->tasks += r.tasks_executed;
        counts->syscalls += r.syscalls;
        if (mode.mode == omp::OmpMode::kLinux) {
          counts->linux_tlb_miss_rate = r.tlb_miss_rate;
        }
      }
    }
    return ok;
  }

  Reference& ref_;
  std::uint64_t seed_;
  unsigned replicas_;
  std::mutex mu_;  // guards c_ and registry_ across replicas
  Counters c_;
  // mutable: the registry's histogram lookup is non-const.
  mutable obs::MetricsRegistry registry_;
};

}  // namespace

std::unique_ptr<Workload> make_omp(const Options& o, Reference& ref) {
  return std::make_unique<OmpModes>(o, ref);
}

}  // namespace perfbench
