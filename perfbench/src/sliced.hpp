// The pass structure shared by the two long-run workloads (fanout_4k,
// composed_64): build a fresh machine and workload, run untimed warm-up
// slices, then time one heartbeat-period slice of run_until per unit. A
// pass runs `replicas` such instances side by side, one per host thread.
//
// Every slice's simulated outcome is hashed and checked against the
// reference under the key "slice.<index>" (the index counts from
// machine construction, so warm-up slices are checked too); a complete
// pass also checks a full-state digest under "digest". A warm-up or
// digest mismatch fails every unit of the pass.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "hwsim/machine.hpp"

namespace perfbench {

class SlicedWorkload : public Workload {
 public:
  using Counts = std::vector<std::pair<const char*, std::uint64_t>>;

  /// One live machine with the workload bound to it.
  class Instance {
   public:
    virtual ~Instance() = default;
    virtual hwsim::Machine& machine() = 0;
    /// Work the workload's driver does at the start of slice `s`,
    /// inside the unit (composed_64's private-region handoff).
    virtual void before_slice(unsigned s) { (void)s; }
    virtual std::uint64_t slice_outcome() = 0;
    virtual std::uint64_t end_digest() = 0;
    /// Named counters from the public accessors; traced passes sum
    /// their deltas over the timed units.
    virtual Counts counts() = 0;
  };

  SlicedWorkload(Reference& ref, Cycles period, unsigned warm_slices,
                 unsigned pass_units, unsigned replicas)
      : ref_(ref),
        period_(period),
        warm_slices_(warm_slices),
        pass_units_(pass_units),
        replicas_(replicas) {}

  void run_pass(std::uint64_t deadline_ns, RunStats& stats) override {
    run_replicas(replicas_, stats,
                 [&](RunStats& s) { run_replica(deadline_ns, s); });
  }

  bool cross_check(std::string* why) override {
    // A short prefix under the other scheduler, on one host thread:
    // the simulated outcome must be bit-identical.
    const auto run = build(alt_scheduler(), 1);
    const unsigned last = std::min(max_slice_, warm_slices_ + kCrossSlices);
    for (unsigned s = 0; s <= last; ++s) {
      if (!run_slice(*run, s)) {
        *why = "slice " + std::to_string(s) + " differs under " +
               alt_name() + " scheduling";
        return false;
      }
    }
    return true;
  }

 protected:
  virtual hwsim::SchedulerKind main_scheduler() const = 0;
  virtual hwsim::SchedulerKind alt_scheduler() const = 0;
  virtual const char* alt_name() const = 0;
  /// Host threads each instance's machine runs with.
  virtual unsigned machine_threads() const { return 1; }
  virtual std::unique_ptr<Instance> build(hwsim::SchedulerKind sched,
                                          unsigned threads) = 0;

  /// Summed delta of counter `name` over the traced passes' units.
  [[nodiscard]] std::uint64_t count(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second;
  }

 private:
  static constexpr unsigned kCrossSlices = 6;

  void run_replica(std::uint64_t deadline_ns, RunStats& stats) {
    const std::uint64_t t0 = now_ns();
    const auto run = build(main_scheduler(), machine_threads());
    bool pass_ok = true;
    unsigned s = 0;
    for (; s < warm_slices_; ++s) pass_ok &= run_slice(*run, s);
    stats.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    const bool traced = Tracer::get() != nullptr;
    const Counts before = run->counts();
    const std::uint64_t adv0 = run->machine().total_advances();
    std::uint64_t units = 0;
    std::uint64_t failed = 0;
    for (unsigned i = 0; i < pass_units_; ++i, ++s) {
      if (i > 0 && now_ns() >= deadline_ns) break;
      const std::uint64_t u0 = now_ns();
      bool ok = false;
      {
        Span unit(Layer::kUnit, /*unit=*/true);
        run->before_slice(s);
        Span span(Layer::kHwsimRun);
        ok = run->machine().run_until(static_cast<Cycles>(s + 1) * period_);
      }
      const double dt = static_cast<double>(now_ns() - u0) / 1e9;
      stats.unit_s.push_back(dt);
      stats.units_wall_s += dt;
      ++units;
      ok = ok && ref_.check("slice." + std::to_string(s), run->slice_outcome());
      if (!ok) ++failed;
    }
    stats.events += run->machine().total_advances() - adv0;
    const Counts after = run->counts();
    if (s == warm_slices_ + pass_units_) {
      pass_ok &= ref_.check("digest", run->end_digest());
    }
    stats.attempted += units;
    stats.failed += pass_ok ? failed : units;

    std::lock_guard<std::mutex> lock(mu_);
    max_slice_ = std::max(max_slice_, s - 1);
    if (traced) {
      for (std::size_t k = 0; k < after.size(); ++k) {
        totals_[after[k].first] += after[k].second - before[k].second;
      }
    }
  }

  bool run_slice(Instance& run, unsigned s) {
    run.before_slice(s);
    const bool ok = run.machine().run_until(static_cast<Cycles>(s + 1) * period_);
    return ok && ref_.check("slice." + std::to_string(s), run.slice_outcome());
  }

  Reference& ref_;
  Cycles period_;
  unsigned warm_slices_;
  unsigned pass_units_;
  unsigned replicas_;
  std::mutex mu_;  // guards max_slice_ and totals_ across replicas
  unsigned max_slice_{0};
  std::map<std::string, std::uint64_t> totals_;
};

}  // namespace perfbench
