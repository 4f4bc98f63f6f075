// CoherenceDriver plays each step's accesses as prefetched batches of
// at most CoherenceSim::kMaxBatch. This checks that a batched run is
// indistinguishable from one that draws and plays the same accesses one
// at a time: the same trace, metrics, core clocks, step counts and
// coherence counters, at batch sizes below, at and above the bound.
#include "workloads/coherence_driver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::workloads {
namespace {

constexpr unsigned kCores = 8;
constexpr std::uint64_t kSteps = 300;

/// The driver's step as it was before batching: draw one access, play
/// it, draw the next.
class OneAtATimeDriver final : public hwsim::CoreDriver {
 public:
  OneAtATimeDriver(coherence::CoherenceSim& sim, const coherence::Trace& layout,
                   CoherenceDriver::Config cfg, Rng rng)
      : sim_(sim), layout_(layout), cfg_(cfg), steps_(kCores, 0) {
    for (unsigned c = 0; c < kCores; ++c) {
      owned_region_.push_back(1 + c);
      rngs_.emplace_back(rng.next_u64());
    }
  }

  bool runnable(hwsim::Core& core) override {
    return steps_[core.id()] < cfg_.steps_per_core;
  }

  void step(hwsim::Core& core) override {
    const CoreId id = core.id();
    Rng& rng = rngs_[id];
    core.consume(cfg_.compute_per_step);
    for (unsigned i = 0; i < cfg_.accesses_per_step; ++i) {
      const bool go_shared = rng.chance(cfg_.shared_fraction);
      const coherence::Region& r =
          layout_.regions[go_shared ? 0 : owned_region_[id]];
      coherence::Access a;
      a.core = id;
      a.type = rng.chance(cfg_.write_fraction) ? coherence::AccessType::kWrite
                                               : coherence::AccessType::kRead;
      a.addr = r.base + rng.uniform(0, r.size / cfg_.line_bytes - 1) *
                            cfg_.line_bytes;
      a.region = r.id;
      sim_.access(a, r);
    }
    ++steps_[id];
  }

  void handoff_private(CoreId from, CoreId to) {
    coherence::Handoff h;
    h.region = owned_region_[from];
    h.from_core = from;
    h.to_core = to;
    sim_.handoff(h, layout_);
    std::swap(owned_region_[from], owned_region_[to]);
  }

  std::uint64_t steps_done(CoreId c) const { return steps_[c]; }

 private:
  coherence::CoherenceSim& sim_;
  const coherence::Trace& layout_;
  CoherenceDriver::Config cfg_;
  std::vector<std::uint32_t> owned_region_;
  std::vector<Rng> rngs_;
  std::vector<std::uint64_t> steps_;
};

struct Outcome {
  std::string trace;
  std::string metrics;
  std::vector<Cycles> clocks;
  std::vector<std::uint64_t> steps;
  std::vector<std::uint64_t> counters;
};

Outcome run(unsigned accesses_per_step, bool deactivate, bool batched) {
  hwsim::MachineConfig mc;
  mc.num_cores = kCores;
  mc.seed = 11;
  mc.max_advances = 10'000'000;
  hwsim::Machine m(mc);
  obs::TraceRecorder tr;
  obs::MetricsRegistry mx;
  m.set_tracer(&tr);
  m.set_metrics(&mx);

  coherence::SimConfig sc;
  sc.num_cores = kCores;
  // Small caches so the streams evict and the flush path has work.
  sc.private_cache = coherence::CacheConfig{8 * 1024, 4, 64};
  sc.selective_deactivation = deactivate;
  coherence::CoherenceSim sim(sc, m.rng_stream("coherence"));
  sim.bind_substrate(&m);

  CoherenceDriver::Config wc;
  wc.steps_per_core = kSteps;
  wc.accesses_per_step = accesses_per_step;
  CoherenceDriver batched_work(sim, kCores, wc, m.rng_stream("workload"));
  OneAtATimeDriver single_work(sim, batched_work.regions(), wc,
                               m.rng_stream("workload"));
  auto handoff = [&](CoreId from, CoreId to) {
    if (batched) {
      batched_work.handoff_private(from, to);
    } else {
      single_work.handoff_private(from, to);
    }
  };
  for (unsigned c = 0; c < kCores; ++c) {
    m.core(c).set_driver(batched ? static_cast<hwsim::CoreDriver*>(&batched_work)
                                 : &single_work);
  }
  EXPECT_TRUE(m.run_until(40'000));
  handoff(0, 1);
  handoff(5, 2);
  EXPECT_TRUE(m.run());

  Outcome o;
  std::ostringstream ts;
  tr.write_text(ts);
  o.trace = ts.str();
  std::ostringstream ms;
  mx.write_json(ms);
  o.metrics = ms.str();
  for (unsigned c = 0; c < kCores; ++c) {
    o.clocks.push_back(m.core(c).clock());
    o.steps.push_back(batched ? batched_work.steps_done(c)
                              : single_work.steps_done(c));
  }
  const coherence::SimStats s = sim.stats();
  o.counters = {s.accesses,          s.private_hits,
                s.directory_lookups, s.directory_updates,
                s.invalidations,     s.three_hop_transfers,
                s.memory_fetches,    s.handoff_flushes,
                s.total_latency,     s.noc.messages,
                s.noc.line_transfers, s.noc.socket_crossings,
                std::bit_cast<std::uint64_t>(s.noc.energy_pj)};
  if (batched) {
    EXPECT_EQ(batched_work.total_accesses(),
              kCores * kSteps * accesses_per_step);
  }
  return o;
}

TEST(CoherenceDriver, BatchedStepsEqualOneAtATimeAccesses) {
  for (const unsigned per_step :
       {1u, 4u, static_cast<unsigned>(coherence::CoherenceSim::kMaxBatch) + 5}) {
    for (const bool deactivate : {false, true}) {
      const Outcome batched = run(per_step, deactivate, true);
      const Outcome single = run(per_step, deactivate, false);
      const std::string where = "accesses_per_step=" + std::to_string(per_step) +
                                " deactivate=" + std::to_string(deactivate);
      EXPECT_FALSE(batched.trace.empty()) << where;
      // Whole traces are megabytes; report only whether they differ.
      EXPECT_TRUE(batched.trace == single.trace) << where;
      EXPECT_EQ(batched.metrics, single.metrics) << where;
      EXPECT_EQ(batched.clocks, single.clocks) << where;
      EXPECT_EQ(batched.steps, single.steps) << where;
      EXPECT_EQ(batched.counters, single.counters) << where;
      EXPECT_EQ(batched.counters[0], kCores * kSteps * per_step) << where;
    }
  }
}

}  // namespace
}  // namespace iw::workloads
