// Shared pieces of the benchmark: run options, the per-run statistics a
// workload fills, the reference outcomes every unit is checked against,
// and the workload interface main.cpp drives.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "trace.hpp"

namespace perfbench {

// The benchmark names the simulator's namespaces (hwsim, omp, ...) and
// types (Cycles) as its own.
using namespace iw;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Directory holding <workload>.seed<N>.ref reference files.
  std::string reference_dir{"perfbench/reference"};
  /// Where the traced run writes its Chrome trace and layer summary.
  std::string out_dir{".bench_build/perfbench-out"};
  /// Record one full pass and write it as the reference for this seed.
  bool write_reference{false};
  /// Self-test hooks: flip every loaded reference value; make one
  /// scenario batch abort.
  bool corrupt_reference{false};
  bool inject_abort{false};
  std::string commit{"unknown"};
};

/// FNV-1a over the 8 bytes of each mixed word.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// SplitMix64: derives the generated inputs from --seed.
[[nodiscard]] inline std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Expected simulated outcomes, keyed per unit ("slice.12", "cell.7",
/// "mode.rtk", ...). Loaded from the committed file for the seed when
/// one exists; otherwise the first occurrence of a key is learned and
/// every repeat must agree with it. Thread-safe: replicas check
/// concurrently.
class Reference {
 public:
  /// Returns false if the file exists but cannot be parsed.
  bool load(const std::string& path);
  bool save(const std::string& path) const;
  [[nodiscard]] bool from_file() const { return from_file_; }
  /// True when `value` matches (or is learned for) `key`.
  bool check(const std::string& key, std::uint64_t value);
  /// Is `key` known, and with which value.
  [[nodiscard]] bool lookup(const std::string& key, std::uint64_t* v) const;
  void corrupt();

 private:
  mutable std::mutex mu_;  // guards table_
  std::map<std::string, std::uint64_t> table_;
  bool from_file_{false};
};

/// What a run measured. Times are host seconds.
struct RunStats {
  std::vector<double> setup_s;  // one per pass (and replica)
  std::vector<double> unit_s;   // one per timed unit
  // Per pass: timed units per host second, and the 90th percentile of
  // the pass's unit times in ms.
  std::vector<double> pass_rate;
  std::vector<double> pass_p90_ms;
  // Per lane (one host thread's timed units in one pass): the median
  // unit time in ms and the number of units.
  std::vector<std::pair<double, std::size_t>> lanes;
  double units_wall_s{0.0};     // host time the timed units took
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t events{0};  // Machine::total_advances() over timed units
  std::uint64_t sim_calls{0};  // run_miniapp calls over timed units
};

/// Records one lane's unit times (seconds) in `stats.lanes`.
void add_lane(RunStats& stats, const std::vector<double>& unit_s);

/// Runs `pass` on `n` host threads side by side (the caller's among
/// them), each into its own RunStats, and merges the results into
/// `stats`, one lane per replica. The timed-unit wall time merges as
/// the replicas' mean, so units over wall time is their combined
/// throughput.
template <typename Pass>
void run_replicas(unsigned n, RunStats& stats, Pass&& pass) {
  std::vector<RunStats> parts(n);
  {
    std::vector<std::jthread> pool;
    for (unsigned r = 1; r < n; ++r) {
      pool.emplace_back([&pass, &parts, r] { pass(parts[r]); });
    }
    pass(parts[0]);
  }
  double wall = 0.0;
  for (const RunStats& p : parts) {
    stats.setup_s.insert(stats.setup_s.end(), p.setup_s.begin(),
                         p.setup_s.end());
    stats.unit_s.insert(stats.unit_s.end(), p.unit_s.begin(), p.unit_s.end());
    add_lane(stats, p.unit_s);
    wall += p.units_wall_s;
    stats.attempted += p.attempted;
    stats.failed += p.failed;
    stats.events += p.events;
    stats.sim_calls += p.sim_calls;
  }
  stats.units_wall_s += wall / n;
}

/// Named values in print order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

inline void put(Metrics& m, const std::string& name, double v,
                const std::string& unit) {
  m.emplace_back(name, std::make_pair(v, unit));
}

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned host_nproc();
/// Host threads a workload may use: min(4, nproc).
[[nodiscard]] unsigned bench_threads();

class Workload {
 public:
  virtual ~Workload() = default;

  /// One closed pass: set-up (construction and warm-up, appended to
  /// stats.setup_s), then timed units until the pass is complete or
  /// `deadline_ns` has passed. At least one unit always runs.
  virtual void run_pass(std::uint64_t deadline_ns, RunStats& stats) = 0;

  /// After timing: rerun a short prefix under another execution
  /// strategy and compare with the reference. False on disagreement.
  virtual bool cross_check(std::string* why) = 0;

  /// Per-layer counters gathered over the traced passes, by metric name.
  virtual void layer_metrics(Metrics& out) const = 0;

  /// Host threads (replicas or engine threads) / scenario workers this
  /// workload runs with.
  [[nodiscard]] virtual unsigned threads() const = 0;
  [[nodiscard]] virtual unsigned workers() const { return 0; }
};

std::unique_ptr<Workload> make_fanout(const Options& o, Reference& ref);
std::unique_ptr<Workload> make_composed(const Options& o, Reference& ref);
std::unique_ptr<Workload> make_scenario(const Options& o, Reference& ref);
std::unique_ptr<Workload> make_omp(const Options& o, Reference& ref);

}  // namespace perfbench
