// perfbench: the repository benchmark's driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reference-dir DIR] [--out-dir DIR] [--commit ID]
//             [--write-reference] [--corrupt-reference] [--inject-abort]
//
// Runs closed passes of one workload for S seconds of host time, checks
// every unit's simulated outcome, and prints a host fingerprint, a
// summary line and, last, one JSON result line. An untimed warm-up pass
// comes first. --trace 0 reports the end-to-end metrics. --trace 1
// alternates untraced and traced passes and reports the per-layer
// metrics from the traced ones, plus the tracing overhead; it also
// writes a Chrome trace and a per-layer summary under --out-dir. perfbench/run.py builds and runs
// this binary; see perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

/// The per-layer metrics a traced run prints, in order. Layers a
/// workload does not touch read 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"hwsim.run.busy_s", "s/unit"},
    {"hwsim.run.self_s", "s/unit"},
    {"hwsim.ns_per_event", "ns"},
    {"hwsim.advances", "count/unit"},
    {"hwsim.ipis", "count/unit"},
    {"hwsim.parallel_steals", "count/unit"},
    {"hwsim.allocs_per_mevent", "count/Mevent"},
    {"hwsim.construct_us", "us"},
    {"hwsim.snapshot.deserialize_us", "us"},
    {"hwsim.snapshot.restore_us", "us"},
    {"hwsim.install_fault_plan_us", "us"},
    {"hwsim.snapshot.digest_us", "us"},
    {"workloads.step_s", "s/unit"},
    {"workloads.handler_s", "s/unit"},
    {"coherence.step_s", "s/unit"},
    {"coherence.accesses", "count/unit"},
    {"coherence.private_hit_ratio", "ratio"},
    {"coherence.invalidations", "count/unit"},
    {"coherence.handoff_flushes", "count/unit"},
    {"heartbeat.poll_s", "s/unit"},
    {"heartbeat.polls", "count/unit"},
    {"heartbeat.poll_hit_ratio", "ratio"},
    {"heartbeat.delivered", "count/unit"},
    {"heartbeat.polled_beats", "count/unit"},
    {"scenarioserver.cell_us", "us"},
    {"scenarioserver.worker_busy_frac", "ratio"},
    {"scenarioserver.arena_high_water", "bytes"},
    {"omp.linux.run_ms", "ms"},
    {"omp.rtk.run_ms", "ms"},
    {"omp.pik.run_ms", "ms"},
    {"omp.cck.run_ms", "ms"},
    {"omp.barriers_passed", "count/unit"},
    {"omp.tasks_executed", "count/unit"},
    {"linuxmodel.syscalls", "count/unit"},
    {"mem.tlb_miss_rate", "ratio"},
    {"omp.barrier_wait_cycles_p50", "cycles"},
    {"omp.barrier_wait_cycles_p99", "cycles"},
    {"trace.units_per_sec_untraced", "1/s"},
    {"trace.units_per_sec_traced", "1/s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.self_sum_error_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

/// Span records kept for the Chrome trace (about 9 MB of JSON); the
/// per-layer aggregates cover every span.
constexpr std::size_t kSpanCap = 50'000;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fanout_4k|composed_64|scenario_sweep|omp_sp32 --seed N "
               "--seconds S --trace 0|1 [--reference-dir DIR] [--out-dir "
               "DIR] [--commit ID] [--write-reference] "
               "[--corrupt-reference] [--inject-abort]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Options& o, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        *err = a + " needs a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    try {
      if (a == "--workload") {
        if (!value(&o.workload)) return false;
      } else if (a == "--seed") {
        if (!value(&v)) return false;
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        if (!value(&v)) return false;
        o.seconds = std::stod(v);
        if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) {
          *err = "--seconds must be in (0, 3600]";
          return false;
        }
      } else if (a == "--trace") {
        if (!value(&v)) return false;
        if (v != "0" && v != "1") {
          *err = "--trace takes 0 or 1";
          return false;
        }
        o.trace = v == "1";
      } else if (a == "--reference-dir") {
        if (!value(&o.reference_dir)) return false;
      } else if (a == "--out-dir") {
        if (!value(&o.out_dir)) return false;
      } else if (a == "--commit") {
        if (!value(&o.commit)) return false;
      } else if (a == "--write-reference") {
        o.write_reference = true;
      } else if (a == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else if (a == "--inject-abort") {
        o.inject_abort = true;
      } else {
        *err = "unknown argument " + a;
        return false;
      }
    } catch (const std::exception&) {
      *err = "bad value for " + a;
      return false;
    }
  }
  if (o.workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string fingerprint(const Options& o, const Workload& w) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"commit\": \"%s\", \"workload\": "
                "\"%s\", \"seed\": %llu, \"host_threads\": %u, "
                "\"scenario_workers\": %u}",
                host_nproc(), json_escape(cpu_model()).c_str(),
#if defined(__clang__)
                json_escape(std::string("clang ") + __clang_version__).c_str(),
#else
                json_escape(std::string("g++ ") + __VERSION__).c_str(),
#endif
                PERFBENCH_BUILD_TYPE, json_escape(o.commit).c_str(),
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                w.threads(), w.workers());
  return buf;
}

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

/// Passes until `deadline_ns`, at least one of each kind; with `traced`
/// set, odd passes run traced into `traced`, the others untraced into
/// `stats`.
void measure(Workload& w, std::uint64_t deadline_ns, RunStats& stats,
             RunStats* traced) {
  const std::size_t min_passes = traced != nullptr ? 2 : 1;
  for (std::size_t pass = 0; pass < min_passes || now_ns() < deadline_ns;
       ++pass) {
    const bool on = traced != nullptr && pass % 2 == 1;
    RunStats& s = on ? *traced : stats;
    Tracer::set_active(on);
    const std::size_t n0 = s.unit_s.size();
    const double wall0 = s.units_wall_s;
    w.run_pass(deadline_ns, s);
    const double wall = s.units_wall_s - wall0;
    if (wall > 0.0) {
      s.pass_rate.push_back(static_cast<double>(s.unit_s.size() - n0) / wall);
      std::vector<double> ms;
      for (std::size_t i = n0; i < s.unit_s.size(); ++i) {
        ms.push_back(s.unit_s[i] * 1e3);
      }
      s.pass_p90_ms.push_back(percentile(std::move(ms), 90.0));
    }
  }
  Tracer::set_active(false);
}

/// Median over passes of units per host second of timed units.
double units_per_sec(const RunStats& s) { return median(s.pass_rate); }

/// Median unit time: each lane's median, averaged over the lanes of
/// the run weighted by their units. On a shared host a host CPU runs
/// the same code either at full speed or up to 1.8x slower for a second
/// or so at a time, so the unit times of a pass are a two-peaked
/// mixture. Its pooled median jumps from one peak to the other as the
/// share of slow lanes crosses one half (it spread by half its value
/// between runs); the mean of lane medians moves in proportion to that
/// share, and each lane's median still ignores preemption spikes.
double unit_ms_p50(const RunStats& s) {
  double sum = 0.0;
  std::size_t units = 0;
  for (const auto& [p50_ms, n] : s.lanes) {
    sum += p50_ms * static_cast<double>(n);
    units += n;
  }
  return units > 0 ? sum / static_cast<double>(units) : 0.0;
}

/// Throughput is a median over passes, so a burst of host contention
/// during a few passes does not move it. The 90th percentile is only
/// printed in the summary: under vCPU steal on a shared host, the tail
/// of the barrier-synchronized parallel engine varied by more than any
/// allowed bound between runs.
void end_to_end(const RunStats& s, Metrics& m) {
  put(m, "units_per_sec", units_per_sec(s), "1/s");
  put(m, "unit_ms_p50", unit_ms_p50(s), "ms");
  put(m, "setup_s", median(s.setup_s), "s");
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");
}

double median_of(const Tracer& t, Layer l, double scale) {
  std::vector<double> v;
  for (const std::uint64_t ns : t.samples(l)) {
    v.push_back(static_cast<double>(ns) / scale);
  }
  return median(std::move(v));
}

/// Per-layer metrics of the traced passes. Layer times and simulated
/// counts are per unit, so they compare across runs of any length;
/// per-call times are medians.
void per_layer(const Tracer& t, const Workload& w, const RunStats& untraced,
               const RunStats& traced, Metrics& out) {
  const auto units = static_cast<double>(std::max<std::size_t>(
      traced.unit_s.size(), 1));
  std::map<std::string, double> v;
  auto per_unit_s = [&](std::int64_t ns) {
    return static_cast<double>(ns) / 1e9 / units;
  };
  const LayerTotals run = t.totals(Layer::kHwsimRun);
  v["hwsim.run.busy_s"] = per_unit_s(run.busy_ns);
  v["hwsim.run.self_s"] = per_unit_s(run.self_ns);
  v["hwsim.construct_us"] = median_of(t, Layer::kHwsimConstruct, 1e3);
  v["hwsim.snapshot.deserialize_us"] =
      median_of(t, Layer::kSnapshotDeserialize, 1e3);
  v["hwsim.snapshot.restore_us"] = median_of(t, Layer::kSnapshotRestore, 1e3);
  v["hwsim.install_fault_plan_us"] =
      median_of(t, Layer::kInstallFaultPlan, 1e3);
  v["hwsim.snapshot.digest_us"] = median_of(t, Layer::kSnapshotDigest, 1e3);
  v["workloads.step_s"] = per_unit_s(t.totals(Layer::kWorkloadsStep).busy_ns);
  v["workloads.handler_s"] =
      per_unit_s(t.totals(Layer::kWorkloadsHandler).busy_ns);
  v["coherence.step_s"] = per_unit_s(t.totals(Layer::kCoherenceStep).busy_ns);
  v["heartbeat.poll_s"] = per_unit_s(t.totals(Layer::kHeartbeatPoll).busy_ns);
  v["scenarioserver.cell_us"] = median_of(t, Layer::kScenarioCell, 1e3);
  v["omp.linux.run_ms"] = median_of(t, Layer::kOmpLinux, 1e6);
  v["omp.rtk.run_ms"] = median_of(t, Layer::kOmpRtk, 1e6);
  v["omp.pik.run_ms"] = median_of(t, Layer::kOmpPik, 1e6);
  v["omp.cck.run_ms"] = median_of(t, Layer::kOmpCck, 1e6);

  // Workload counters: totals ("count") become per-unit; anything else
  // is already final and replaces the default above.
  Metrics counts;
  w.layer_metrics(counts);
  for (const auto& [name, vu] : counts) {
    v[name] = vu.second == "count" ? vu.first / units : vu.first;
  }
  if (v.count("hwsim.ns_per_event") == 0 && v["hwsim.advances"] > 0.0) {
    v["hwsim.ns_per_event"] =
        static_cast<double>(run.self_ns) / (v["hwsim.advances"] * units);
  }

  const double ups_u = units_per_sec(untraced);
  const double ups_t = units_per_sec(traced);
  v["trace.units_per_sec_untraced"] = ups_u;
  v["trace.units_per_sec_traced"] = ups_t;
  v["trace.overhead_frac"] = ups_u > 0.0 ? 1.0 - ups_t / ups_u : 0.0;
  const UnitTotals u = t.unit_totals();
  v["trace.self_sum_error_frac"] = u.max_sum_error;
  v["trace.unattributed_frac"] =
      u.wall_ns > 0 ? static_cast<double>(u.remainder_ns) /
                          static_cast<double>(u.wall_ns)
                    : 0.0;
  for (const auto& [name, unit] : kLayerMetrics) put(out, name, v[name], unit);
}

void print_metrics(std::FILE* f, const Metrics& m) {
  bool first = true;
  for (const auto& [name, vu] : m) {
    const double x = std::isfinite(vu.first) ? vu.first : 0.0;
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", name.c_str(), x, vu.second.c_str());
    first = false;
  }
}

bool write_layers(const std::string& path, const std::string& fp,
                  const Tracer& t, const Metrics& m) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"fingerprint\": %s,\n \"clock_floor_ns\": %llu,\n"
               " \"layers\": {", fp.c_str(),
               static_cast<unsigned long long>(t.floor_ns()));
  for (std::size_t li = 0; li < kLayers; ++li) {
    const auto l = static_cast<Layer>(li);
    const LayerTotals lt = t.totals(l);
    std::fprintf(f,
                 "%s\n  \"%s\": {\"busy_s\": %.9f, \"self_s\": %.9f, "
                 "\"count\": %llu}",
                 li == 0 ? "" : ",", layer_name(l),
                 static_cast<double>(lt.busy_ns) / 1e9,
                 static_cast<double>(lt.self_ns) / 1e9,
                 static_cast<unsigned long long>(lt.count));
  }
  std::fprintf(f, "},\n \"metrics\": {");
  print_metrics(f, m);
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string err;
  if (!parse_args(argc, argv, o, &err)) return usage(err.c_str());

  Reference ref;
  const std::string ref_path = o.reference_dir + "/" + o.workload + ".seed" +
                               std::to_string(o.seed) + ".ref";
  if (!o.write_reference && !ref.load(ref_path)) {
    std::fprintf(stderr, "perfbench: cannot parse %s\n", ref_path.c_str());
    return 2;
  }
  if (o.corrupt_reference) ref.corrupt();

  std::unique_ptr<Workload> w;
  if (o.workload == "fanout_4k") {
    w = make_fanout(o, ref);
  } else if (o.workload == "composed_64") {
    w = make_composed(o, ref);
  } else if (o.workload == "scenario_sweep") {
    w = make_scenario(o, ref);
  } else if (o.workload == "omp_sp32") {
    w = make_omp(o, ref);
  } else {
    return usage(("unknown workload " + o.workload).c_str());
  }

  const std::string fp = fingerprint(o, *w);
  std::printf("fingerprint %s\n", fp.c_str());
  std::fflush(stdout);

  RunStats warm;
  RunStats stats;
  RunStats traced;
  if (o.write_reference) {
    w->run_pass(~0ULL, stats);
  } else {
    // Untimed warm-up pass: absorbs the process's first-run cost. Its
    // units are still checked.
    w->run_pass(~0ULL, warm);
    if (o.trace) Tracer::enable(kSpanCap);
    measure(*w, now_ns() + static_cast<std::uint64_t>(o.seconds * 1e9),
            stats, o.trace ? &traced : nullptr);
  }
  const std::uint64_t attempted =
      warm.attempted + stats.attempted + traced.attempted;
  std::uint64_t failed = warm.failed + stats.failed + traced.failed;

  std::string why;
  const bool agree = w->cross_check(&why);
  if (!agree) {
    std::fprintf(stderr, "perfbench: cross-strategy check failed: %s\n",
                 why.c_str());
    failed = attempted;
  }
  const bool correct = agree && failed == 0 && attempted > 0;

  if (o.write_reference) {
    if (!correct || !ref.save(ref_path)) {
      std::fprintf(stderr, "perfbench: reference not written\n");
      return 1;
    }
    std::printf("wrote %s\n", ref_path.c_str());
  }

  // Throughputs of the untraced passes, over their summed unit time.
  const double wall = stats.units_wall_s > 0.0 ? stats.units_wall_s : 1.0;
  const auto per_sec = [wall](double n) { return n / wall; };
  std::printf(
      "summary {\"workload\": \"%s\", \"reference\": \"%s\", \"units\": %zu, "
      "\"passes\": %zu, \"unit_ms_p90\": %.6g, \"events_per_sec\": %.6g, "
      "\"scenarios_per_sec\": %.6g, \"runs_per_sec\": %.6g, \"fail_frac\": "
      "%.6g, \"attempted\": %llu, \"failed\": %llu, \"cross_check\": %s}\n",
      o.workload.c_str(), ref.from_file() ? "committed" : "self-consistent",
      stats.unit_s.size(), stats.pass_rate.size(), median(stats.pass_p90_ms),
      per_sec(static_cast<double>(stats.events)),
      o.workload == "scenario_sweep"
          ? per_sec(static_cast<double>(stats.unit_s.size()))
          : 0.0,
      per_sec(static_cast<double>(stats.sim_calls)),
      attempted > 0 ? static_cast<double>(failed) /
                          static_cast<double>(attempted)
                    : 1.0,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), agree ? "true" : "false");

  Metrics m;
  if (!o.trace) {
    end_to_end(stats, m);
  } else {
    const Tracer& t = *Tracer::owned();
    per_layer(t, *w, stats, traced, m);
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    // One pair of files per workload: each traced run replaces the last.
    const std::string stem = o.out_dir + "/" + o.workload;
    if (t.write_chrome_trace(stem + ".trace.json") &&
        write_layers(stem + ".layers.json", fp, t, m)) {
      std::printf("trace %s.trace.json layers %s.layers.json\n", stem.c_str(),
                  stem.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write trace under %s\n",
                   o.out_dir.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics(stdout, m);
  std::printf("}}\n");
  return 0;
}
