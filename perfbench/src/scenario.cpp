// scenario_sweep: one warmed 64-core heartbeat-replay image fed to
// ScenarioServer::run as a fault-plan matrix (IPI drop x delay x dup x
// fault seed) with a two-period divergent window, on min(4, nproc)
// workers. Many short hydrated runs: Machine construction, snapshot
// deserialize/restore, install_fault_plan, digest and the worker pool
// are a visible share of each cell.
//
// Each batch runs in a forked child process, so a batch that aborts
// (the server asserts on a failed run) or hangs fails its cells
// instead of the whole benchmark. The child ships cell digests, per-cell
// host times and, in the traced run, its spans back through a pipe.
//
// The seed derives the matrix's fault seeds.
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "heartbeat/delivery.hpp"
#include "hwsim/snapshot.hpp"
#include "scenarioserver/server.hpp"

namespace perfbench {

namespace {

namespace ss = scenarioserver;

constexpr unsigned kCores = 64;
constexpr unsigned kWarmPeriods = 20;
constexpr unsigned kWindowPeriods = 2;
constexpr std::uint64_t kFaultSeeds = 16;
/// Cells the traced run also hydrates on the benchmark's own thread,
/// one call at a time, to time each hwsim step of a cell.
constexpr std::size_t kProbeCells = 16;
/// Cells the cross-check reruns on a single worker.
constexpr std::size_t kCrossCells = 48;
constexpr int kBatchTimeoutMs = 60'000;
constexpr std::uint64_t kMagic = 0x5045'5246'5343'4e31ULL;  // "PERFSCN1"

class SpinDriver final : public hwsim::CoreDriver {
 public:
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override { core.consume(200); }
};

/// Heartbeat-supervised spin on every core: the replay workload of the
/// forensic tools. The heartbeat self-registers as the one snapshot
/// participant.
class Replay {
 public:
  Replay(hwsim::Machine& m, Cycles period) : hb_(m) {
    for (unsigned c = 0; c < m.num_cores(); ++c) m.core(c).set_driver(&driver_);
    heartbeat::FaultToleranceConfig ft;
    ft.enabled = true;
    hb_.set_fault_tolerance(ft);
    hb_.start(period, m.num_cores());
  }
  [[nodiscard]] const heartbeat::NautilusHeartbeat& hb() const { return hb_; }

 private:
  SpinDriver driver_;
  heartbeat::NautilusHeartbeat hb_;
};

std::uint64_t delivered(const heartbeat::NautilusHeartbeat& hb) {
  std::uint64_t n = 0;
  for (const heartbeat::BeatState& bs : hb.states()) n += bs.delivered;
  return n;
}

/// Per-cell figures gathered in a forked child, summed per worker.
struct WorkerStats {
  std::vector<std::uint64_t> cell_ns;
  std::uint64_t last_end_ns{0};
  std::uint64_t advances{0};
  std::uint64_t allocs{0};
  std::uint64_t delivered{0};
  std::uint64_t polled{0};
};

/// The donor's counters at capture time: cells report deltas past it.
struct DonorMark {
  std::uint64_t advances{0};
  std::uint64_t delivered{0};
  std::uint64_t polled{0};
};

/// Owned by a forked child for the duration of one batch.
struct BatchSink {
  DonorMark donor;
  std::mutex mu;  // guards workers
  std::vector<std::unique_ptr<WorkerStats>> workers;

  WorkerStats& local() {
    thread_local WorkerStats* ws = nullptr;
    if (ws == nullptr) {
      std::lock_guard<std::mutex> lock(mu);
      workers.push_back(std::make_unique<WorkerStats>());
      ws = workers.back().get();
    }
    return *ws;
  }
};

/// Rebinds the replay workload to each hydrated machine. A server cell
/// spans from the factory call to the end of collect(); that interval
/// is the traced unit.
class CellHarness final : public ss::ScenarioHarness {
 public:
  CellHarness(hwsim::Machine& m, Cycles period, BatchSink* sink)
      : m_(m), sink_(sink), start_ns_(now_ns()) {
    if (sink_ != nullptr) cell_.emplace(Layer::kScenarioCell, /*unit=*/true);
    Span factory(Layer::kScenarioFactory);
    workload_ = std::make_unique<Replay>(m, period);
  }

  void collect(std::vector<std::pair<std::string, double>>& out) override {
    (void)out;
    if (sink_ == nullptr) return;
    {
      Span span(Layer::kScenarioCollect);
      WorkerStats& ws = sink_->local();
      ws.advances += m_.total_advances() - sink_->donor.advances;
      ws.allocs += m_.hot_path_allocs();
      ws.delivered += delivered(workload_->hb()) - sink_->donor.delivered;
      ws.polled += workload_->hb().polled_beats() - sink_->donor.polled;
    }
    cell_.reset();
    // Host time of the cell on its worker: since the worker's previous
    // cell finished (construction, hydration, run, digest, record), or
    // since the factory call for a worker's first cell.
    WorkerStats& ws = sink_->local();
    const std::uint64_t end = now_ns();
    ws.cell_ns.push_back(end - (ws.last_end_ns != 0 ? ws.last_end_ns
                                                    : start_ns_));
    ws.last_end_ns = end;
  }

 private:
  hwsim::Machine& m_;
  BatchSink* sink_;
  std::uint64_t start_ns_;
  std::optional<Span> cell_;
  std::unique_ptr<Replay> workload_;
};

/// What a batch child reports.
struct BatchOutcome {
  bool ok{false};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;  // id, digest
  std::vector<std::pair<std::uint64_t, std::uint64_t>> probes;   // id, digest
  std::vector<std::vector<std::uint64_t>> cell_ns;  // per worker
  std::uint64_t wall_ns{0};
  std::uint64_t arena_high_water{0};
  std::uint64_t advances{0};
  std::uint64_t allocs{0};
  std::uint64_t delivered{0};
  std::uint64_t polled{0};
  std::uint64_t probe_advances{0};
};

bool write_all(int fd, const std::vector<std::uint64_t>& words) {
  const auto* p = reinterpret_cast<const char*>(words.data());
  std::size_t left = words.size() * sizeof(std::uint64_t);
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

class Scenario final : public Workload {
 public:
  Scenario(const Options& o, Reference& ref)
      : ref_(ref), workers_(bench_threads()), inject_abort_(o.inject_abort) {
    base_.num_cores = kCores;
    base_.seed = 42;
    base_.max_advances = 4'000'000'000ULL;
    period_ = base_.costs.freq.us_to_cycles(20.0);
    warm_ = kWarmPeriods * period_;

    const double drops[] = {0.0, 0.01, 0.05, 0.10, 0.20};
    const Cycles delays[] = {0, 7'000, 14'000};
    const double dups[] = {0.0, 0.05, 0.10};
    std::uint64_t st = o.seed;
    std::vector<std::uint64_t> fault_seeds(kFaultSeeds);
    for (std::uint64_t& s : fault_seeds) s = splitmix(st);
    std::uint64_t id = 0;
    for (const double drop : drops) {
      for (const Cycles delay : delays) {
        for (const double dup : dups) {
          for (const std::uint64_t fs : fault_seeds) {
            ss::ScenarioSpec s;
            s.id = id;
            s.group = id;
            ++id;
            s.plan.enabled = drop > 0.0 || delay > 0 || dup > 0.0;
            s.plan.ipi_drop_rate = drop;
            s.plan.ipi_delay_rate = delay > 0 ? 0.25 : 0.0;
            s.plan.ipi_delay_max = delay;
            s.plan.ipi_dup_rate = dup;
            s.fault_seed = fs;
            s.horizon = warm_ + kWindowPeriods * period_;
            specs_.push_back(std::move(s));
          }
        }
      }
    }
  }

  [[nodiscard]] unsigned threads() const override { return workers_; }
  [[nodiscard]] unsigned workers() const override { return workers_; }

  void run_pass(std::uint64_t deadline_ns, RunStats& stats) override {
    (void)deadline_ns;  // one batch per pass
    const std::uint64_t t0 = now_ns();
    ss::ScenarioBatch batch = make_batch();
    stats.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    std::vector<ss::ScenarioSpec> specs = specs_;
    if (inject_abort_ && passes_ == 1) {
      // Self-test: a horizon before the warm image makes the server
      // assert, which must fail this batch's cells and nothing else.
      for (ss::ScenarioSpec& s : specs) s.horizon = warm_;
    }
    const bool traced = Tracer::get() != nullptr;
    const BatchOutcome out =
        run_batch(batch, std::move(specs), workers_, traced ? kProbeCells : 0);
    ++passes_;

    stats.attempted += specs_.size();
    if (!out.ok) {
      stats.failed += specs_.size();
      return;
    }
    std::vector<bool> good(specs_.size(), false);
    for (const auto& [id, digest] : out.digests) {
      if (id < good.size()) good[id] = ref_.check(cell_key(id), digest);
    }
    for (const auto& [id, digest] : out.probes) {
      // The probe hydrated the cell on one thread, call by call.
      std::uint64_t want = 0;
      if (id < good.size() && (!ref_.lookup(cell_key(id), &want) ||
                               want != digest)) {
        good[id] = false;
      }
    }
    stats.failed += static_cast<std::uint64_t>(
        std::count(good.begin(), good.end(), false));
    for (const std::vector<std::uint64_t>& worker : out.cell_ns) {
      std::vector<double> unit_s;
      for (const std::uint64_t ns : worker) {
        unit_s.push_back(static_cast<double>(ns) / 1e9);
      }
      stats.unit_s.insert(stats.unit_s.end(), unit_s.begin(), unit_s.end());
      add_lane(stats, unit_s);
    }
    stats.units_wall_s += static_cast<double>(out.wall_ns) / 1e9;
    stats.events += out.advances;
    if (!traced) return;
    c_.advances += out.advances;
    c_.allocs += out.allocs;
    c_.delivered += out.delivered;
    c_.polled += out.polled;
    c_.batch_wall_ns += out.wall_ns;
    c_.probe_advances += out.probe_advances;
    c_.probes += out.probes.size();
    c_.arena_high_water = std::max(c_.arena_high_water, out.arena_high_water);
  }

  bool cross_check(std::string* why) override {
    // The first cells again on one worker instead of the pool.
    const ss::ScenarioBatch batch = make_batch();
    const std::size_t n = std::min(kCrossCells, specs_.size());
    const std::vector<ss::ScenarioSpec> specs(specs_.begin(),
                                              specs_.begin() + n);
    const BatchOutcome out = run_batch(batch, specs, 1, 0);
    if (!out.ok || out.digests.size() != n) {
      *why = "single-worker batch did not complete";
      return false;
    }
    for (const auto& [id, digest] : out.digests) {
      if (!ref_.check(cell_key(id), digest)) {
        *why = "cell " + std::to_string(id) +
               " digests differently on one worker";
        return false;
      }
    }
    return true;
  }

  void layer_metrics(Metrics& out) const override {
    const Tracer* t = Tracer::owned();
    put(out, "hwsim.advances", static_cast<double>(c_.advances), "count");
    put(out, "hwsim.allocs_per_mevent",
        c_.advances > 0 ? static_cast<double>(c_.allocs) /
                              (static_cast<double>(c_.advances) / 1e6)
                        : 0.0,
        "count/Mevent");
    if (t != nullptr && c_.probes > 0) {
      // run_until is timed on the probe cells only.
      const LayerTotals run = t->totals(Layer::kHwsimRun);
      const auto probes = static_cast<double>(c_.probes);
      put(out, "hwsim.run.busy_s",
          static_cast<double>(run.busy_ns) / 1e9 / probes, "s/unit");
      put(out, "hwsim.run.self_s",
          static_cast<double>(run.self_ns) / 1e9 / probes, "s/unit");
      put(out, "hwsim.ns_per_event",
          static_cast<double>(run.self_ns) /
              static_cast<double>(c_.probe_advances),
          "ns");
    }
    put(out, "heartbeat.delivered", static_cast<double>(c_.delivered),
        "count");
    put(out, "heartbeat.polled_beats", static_cast<double>(c_.polled),
        "count");
    put(out, "scenarioserver.arena_high_water",
        static_cast<double>(c_.arena_high_water), "bytes");
    if (t != nullptr && c_.batch_wall_ns > 0) {
      put(out, "scenarioserver.worker_busy_frac",
          static_cast<double>(t->totals(Layer::kScenarioCell).busy_ns) /
              (static_cast<double>(workers_) *
               static_cast<double>(c_.batch_wall_ns)),
          "ratio");
    }
  }

 private:
  struct Counters {
    std::uint64_t advances{0};
    std::uint64_t allocs{0};
    std::uint64_t delivered{0};
    std::uint64_t polled{0};
    std::uint64_t batch_wall_ns{0};
    std::uint64_t probe_advances{0};
    std::uint64_t probes{0};
    std::uint64_t arena_high_water{0};
  };

  static std::string cell_key(std::uint64_t id) {
    return "cell." + std::to_string(id);
  }

  /// Set-up: warm the donor and serialize its image.
  ss::ScenarioBatch make_batch() {
    ss::ScenarioBatch batch;
    batch.base = base_;
    {
      hwsim::Machine donor(base_);
      Replay w(donor, period_);
      if (!donor.run_until(warm_)) return batch;  // empty image: batch fails
      donor_.advances = donor.total_advances();
      donor_.delivered = delivered(w.hb());
      donor_.polled = w.hb().polled_beats();
      batch.image = donor.snapshot().serialize();
    }
    const Cycles period = period_;
    batch.factory = [period](hwsim::Machine& m) {
      return std::make_unique<CellHarness>(m, period, active_sink());
    };
    return batch;
  }

  static BatchSink*& active_sink() {
    static BatchSink* sink = nullptr;
    return sink;
  }

  BatchOutcome run_batch(const ss::ScenarioBatch& batch,
                         std::vector<ss::ScenarioSpec> specs,
                         unsigned workers, std::size_t probes) {
    BatchOutcome out;
    if (batch.image.empty()) return out;
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (::pipe(fds) != 0) return out;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return out;
    }
    if (pid == 0) {
      ::close(fds[0]);
      const rlimit no_core{0, 0};
      ::setrlimit(RLIMIT_CORE, &no_core);
      std::vector<std::uint64_t> words;
      child(batch, std::move(specs), workers, probes, words);
      ::_exit(write_all(fds[1], words) ? 0 : 3);
    }
    ::close(fds[1]);
    std::vector<std::uint64_t> words;
    const bool read_ok = read_words(fds[0], words);
    ::close(fds[0]);
    if (!read_ok) ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "perfbench: scenario batch failed (%s %d)\n",
                   WIFSIGNALED(status) ? "signal" : "exit",
                   WIFSIGNALED(status) ? WTERMSIG(status)
                                       : WEXITSTATUS(status));
      return out;
    }
    out.ok = parse(words, out);
    return out;
  }

  /// Runs in the forked child: the batch, the probe cells, the reply.
  void child(const ss::ScenarioBatch& batch,
             std::vector<ss::ScenarioSpec> specs, unsigned workers,
             std::size_t probes, std::vector<std::uint64_t>& words) {
    Tracer* tracer = Tracer::get();
    if (tracer != nullptr) tracer->reset();
    BatchSink sink;
    sink.donor = donor_;
    active_sink() = &sink;

    const std::vector<ss::ScenarioSpec> probe_specs(
        specs.begin(), specs.begin() + std::min(probes, specs.size()));
    ss::ScenarioServer server(ss::ScenarioServerConfig{workers});
    const std::uint64_t t0 = now_ns();
    ss::ResultsStore results;
    {
      Span span(Layer::kScenarioRun);
      results = server.run(batch, std::move(specs));
    }
    const std::uint64_t wall = now_ns() - t0;
    active_sink() = nullptr;

    words.push_back(kMagic);
    words.push_back(results.size());
    for (const auto& e : results.entries()) {
      words.push_back(e.id);
      words.push_back(e.digest);
    }
    words.push_back(wall);
    words.push_back(server.arena_high_water());
    std::uint64_t adv = 0, allocs = 0, deliv = 0, polled = 0;
    for (const auto& ws : sink.workers) {
      adv += ws->advances;
      allocs += ws->allocs;
      deliv += ws->delivered;
      polled += ws->polled;
    }
    words.insert(words.end(),
                 {adv, allocs, deliv, polled, sink.workers.size()});
    for (const auto& ws : sink.workers) {
      words.push_back(ws->cell_ns.size());
      words.insert(words.end(), ws->cell_ns.begin(), ws->cell_ns.end());
    }

    std::uint64_t probe_adv = 0;
    words.push_back(probe_specs.size());
    for (const ss::ScenarioSpec& spec : probe_specs) {
      words.push_back(spec.id);
      words.push_back(probe(batch, spec, &probe_adv));
    }
    words.push_back(probe_adv);
    if (tracer != nullptr) tracer->serialize(words);
  }

  /// One cell the way the server runs it, each hwsim call in its span.
  std::uint64_t probe(const ss::ScenarioBatch& batch,
                      const ss::ScenarioSpec& spec, std::uint64_t* advances) {
    std::unique_ptr<hwsim::Snapshot> warm;
    {
      Span span(Layer::kSnapshotDeserialize);
      warm = std::make_unique<hwsim::Snapshot>(
          hwsim::Snapshot::deserialize(batch.image));
    }
    std::unique_ptr<hwsim::Machine> m;
    {
      Span span(Layer::kHwsimConstruct);
      m = std::make_unique<hwsim::Machine>(batch.base);
    }
    // The harness constructor opens the factory span itself.
    const auto harness = std::make_unique<CellHarness>(*m, period_, nullptr);
    {
      Span span(Layer::kSnapshotRestore);
      m->restore(*warm);
    }
    {
      Span span(Layer::kInstallFaultPlan);
      m->install_fault_plan(spec.plan, spec.fault_seed);
    }
    bool ok = false;
    {
      Span span(Layer::kHwsimRun);
      ok = m->run_until(spec.horizon);
    }
    *advances += m->total_advances() - donor_.advances;
    Span span(Layer::kSnapshotDigest);
    return ok ? m->snapshot().digest() : 0;
  }

  static bool read_words(int fd, std::vector<std::uint64_t>& words) {
    std::vector<char> bytes;
    char buf[1 << 16];
    const std::uint64_t deadline = now_ns() + kBatchTimeoutMs * 1'000'000ULL;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= deadline) return false;
      pollfd p{fd, POLLIN, 0};
      const int r =
          ::poll(&p, 1, static_cast<int>((deadline - now) / 1'000'000 + 1));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return false;
      if (n == 0) break;
      bytes.insert(bytes.end(), buf, buf + n);
    }
    if (bytes.size() % sizeof(std::uint64_t) != 0) return false;
    words.resize(bytes.size() / sizeof(std::uint64_t));
    std::copy(bytes.begin(), bytes.end(),
              reinterpret_cast<char*>(words.data()));
    return true;
  }

  static bool parse(const std::vector<std::uint64_t>& w, BatchOutcome& out) {
    std::size_t i = 0;
    auto take = [&](std::uint64_t* v) {
      if (i >= w.size()) return false;
      *v = w[i++];
      return true;
    };
    std::uint64_t magic = 0, n = 0;
    if (!take(&magic) || magic != kMagic || !take(&n) || n > w.size()) {
      return false;
    }
    for (std::uint64_t k = 0; k < n; ++k) {
      std::uint64_t id = 0, digest = 0;
      if (!take(&id) || !take(&digest)) return false;
      out.digests.emplace_back(id, digest);
    }
    std::uint64_t workers = 0;
    if (!take(&out.wall_ns) || !take(&out.arena_high_water) ||
        !take(&out.advances) || !take(&out.allocs) || !take(&out.delivered) ||
        !take(&out.polled) || !take(&workers) || workers > w.size()) {
      return false;
    }
    for (std::uint64_t k = 0; k < workers; ++k) {
      std::uint64_t cells = 0;
      if (!take(&cells) || cells > w.size() - i) return false;
      out.cell_ns.emplace_back(
          w.begin() + static_cast<std::ptrdiff_t>(i),
          w.begin() + static_cast<std::ptrdiff_t>(i + cells));
      i += cells;
    }
    std::uint64_t probes = 0;
    if (!take(&probes) || probes > w.size()) return false;
    for (std::uint64_t k = 0; k < probes; ++k) {
      std::uint64_t id = 0, digest = 0;
      if (!take(&id) || !take(&digest)) return false;
      out.probes.emplace_back(id, digest);
    }
    if (!take(&out.probe_advances)) return false;
    if (Tracer* t = Tracer::get()) {
      std::size_t used = 0;
      if (!t->merge(w.data() + i, w.size() - i, &used)) return false;
      i += used;
    }
    return i == w.size();
  }

  Reference& ref_;
  unsigned workers_;
  bool inject_abort_;
  hwsim::MachineConfig base_;
  Cycles period_{0};
  Cycles warm_{0};
  std::vector<ss::ScenarioSpec> specs_;
  DonorMark donor_;
  unsigned passes_{0};
  Counters c_;
};

}  // namespace

std::unique_ptr<Workload> make_scenario(const Options& o, Reference& ref) {
  return std::make_unique<Scenario>(o, ref);
}

}  // namespace perfbench
