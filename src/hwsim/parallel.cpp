// kParallelEpoch: epoch-synchronized conservative parallel DES.
//
// Why the result is bit-identical to the sequential schedulers:
//
//  * Lookahead. Every cross-core interaction goes through the IPI
//    fabric and pays at least cfg.costs.ipi_latency (L) cycles; fault
//    plans only ever ADD latency (delay, duplicate lag). An epoch
//    starting at E = min next-action time therefore cannot deliver any
//    cross-core effect before E + L, so all events strictly before the
//    horizon H = min(E + L, machine-queue head, run target) are
//    shard-local: each core's drain up to H is exactly the sequence of
//    picks the sequential loop would have made for that core, in the
//    same order.
//  * Provenance sequencing. Event sequence numbers are
//    (per-source counter << 16) | source, and fault RNG draws come from
//    per-source streams, both drawn eagerly in the acting context — so
//    neither depends on how contexts interleave across epochs or host
//    threads. An inbox's pop order for same-time events is a pure
//    function of its contents.
//  * Deterministic merge. Buffered IPIs are staged in fixed-capacity
//    atomic outbox slots (IpiOutbox) and flushed at the barrier; every
//    delivery's (time, seq) key was fixed at send time, seqs are
//    unique, and all arrivals are at/past H, so neither the racy
//    slot-claim order nor the flush order can affect any pop the
//    target performs afterwards (a min-heap pops a totally-ordered set
//    in sorted order regardless of insertion history).
//  * Coordinator-owned machine queue. Machine-level callbacks run with
//    all shards parked, at exactly the points the sequential loop would
//    run them (the queue head bounds the horizon, and the queue wins
//    time ties, matching the seed scheduler).
//  * Work stealing moves nothing observable. The deques assign each
//    chunk of contiguous shards to exactly one claimant per epoch
//    (Chase–Lev take/steal are mutually exclusive), and a shard's drain
//    writes only core-keyed state: its claimed outbox slots, its
//    scratch registry, its per-core trace buffer, and its own
//    per-source sequence and fault RNG counters. The barrier merges all
//    of those deterministically.
//    So WHICH host thread drained a shard — the only thing stealing
//    and the chunk size change — is invisible to traces, metrics, and
//    machine state.
//  * Reduced epoch minimum. The next epoch start is the minimum of the
//    per-thread drain tallies and the merge targets' next actions (see
//    parallel_run_per_core), and min/max/sum folds do not depend on
//    which thread drained which core, so the barriers fall at the same
//    times as with a full scan.
//
// ShardPolicy::kSingleGroup keeps the same epoch structure but drains
// the one shard with the sequential pick loop itself — safe for
// workloads that mutate other cores' state directly, and trivially
// bit-identical.
#include "hwsim/parallel.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace iw::hwsim {

namespace {

/// Brief spin before yielding: keeps epoch handoff latency low on idle
/// multi-core hosts without live-locking oversubscribed ones (CI
/// containers may give the whole pool a single CPU).
constexpr int kSpinsBeforeYield = 200;

}  // namespace

ParallelEngine::ParallelEngine(Machine& machine, unsigned threads,
                               bool steal)
    : machine_(machine),
      steal_enabled_(steal),
      // Size the arena so the outbox carve (slot blocks + padded claim
      // counters) fits one block; the build is then exactly one heap
      // allocation, reused for the pool's lifetime.
      arena_(std::max<std::size_t>(
          std::size_t{1} << 16,
          sizeof(IrqEvent) * std::size_t{machine.num_cores()} *
                  IpiOutbox::kSlotsPerTarget +
              sizeof(IpiOutbox::Counter) *
                  (std::size_t{machine.num_cores()} + 1))) {
  const unsigned cores = machine.num_cores();
  threads_ = std::max(1u, std::min(threads, cores));
  lanes_.resize(cores);
  outbox_.configure(arena_, cores);
  chunk_ = std::clamp(cores / (threads_ * 16), 1u, 32u);
  num_chunks_ = (cores + chunk_ - 1) / chunk_;
  deques_ = std::make_unique<ShardDeque[]>(threads_);
  tallies_ = std::make_unique<TallySlot[]>(threads_);
  workers_.reserve(threads_ - 1);
  for (unsigned b = 1; b < threads_; ++b) {
    workers_.emplace_back([this, b] { worker_main(b); });
  }
}

ParallelEngine::~ParallelEngine() {
  shutdown_.store(true, std::memory_order_relaxed);
  for (auto& w : workers_) w.join();
}

void ParallelEngine::set_scratch_enabled(bool on) {
  for (auto& lane : lanes_) {
    if (on && lane.scratch == nullptr) {
      lane.scratch = std::make_unique<obs::MetricsRegistry>();
    } else if (!on) {
      lane.scratch.reset();
    }
  }
}

bool ParallelEngine::drain_core(unsigned core, Cycles horizon,
                                EpochTally* tally) {
  Core& c = machine_.core(core);
  Lane& lane = lanes_[core];
  Machine::ExecScope scope(machine_, core + 1, lane.scratch.get(),
                           &outbox_);
  Cycles next;
  if (budget_limit_ == 0) {
    // Hot path: the fused per-core drain (one runnable()/peek pass per
    // advance instead of a separate wake-time recompute + dispatch),
    // which hands back the next action time its exit test computed.
    const Core::Drained d = c.drain_until(horizon);
    tally->advances += d.advances;
    next = d.next;
  } else {
    // Watchdog-bounded epoch: claim a budget slot before every advance.
    // fetch_add hands out at most budget_limit_ sub-limit slots across
    // all threads, so the epoch executes at most that many events no
    // matter how shards are distributed.
    while ((next = c.next_action_time_uncached()) < horizon) {
      if (budget_used_.fetch_add(1, std::memory_order_relaxed) >=
          budget_limit_) {
        tally->complete = false;
        break;
      }
      c.advance();
      ++tally->advances;
    }
  }
  tally->next = std::min(tally->next, next);
  tally->max_clock = std::max(tally->max_clock, c.clock());
  return tally->complete;
}

bool ParallelEngine::drain_chunk(unsigned chunk, Cycles horizon,
                                 EpochTally* tally) {
  const unsigned lo = chunk * chunk_;
  const unsigned hi = std::min(lo + chunk_, machine_.num_cores());
  for (unsigned core = lo; core < hi; ++core) {
    if (!drain_core(core, horizon, tally)) return false;
  }
  return true;
}

void ParallelEngine::drain_pool(unsigned self, Cycles horizon) {
  // The tally accumulates thread-locally and publishes once per epoch:
  // its sum/min/max folds are independent of which thread drained
  // which chunk.
  EpochTally tally;
  bool budget_out = false;
  // Own block first (locality: a thread re-touches the same cores every
  // epoch while the load is balanced).
  ShardDeque& own = deques_[self];
  for (;;) {
    const int s = own.take();
    if (s < 0) break;
    if (!drain_chunk(static_cast<unsigned>(s), horizon, &tally)) {
      budget_out = true;
      break;
    }
  }
  if (steal_enabled_ && !budget_out) {
    // Steal sweep: keep claiming from any victim that still has chunks;
    // finish only after a full sweep that neither claimed a chunk nor
    // lost a race (a lost race means someone else claimed — re-sweep so
    // no chunk is left behind).
    for (;;) {
      bool claimed = false;
      bool contended = false;
      for (unsigned k = 1; k < threads_ && !budget_out; ++k) {
        ShardDeque& victim = deques_[(self + k) % threads_];
        for (;;) {
          const int s = victim.steal();
          if (s == ShardDeque::kEmpty) break;
          if (s == ShardDeque::kAbort) {
            contended = true;
            break;
          }
          steals_.fetch_add(1, std::memory_order_relaxed);
          claimed = true;
          if (!drain_chunk(static_cast<unsigned>(s), horizon, &tally)) {
            budget_out = true;
            break;
          }
        }
      }
      if (budget_out || (!claimed && !contended)) break;
    }
  }
  tallies_[self].v = tally;
}

void ParallelEngine::worker_main(unsigned self) {
  std::uint64_t last_epoch = 0;
  for (;;) {
    std::uint64_t e;
    int spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == last_epoch) {
      if (shutdown_.load(std::memory_order_relaxed)) return;
      if (++spins > kSpinsBeforeYield) std::this_thread::yield();
    }
    last_epoch = e;
    drain_pool(self, horizon_);
    done_.fetch_add(1, std::memory_order_release);
  }
}

ParallelEngine::EpochTally ParallelEngine::drain_epoch(
    Cycles horizon, std::uint64_t max_advances) {
  budget_limit_ = max_advances;
  budget_used_.store(0, std::memory_order_relaxed);
  if (threads_ == 1) {
    // Threadless path: the coordinator drains every shard itself — no
    // deques, no barrier, still the same shard-local event order.
    EpochTally tally;
    for (unsigned i = 0; i < machine_.num_cores(); ++i) {
      if (!drain_core(i, horizon, &tally)) break;
    }
    return tally;
  }
  // Seed the deques with a static block partition of the chunks;
  // stealing rebalances from there. Workers are parked (previous epoch
  // fully acked), and the release-store of epoch_ below publishes the
  // reset before any worker claims.
  const unsigned base = num_chunks_ / threads_;
  const unsigned rem = num_chunks_ % threads_;
  for (unsigned b = 0; b < threads_; ++b) {
    const unsigned lo = b * base + std::min(b, rem);
    deques_[b].reset(lo, base + (b < rem ? 1 : 0));
  }
  horizon_ = horizon;
  ++epochs_issued_;
  epoch_.store(epochs_issued_, std::memory_order_release);
  drain_pool(0, horizon);
  const std::uint64_t expect = epochs_issued_ * (threads_ - 1);
  int spins = 0;
  while (done_.load(std::memory_order_acquire) != expect) {
    if (++spins > kSpinsBeforeYield) std::this_thread::yield();
  }
  // The done_ acquire above ordered every worker's tally slot write
  // before these reads (and the epoch is over, so no thread is writing).
  EpochTally tally = tallies_[0].v;
  for (unsigned b = 1; b < threads_; ++b) tally.fold(tallies_[b].v);
  return tally;
}

Cycles ParallelEngine::merge_outboxes() {
  // Target-id order, claim order within a lane — both unobservable (see
  // IpiOutbox in parallel.hpp). The coordinator has no outbox in scope
  // here, so enqueue_ipi pushes straight into the target inboxes. O(1)
  // when the epoch staged nothing. Adding an event never raises a
  // core's next action time, so the minimum over per-delivery
  // recomputes equals the minimum over the targets' final times.
  Cycles next = kNever;
  outbox_.drain([this, &next](CoreId to, const IrqEvent& ev) {
    machine_.enqueue_ipi(to, ev);
    next = std::min(next, machine_.core(to).next_action_time_uncached());
  });
  return next;
}

void ParallelEngine::merge_scratch_metrics(obs::MetricsRegistry* into) {
  for (auto& lane : lanes_) {
    if (lane.scratch == nullptr) continue;
    if (into != nullptr) into->merge_from(*lane.scratch);
    lane.scratch->clear();
  }
}

bool Machine::parallel_run(const std::function<bool()>& stop, Cycles until) {
  return cfg_.shard_policy == ShardPolicy::kPerCore
             ? parallel_run_per_core(stop, until)
             : parallel_run_single_group(stop, until);
}

bool Machine::parallel_run_single_group(const std::function<bool()>& stop,
                                        Cycles until) {
  const Cycles la = std::max<Cycles>(1, lookahead());
  const bool time_watchdog = cfg_.max_time != 0;
  const bool advance_watchdog = cfg_.max_advances != 0;
  // Fast-forward target: between epochs the coordinator may take an
  // analytic stride over a proven-quiet span. Unlike an epoch, the
  // stride is NOT bounded by the lookahead — inert steps post nothing,
  // so no cross-core effect exists for the lookahead to order.
  Cycles ff_want = until;
  if (time_watchdog) {
    ff_want = std::min(ff_want, saturating_add(cfg_.max_time, 1));
  }
  for (;;) {
    if (stop && stop()) return true;
    if (cfg_.fast_forward.enabled && try_fast_forward(ff_want)) continue;
    const Pick first = linear_peek();
    if (first.time == kNever || first.time >= until) return true;
    const Cycles horizon = std::min(until, saturating_add(first.time, la));
    // One shard: the sequential pick loop, chunked by the horizon. The
    // machine queue participates directly (linear_peek gives it time
    // ties), so this is the sequential schedule verbatim.
    for (;;) {
      if (stop && stop()) return true;
      if (time_watchdog && now() > cfg_.max_time) {
        IW_LOG_WARN("machine watchdog: virtual time limit %llu exceeded",
                    static_cast<unsigned long long>(cfg_.max_time));
        return false;
      }
      if (advance_watchdog && advances_ > cfg_.max_advances) {
        IW_LOG_WARN("machine watchdog: advance limit exceeded");
        return false;
      }
      const Pick p = linear_peek();
      if (p.time >= horizon) break;  // epoch exhausted
      execute(p);
    }
  }
}

bool Machine::parallel_run_per_core(const std::function<bool()>& stop,
                                    Cycles until) {
  IW_ASSERT_MSG(cfg_.costs.ipi_latency >= 1,
                "per-core parallel mode needs a nonzero IPI latency for "
                "its lookahead bound");
  // (Re)build the worker pool when the requested shape changed: the
  // thread count and steal mode may be reconfigured between runs
  // (set_threads / set_work_stealing), and silently reusing the old
  // pool would pin the machine to a stale configuration.
  const unsigned want_threads =
      std::max(1u, std::min(cfg_.threads, num_cores()));
  if (parallel_ == nullptr || parallel_->threads() != want_threads ||
      parallel_->steal_enabled() != cfg_.work_stealing) {
    parallel_.reset();  // join the old pool before spawning the new one
    parallel_ = std::make_unique<ParallelEngine>(*this, cfg_.threads,
                                                 cfg_.work_stealing);
  }
  parallel_->set_scratch_enabled(metrics_ != nullptr);
  const Cycles la = lookahead();
  const bool time_watchdog = cfg_.max_time != 0;
  const bool advance_watchdog = cfg_.max_advances != 0;
  Cycles ff_want = until;
  if (time_watchdog) {
    ff_want = std::min(ff_want, saturating_add(cfg_.max_time, 1));
  }
  // The epoch minimum `e` and the frontier clock `clock_max` come from
  // the previous epoch's reduction: the per-thread tallies (every core
  // reports its next action time and clock at drain exit) plus the
  // targets merge_outboxes delivered to. Between a shard's drain exit
  // and the next epoch, only a merged delivery can change a core's next
  // action, and only a drain moves its clock. Wherever state changes
  // outside a shard drain, the O(cores) scan runs instead: at run entry
  // (callers may mutate drivers between runs), after a machine-queue
  // turn or a fast-forward commit, after an epoch the advance budget
  // cut short, and on every epoch when a stop predicate (which may
  // touch state) is set.
  // The scan also names the earliest core (lowest id on ties), which
  // the paranoid cross-check reports.
  const auto scan = [this] {
    std::pair<Cycles, unsigned> m{kNever, 0};
    for (unsigned i = 0; i < num_cores(); ++i) {
      const Cycles t = cores_[i]->next_action_time_uncached();
      if (t < m.first) m = {t, i};
    }
    return m;
  };
  bool rescan = true;
  Cycles e = kNever;
  Cycles clock_max = 0;
  per_core_drain_active_ = true;
  bool ok = true;
  for (;;) {
    // Stop predicate and watchdogs are barrier-granular in this mode.
    if (stop && stop()) break;
    if (rescan || stop) {
      e = scan().first;
      if (time_watchdog) clock_max = now();
      rescan = false;
    } else if (cfg_.paranoid_frontier) {
      // Paranoid cross-check of the per-thread reduction. A mismatch
      // means some core's next action moved outside its own shard drain
      // and the merge — typically a driver whose runnable() reads state
      // another core's context mutated.
      const auto [scanned, due] = scan();
      if (scanned != e) {
        char msg[192];
        std::snprintf(msg, sizeof msg,
                      "per-core epoch minimum diverged: the full scan finds "
                      "core %u due at %llu, the per-thread reduction says "
                      "%llu",
                      due, static_cast<unsigned long long>(scanned),
                      static_cast<unsigned long long>(e));
        IW_ASSERT_MSG(scanned == e, msg);
      }
    }
    if (time_watchdog && clock_max > cfg_.max_time) {
      IW_LOG_WARN("machine watchdog: virtual time limit %llu exceeded",
                  static_cast<unsigned long long>(cfg_.max_time));
      ok = false;
      break;
    }
    if (advance_watchdog && advances_ > cfg_.max_advances) {
      IW_LOG_WARN("machine watchdog: advance limit exceeded");
      ok = false;
      break;
    }
    // Analytic stride over a proven-quiet span: coordinator-only,
    // between epochs — every worker is parked (the previous epoch's
    // barrier acked) and all sender outboxes are merged, so the
    // coordinator owns every inbox and scheduling cache it reads. The
    // stride may exceed the lookahead: the skipped steps are certified
    // inert, so there is no cross-core effect for the lookahead bound
    // to order against.
    if (cfg_.fast_forward.enabled && try_fast_forward(ff_want)) {
      rescan = true;
      continue;
    }
    // Machine-queue turn (queue wins time ties, seed semantics): run
    // due machine events with every shard parked. They may post core
    // events or move clocks, so loop back to re-evaluate afterwards.
    Cycles mq_t = machine_queue_.peek_time();
    if (mq_t != kNever && mq_t < until && mq_t <= e) {
      ExecScope scope(*this, 0);
      ++advances_;
      Event ev = machine_queue_.pop();
      if (ev.sink != kNoSink) {
        event_sink(ev.sink)->on_machine_event(*this, ev.time, ev.payload);
      } else {
        machine_queue_.take_fn(ev.fn)();
      }
      rescan = true;
      continue;
    }
    if (e == kNever || e >= until) break;  // quiescent / target reached
    Cycles horizon = std::min({until, mq_t, saturating_add(e, la)});
    if (time_watchdog) {
      // Keep an epoch from sailing past the virtual-time budget: with
      // a large lookahead one unclamped epoch could advance every core
      // arbitrarily far beyond max_time before the barrier check. The
      // clamp changes only where the barriers fall, never which events
      // run, so results stay bit-identical. The max() keeps at least
      // the earliest event (at time e) eligible, guaranteeing progress
      // so the watchdog can observe the frontier crossing the limit.
      horizon = std::min(horizon, saturating_add(cfg_.max_time, 1));
      horizon = std::max(horizon, saturating_add(e, 1));
    }
    // Advance budget for this epoch: the watchdog fires at advances_ >
    // max_advances, so cap the epoch at the advances still allowed
    // (overshoot of at most one barrier's worth of in-flight claims
    // instead of an entire unbounded epoch). advances_ <= max here, so
    // the budget is always >= 1 and progress is guaranteed.
    std::uint64_t budget = 0;
    if (advance_watchdog) budget = cfg_.max_advances + 1 - advances_;
    const ParallelEngine::EpochTally tally =
        parallel_->drain_epoch(horizon, budget);
    advances_ += tally.advances;
    e = std::min(tally.next, parallel_->merge_outboxes());
    clock_max = std::max(clock_max, tally.max_clock);
    rescan = !tally.complete;
  }
  per_core_drain_active_ = false;
  parallel_->merge_scratch_metrics(metrics_);
  return ok;
}

}  // namespace iw::hwsim
