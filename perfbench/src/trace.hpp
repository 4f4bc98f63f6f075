// Host-time span tracer for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a simulator layer in a
// Span: layer, start, end, parent, unit id. Spans live in per-thread
// buffers in memory; at exit the run writes them as a Chrome trace plus
// a per-layer summary. Every span also feeds per-layer aggregates:
//
//   busy  = summed span durations (inclusive of child spans),
//   self  = duration minus the time child spans on the same host thread
//           cover (a span's children are the spans opened while it was
//           the innermost open span on that thread),
//   count = calls.
//
// A span marked as a unit is the root of one benchmark unit. When it
// closes, its own self time (the untraced remainder) plus the self
// times of every span nested in it must add up to its wall time; the
// largest relative error over all units is reported.
//
// Spans opened on a thread with no open span (the parallel engine's
// pool threads running driver steps) are roots of their own: their
// time counts toward their layer's busy and self time but not toward
// any unit's accounting, which stays on the unit's own thread.
//
// Tracing is off unless a tracer was created and set active; a disabled
// Span costs one load and branch. Sampled spans time one call in `every` and weight it
// by `every`; they must be leaves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kUnit,
  kHwsimRun,
  kHwsimBroadcastIpi,
  kWorkloadsStep,
  kWorkloadsHandler,
  kHeartbeatPoll,
  kCoherenceStep,
  kCoherenceHandoff,
  kScenarioRun,
  kScenarioCell,
  kScenarioFactory,
  kScenarioCollect,
  kHwsimConstruct,
  kSnapshotDeserialize,
  kSnapshotRestore,
  kInstallFaultPlan,
  kSnapshotDigest,
  kOmpLinux,
  kOmpRtk,
  kOmpPik,
  kOmpCck,
  kCount
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer l);

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct LayerTotals {
  std::int64_t busy_ns{0};
  std::int64_t self_ns{0};
  std::uint64_t count{0};
};

struct SpanRecord {
  std::uint64_t start_ns{0};
  std::uint64_t dur_ns{0};
  std::uint64_t id{0};
  std::uint64_t parent{0};  // 0 = no parent on this thread
  std::uint32_t unit{0};
  std::uint16_t thread{0};
  Layer layer{Layer::kUnit};
};

struct UnitTotals {
  std::uint64_t units{0};
  std::int64_t wall_ns{0};
  std::int64_t remainder_ns{0};  // unit spans' own self time
  double max_sum_error{0.0};     // |sum of self times - wall| / wall
};

class Tracer {
 public:
  /// Create the process's tracer (inactive). Keeps at most `span_cap`
  /// span records for the Chrome trace; aggregates cover every span
  /// regardless.
  static void enable(std::size_t span_cap);
  /// Record spans from now on, or stop. Toggle only while no span is
  /// open on any thread.
  static void set_active(bool on) {
    instance_.store(on ? owned_ : nullptr, std::memory_order_release);
  }
  /// The tracer whether or not it is recording (null before enable()).
  [[nodiscard]] static Tracer* owned() { return owned_; }
  [[nodiscard]] static Tracer* get() {
    return instance_.load(std::memory_order_relaxed);
  }

  /// Drop everything recorded so far (aggregates, samples, spans): a
  /// forked child starts from zero and reports only its own spans.
  void reset();

  [[nodiscard]] LayerTotals totals(Layer l) const;
  /// Durations of every span of `l` (kept for the layers whose medians
  /// are reported: per-cell and per-run spans, not the hot ones).
  [[nodiscard]] std::vector<std::uint64_t> samples(Layer l) const;
  [[nodiscard]] UnitTotals unit_totals() const;
  /// Clock-read cost subtracted from every span duration.
  [[nodiscard]] std::uint64_t floor_ns() const { return floor_ns_; }

  /// Flatten everything recorded into words (for a forked child to
  /// ship to its parent) and merge such words back.
  void serialize(std::vector<std::uint64_t>& out) const;
  bool merge(const std::uint64_t* words, std::size_t n, std::size_t* used);

  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Span;
  struct Frame;
  struct ThreadBuf;

  explicit Tracer(std::size_t span_cap);
  ThreadBuf& thread_buf();
  void open(ThreadBuf& b, Layer l, bool unit, std::uint32_t weight);
  void close(ThreadBuf& b);

  static std::atomic<Tracer*> instance_;  // null while not recording
  static Tracer* owned_;
  static thread_local ThreadBuf* tl_buf_;

  std::size_t span_cap_;
  std::atomic<std::size_t> spans_kept_{0};
  std::atomic<std::uint32_t> next_unit_{1};
  std::atomic<std::uint32_t> active_unit_{0};
  std::uint64_t floor_ns_{0};
  mutable std::mutex mu_;  // guards bufs_ (registration and reads)
  std::vector<ThreadBuf*> bufs_;
  // Merged from forked children.
  LayerTotals merged_totals_[kLayers];
  std::vector<std::uint64_t> merged_samples_[kLayers];
  std::vector<SpanRecord> merged_spans_;
  UnitTotals merged_units_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(Layer l, bool unit = false) {
    if (Tracer* t = Tracer::get()) begin(t, l, unit, 1);
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close early (spans that end in another callback than they begin).
  void end();

 protected:
  Span() = default;
  void begin(Tracer* t, Layer l, bool unit, std::uint32_t weight);

 private:
  Tracer* tracer_{nullptr};
  Tracer::ThreadBuf* buf_{nullptr};
};

/// Times one call in `every` on the calling thread, weighted by
/// `every`: for layers whose per-call cost is near the clock's own.
class SampledSpan : public Span {
 public:
  SampledSpan(Layer l, std::uint32_t every) {
    if (Tracer* t = Tracer::get()) {
      thread_local std::uint32_t tick = 0;
      if (++tick >= every) {
        tick = 0;
        begin(t, l, false, every);
      }
    }
  }
};

}  // namespace perfbench
