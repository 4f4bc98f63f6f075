#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

constexpr const char* kLayerNames[kLayers] = {
    "bench.unit",
    "hwsim.run",
    "hwsim.broadcast_ipi",
    "workloads.step",
    "workloads.handler",
    "heartbeat.poll",
    "coherence.step",
    "coherence.handoff",
    "scenarioserver.run",
    "scenarioserver.cell",
    "scenarioserver.factory",
    "scenarioserver.collect",
    "hwsim.construct",
    "hwsim.snapshot.deserialize",
    "hwsim.snapshot.restore",
    "hwsim.install_fault_plan",
    "hwsim.snapshot.digest",
    "omp.linux.run",
    "omp.rtk.run",
    "omp.pik.run",
    "omp.cck.run",
};

/// Layers called millions of times per run keep no per-call samples.
bool keeps_samples(Layer l) {
  switch (l) {
    case Layer::kHwsimBroadcastIpi:
    case Layer::kWorkloadsStep:
    case Layer::kWorkloadsHandler:
    case Layer::kHeartbeatPoll:
    case Layer::kCoherenceStep:
      return false;
    default:
      return true;
  }
}

constexpr std::uint64_t kWireMagic = 0x5045'5246'5452'4331ULL;  // "PERFTRC1"

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

double double_of(std::uint64_t b) {
  double d = 0.0;
  std::memcpy(&d, &b, sizeof d);
  return d;
}

}  // namespace

const char* layer_name(Layer l) {
  return kLayerNames[static_cast<std::size_t>(l)];
}

struct Tracer::Frame {
  std::uint64_t start{0};
  std::uint64_t id{0};
  std::uint64_t parent{0};
  std::int64_t child_ns{0};   // weighted durations of closed children
  std::int64_t desc_self{0};  // self time of every closed descendant
  std::uint32_t unit{0};
  std::uint32_t weight{1};
  Layer layer{Layer::kUnit};
  bool is_unit{false};
};

struct Tracer::ThreadBuf {
  std::uint16_t thread{0};
  std::uint64_t next_id{0};
  std::vector<Frame> stack;
  LayerTotals totals[kLayers];
  std::vector<std::uint64_t> samples[kLayers];
  std::vector<SpanRecord> spans;
  UnitTotals units;
};

std::atomic<Tracer*> Tracer::instance_{nullptr};
Tracer* Tracer::owned_ = nullptr;

thread_local Tracer::ThreadBuf* Tracer::tl_buf_ = nullptr;

Tracer::Tracer(std::size_t span_cap) : span_cap_(span_cap) {
  // The smallest back-to-back clock-read gap: what an empty span would
  // measure. Subtracted from every span so the clock's own cost lands in
  // the parent's self time instead of inflating the timed layer.
  std::uint64_t best = ~0ULL;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    best = std::min(best, b - a);
  }
  floor_ns_ = best;
}

void Tracer::enable(std::size_t span_cap) {
  // Lives until process exit: pool threads may still hold buffers.
  if (owned_ == nullptr) owned_ = new Tracer(span_cap);
}

Tracer::ThreadBuf& Tracer::thread_buf() {
  if (tl_buf_ == nullptr) {
    auto* b = new ThreadBuf();  // owned by bufs_ for the process lifetime
    b->stack.reserve(16);
    std::lock_guard<std::mutex> lock(mu_);
    b->thread = static_cast<std::uint16_t>(bufs_.size());
    bufs_.push_back(b);
    tl_buf_ = b;
  }
  return *tl_buf_;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadBuf* b : bufs_) {
    for (auto& t : b->totals) t = LayerTotals{};
    for (auto& s : b->samples) s.clear();
    b->spans.clear();
    b->units = UnitTotals{};
  }
  for (auto& t : merged_totals_) t = LayerTotals{};
  for (auto& s : merged_samples_) s.clear();
  merged_spans_.clear();
  merged_units_ = UnitTotals{};
  // spans_kept_ stays: the span cap is one budget for the process and
  // the forked children that report into it.
}

void Tracer::open(ThreadBuf& b, Layer l, bool unit, std::uint32_t weight) {
  Frame f;
  f.layer = l;
  f.is_unit = unit;
  f.weight = weight;
  f.id = (static_cast<std::uint64_t>(b.thread) << 48) | ++b.next_id;
  if (!b.stack.empty()) {
    f.parent = b.stack.back().id;
    f.unit = b.stack.back().unit;
  } else {
    f.unit = active_unit_.load(std::memory_order_relaxed);
  }
  if (unit) {
    f.unit = next_unit_.fetch_add(1, std::memory_order_relaxed);
    active_unit_.store(f.unit, std::memory_order_relaxed);
  }
  b.stack.push_back(f);
  b.stack.back().start = now_ns();  // last, so bookkeeping stays outside
}

void Tracer::close(ThreadBuf& b) {
  const std::uint64_t end = now_ns();
  const Frame f = b.stack.back();
  b.stack.pop_back();
  const auto raw = static_cast<std::int64_t>(end - f.start);
  const auto floor = static_cast<std::int64_t>(floor_ns_);
  const std::int64_t dur = raw > floor ? raw - floor : 0;
  const std::int64_t self = dur - f.child_ns;
  const auto w = static_cast<std::int64_t>(f.weight);
  const auto li = static_cast<std::size_t>(f.layer);

  LayerTotals& t = b.totals[li];
  t.busy_ns += w * dur;
  t.self_ns += w * self;
  t.count += f.weight;
  if (keeps_samples(f.layer)) {
    b.samples[li].push_back(static_cast<std::uint64_t>(dur));
  }
  if (spans_kept_.load(std::memory_order_relaxed) < span_cap_) {
    spans_kept_.fetch_add(1, std::memory_order_relaxed);
    b.spans.push_back(SpanRecord{f.start, static_cast<std::uint64_t>(dur),
                                 f.id, f.parent, f.unit, b.thread, f.layer});
  }
  if (!b.stack.empty()) {
    Frame& p = b.stack.back();
    p.child_ns += w * dur;
    p.desc_self += w * self + f.desc_self;
  }
  if (f.is_unit) {
    UnitTotals& u = b.units;
    ++u.units;
    u.wall_ns += dur;
    u.remainder_ns += self;
    if (dur > 0) {
      const double err =
          std::fabs(static_cast<double>(self + f.desc_self - dur)) /
          static_cast<double>(dur);
      u.max_sum_error = std::max(u.max_sum_error, err);
    }
  }
}

void Span::begin(Tracer* t, Layer l, bool unit, std::uint32_t weight) {
  tracer_ = t;
  buf_ = &t->thread_buf();
  t->open(*buf_, l, unit, weight);
}

void Span::end() {
  if (buf_ != nullptr) {
    tracer_->close(*buf_);
    buf_ = nullptr;
  }
}

LayerTotals Tracer::totals(Layer l) const {
  const auto li = static_cast<std::size_t>(l);
  std::lock_guard<std::mutex> lock(mu_);
  LayerTotals sum = merged_totals_[li];
  for (const ThreadBuf* b : bufs_) {
    sum.busy_ns += b->totals[li].busy_ns;
    sum.self_ns += b->totals[li].self_ns;
    sum.count += b->totals[li].count;
  }
  return sum;
}

std::vector<std::uint64_t> Tracer::samples(Layer l) const {
  const auto li = static_cast<std::size_t>(l);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> out = merged_samples_[li];
  for (const ThreadBuf* b : bufs_) {
    out.insert(out.end(), b->samples[li].begin(), b->samples[li].end());
  }
  return out;
}

UnitTotals Tracer::unit_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  UnitTotals sum = merged_units_;
  for (const ThreadBuf* b : bufs_) {
    sum.units += b->units.units;
    sum.wall_ns += b->units.wall_ns;
    sum.remainder_ns += b->units.remainder_ns;
    sum.max_sum_error = std::max(sum.max_sum_error, b->units.max_sum_error);
  }
  return sum;
}

void Tracer::serialize(std::vector<std::uint64_t>& out) const {
  out.push_back(kWireMagic);
  for (std::size_t li = 0; li < kLayers; ++li) {
    const auto l = static_cast<Layer>(li);
    const LayerTotals t = totals(l);
    out.push_back(static_cast<std::uint64_t>(t.busy_ns));
    out.push_back(static_cast<std::uint64_t>(t.self_ns));
    out.push_back(t.count);
    const std::vector<std::uint64_t> s = samples(l);
    out.push_back(s.size());
    out.insert(out.end(), s.begin(), s.end());
  }
  const UnitTotals u = unit_totals();
  out.push_back(u.units);
  out.push_back(static_cast<std::uint64_t>(u.wall_ns));
  out.push_back(static_cast<std::uint64_t>(u.remainder_ns));
  out.push_back(bits_of(u.max_sum_error));
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = merged_spans_.size();
  for (const ThreadBuf* b : bufs_) n += b->spans.size();
  out.push_back(n);
  auto put = [&out](const SpanRecord& r) {
    out.push_back(r.start_ns);
    out.push_back(r.dur_ns);
    out.push_back(r.id);
    out.push_back(r.parent);
    out.push_back(static_cast<std::uint64_t>(r.unit) |
                  (static_cast<std::uint64_t>(r.thread) << 32) |
                  (static_cast<std::uint64_t>(r.layer) << 48));
  };
  for (const SpanRecord& r : merged_spans_) put(r);
  for (const ThreadBuf* b : bufs_) {
    for (const SpanRecord& r : b->spans) put(r);
  }
}

bool Tracer::merge(const std::uint64_t* w, std::size_t n, std::size_t* used) {
  std::size_t i = 0;
  auto take = [&](std::uint64_t* v) {
    if (i >= n) return false;
    *v = w[i++];
    return true;
  };
  std::uint64_t magic = 0;
  if (!take(&magic) || magic != kWireMagic) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t li = 0; li < kLayers; ++li) {
    std::uint64_t busy = 0, self = 0, count = 0, ns = 0;
    if (!take(&busy) || !take(&self) || !take(&count) || !take(&ns)) {
      return false;
    }
    if (ns > n - i) return false;
    merged_totals_[li].busy_ns += static_cast<std::int64_t>(busy);
    merged_totals_[li].self_ns += static_cast<std::int64_t>(self);
    merged_totals_[li].count += count;
    merged_samples_[li].insert(merged_samples_[li].end(), w + i, w + i + ns);
    i += ns;
  }
  std::uint64_t units = 0, wall = 0, rem = 0, err = 0, spans = 0;
  if (!take(&units) || !take(&wall) || !take(&rem) || !take(&err) ||
      !take(&spans)) {
    return false;
  }
  merged_units_.units += units;
  merged_units_.wall_ns += static_cast<std::int64_t>(wall);
  merged_units_.remainder_ns += static_cast<std::int64_t>(rem);
  merged_units_.max_sum_error =
      std::max(merged_units_.max_sum_error, double_of(err));
  if (spans > (n - i) / 5) return false;
  for (std::uint64_t k = 0; k < spans; ++k, i += 5) {
    if (spans_kept_.load(std::memory_order_relaxed) >= span_cap_) continue;
    spans_kept_.fetch_add(1, std::memory_order_relaxed);
    SpanRecord r;
    r.start_ns = w[i];
    r.dur_ns = w[i + 1];
    r.id = w[i + 2];
    r.parent = w[i + 3];
    r.unit = static_cast<std::uint32_t>(w[i + 4]);
    // Children's threads are numbered after the parent's.
    r.thread = static_cast<std::uint16_t>(256 + ((w[i + 4] >> 32) & 0xFF));
    const auto li = static_cast<std::size_t>((w[i + 4] >> 48) & 0xFF);
    if (li >= kLayers) return false;
    r.layer = static_cast<Layer>(li);
    merged_spans_.push_back(r);
  }
  *used = i;
  return true;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t t0 = ~0ULL;
  for (const SpanRecord& r : merged_spans_) t0 = std::min(t0, r.start_ns);
  for (const ThreadBuf* b : bufs_) {
    for (const SpanRecord& r : b->spans) t0 = std::min(t0, r.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  auto put = [&](const SpanRecord& r) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"unit\": %u, \"id\": %llu, \"parent\": %llu}}",
                 first ? "" : ",\n", layer_name(r.layer), layer_name(r.layer),
                 static_cast<double>(r.start_ns - t0) / 1e3,
                 static_cast<double>(r.dur_ns) / 1e3,
                 static_cast<unsigned>(r.thread), r.unit,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
    first = false;
  };
  for (const SpanRecord& r : merged_spans_) put(r);
  for (const ThreadBuf* b : bufs_) {
    for (const SpanRecord& r : b->spans) put(r);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
