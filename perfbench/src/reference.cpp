#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sched.h>

#include "bench.hpp"

namespace perfbench {

// File format: one "<key> <16 hex digits>" pair per line; lines that
// start with '#' are comments.
bool Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return true;  // no committed reference for this seed
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, hex;
    if (!(ls >> key >> hex) || hex.size() != 16) return false;
    std::uint64_t v = 0;
    for (const char c : hex) {
      int d = 0;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        d = c - 'a' + 10;
      } else {
        return false;
      }
      v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    table_[key] = v;
  }
  from_file_ = !table_.empty();
  return true;
}

bool Reference::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# perfbench reference outcomes: <key> <digest>\n");
  for (const auto& [k, v] : table_) {
    std::fprintf(f, "%s %016" PRIx64 "\n", k.c_str(), v);
  }
  return std::fclose(f) == 0;
}

bool Reference::check(const std::string& key, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = table_.emplace(key, value);
  return inserted || it->second == value;
}

bool Reference::lookup(const std::string& key, std::uint64_t* v) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = table_.find(key);
  if (it == table_.end()) return false;
  *v = it->second;
  return true;
}

void Reference::corrupt() {
  for (auto& kv : table_) kv.second ^= 1;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void add_lane(RunStats& stats, const std::vector<double>& unit_s) {
  if (unit_s.empty()) return;
  stats.lanes.emplace_back(percentile(unit_s, 50.0) * 1e3, unit_s.size());
}

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

unsigned bench_threads() { return std::min(4u, host_nproc()); }

}  // namespace perfbench
