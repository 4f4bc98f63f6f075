// On-chip/cross-socket interconnect cost and energy accounting.
//
// Topology: two sockets of num_cores/2 cores each (the Fig. 7 machine:
// 2 x 12-core). A message between a core and a home slice (or another
// core) pays per-hop latency and energy; crossing the socket boundary
// pays the QPI/UPI premium. The paper's headline is the *energy* cut
// (~53%): every directory indirection and invalidation shows up here.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace iw::coherence {

struct InterconnectConfig {
  unsigned num_cores{24};
  unsigned sockets{2};
  Cycles hop_latency{18};          // mesh segment traversal
  Cycles socket_latency{110};      // cross-socket link
  double hop_energy_pj{12.0};      // per mesh traversal, per message
  double socket_energy_pj{95.0};   // per cross-socket traversal
  double line_transfer_energy_pj{38.0};  // 64B payload movement
};

struct InterconnectStats {
  std::uint64_t messages{0};
  std::uint64_t line_transfers{0};
  std::uint64_t socket_crossings{0};
  double energy_pj{0.0};
};

class Interconnect {
 public:
  explicit Interconnect(InterconnectConfig cfg)
      : cfg_(cfg), per_socket_(cfg.num_cores / cfg.sockets) {}

  [[nodiscard]] unsigned socket_of(unsigned core) const {
    return core / per_socket_;
  }

  /// One control message from `from` to `to` (cores, or a home slice
  /// colocated with core id `to`). Returns latency; accumulates energy.
  Cycles message(unsigned from, unsigned to, bool carries_line = false);

  /// Home slice (LLC bank) for a line: address-interleaved.
  [[nodiscard]] unsigned home_of(Addr line) const {
    return static_cast<unsigned>((line >> 6) % cfg_.num_cores);
  }

  [[nodiscard]] const InterconnectStats& stats() const { return stats_; }
  [[nodiscard]] const InterconnectConfig& config() const { return cfg_; }

 private:
  InterconnectConfig cfg_;
  unsigned per_socket_;  // cores per socket
  InterconnectStats stats_;
};

}  // namespace iw::coherence
