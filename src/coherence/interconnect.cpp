#include "coherence/interconnect.hpp"

#include <cstdlib>

namespace iw::coherence {

Cycles Interconnect::message(unsigned from, unsigned to, bool carries_line) {
  ++stats_.messages;
  Cycles latency = 0;
  double energy = 0.0;
  if (socket_of(from) != socket_of(to)) {
    ++stats_.socket_crossings;
    latency += cfg_.socket_latency;
    energy += cfg_.socket_energy_pj;
    // Hops to/from the socket link on each side (~half the die each).
    const unsigned hops = per_socket_ / 2 + 1;
    latency += hops * cfg_.hop_latency;
    energy += hops * cfg_.hop_energy_pj;
  } else {
    // In-socket distance: ring/mesh distance between positions.
    const unsigned a = from % per_socket_;
    const unsigned b = to % per_socket_;
    const unsigned hops = 1 + (a > b ? a - b : b - a);
    latency += hops * cfg_.hop_latency;
    energy += hops * cfg_.hop_energy_pj;
  }
  if (carries_line) {
    ++stats_.line_transfers;
    energy += cfg_.line_transfer_energy_pj;
  }
  stats_.energy_pj += energy;
  return latency;
}

}  // namespace iw::coherence
