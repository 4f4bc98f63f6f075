#include "omp/barrier.hpp"

#include <cstdio>
#include <cstdlib>

#include "hwsim/machine.hpp"

namespace iw::omp {

void SpinBarrier::check_timeout(hwsim::Core& core, Cycles entered) const {
  const Cycles now = core.clock();
  if (!timed_out(now, entered)) return;
  std::fprintf(stderr,
               "PANIC: omp barrier timeout on core %u: waited %llu cycles "
               "(limit %llu), %u/%u arrived\n",
               core.id(), static_cast<unsigned long long>(now - entered),
               static_cast<unsigned long long>(timeout_), count_, parties_);
  core.machine().dump_state(stderr);
  std::abort();
}

std::uint64_t SpinBarrier::arrive(hwsim::Core& core) {
  core.consume(core.costs().atomic_rmw);
  const std::uint64_t gen = generation_;
  if (++count_ >= parties_) {
    count_ = 0;
    ++generation_;
  }
  return gen;
}

FutexBarrier::Arrival FutexBarrier::arrive(hwsim::Core& core,
                                           Cycles work_done) {
  core.consume(core.costs().atomic_rmw);
  Arrival a;
  if (++count_ >= parties_) {
    count_ = 0;
    a.last = true;
    // Serial wake chain on the last arriver's core.
    futex_.wake_all(core, addr_);
    return a;
  }
  a.last = false;
  a.block = futex_.wait(core, addr_, work_done);
  return a;
}

}  // namespace iw::omp
