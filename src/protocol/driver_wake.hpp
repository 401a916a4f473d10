// How a wall-clock Transport backend wakes its driving thread.
//
// ThreadTransport's actor threads and SocketTransport's I/O thread queue
// work for the driver (deliveries, abandons) and make progress the driver
// may be waiting on (an ack settling the last transfer).  The driver
// parks on one WakeFd -- inside run_until / run_to_idle, or in a caller's
// own poll set after arm() (ServedShard::serve) -- and the other threads
// signal it only while it is parked, so a busy driver costs them no
// syscall per message.
//
// Lost wakeups are ruled out by ordering: the driver publishes "parked"
// before its last look at the queue, and a producer publishes its work
// before it looks at "parked".  One of the two sees the other.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/wake_fd.hpp"

namespace voronet::protocol {

class DriverWake {
 public:
  /// What a park waits for besides its timeout.
  enum class Wait : std::uint8_t {
    kWork = 1,      ///< queued driver work (run_until, serve loops)
    kProgress = 2,  ///< also any processed wire event (run_to_idle)
  };

  // --- Any thread -----------------------------------------------------------

  /// Driver work was queued: wakes a park of either kind.
  void work() {
    if (parked_.load() != kAwake && parked_.exchange(kAwake) != kAwake) {
      fd_.signal();
    }
  }
  /// A wire event was processed: wakes only a kProgress park.
  void progress() {
    std::uint8_t expected = kProgressPark;
    if (parked_.load() == kProgressPark &&
        parked_.compare_exchange_strong(expected, kAwake)) {
      fd_.signal();
    }
  }

  // --- Driving thread -------------------------------------------------------

  /// Parks outside the backend: returns the fd to poll, readable once work
  /// is queued -- at once when `work_queued`.  disarm() ends the park.
  int arm(bool work_queued) {
    parked_.store(kWorkPark);
    if (work_queued) work();
    return fd_.fd();
  }
  /// Blocks for up to `timeout_s` seconds unless `ready()` -- evaluated
  /// after the park is published -- already holds.
  template <typename Ready>
  void park(Wait wait, double timeout_s, Ready ready) {
    parked_.store(static_cast<std::uint8_t>(wait));
    if (!ready()) {
      pollfd pfd{fd_.fd(), POLLIN, 0};
      (void)poll_for(&pfd, 1, timeout_s);
    }
    disarm();
  }
  /// Ends a park.  Drains the fd only when a producer claimed the park
  /// (and so signalled): an unclaimed park costs no syscall.
  void disarm() {
    if (parked_.exchange(kAwake) == kAwake) fd_.drain();
  }

 private:
  static constexpr std::uint8_t kAwake = 0;
  static constexpr std::uint8_t kWorkPark = 1;
  static constexpr std::uint8_t kProgressPark = 2;

  WakeFd fd_;
  std::atomic<std::uint8_t> parked_{kAwake};
};

}  // namespace voronet::protocol
