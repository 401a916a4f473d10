// The wall-clock driver shared by ThreadTransport and net::SocketTransport.
//
// Both backends run the reliable core (reliable_core.hpp) under one state
// mutex, g_, and differ only in the wire below it: shard threads with
// timed mailboxes, or a poll loop writing frames to kernel sockets.
// Everything above the wire is here, once:
//
//   * the Transport members, each a core call under g_;
//   * the driver side: the core's upcalls queue for the driving thread,
//     schedule()d tasks wait in a deadline heap, and pump() drains both
//     -- so the sink, the abandon handler and the tasks run only on the
//     driving thread, inside run_*, and the layer above needs no locks;
//   * the quiescence probe: nothing on the wire (wire_pending_), nothing
//     in flight, nothing queued, no task pending;
//   * the wake: a driver with nothing to pump parks on a DriverWake until
//     its next deadline, and the wire threads signal it only while it is
//     parked.
//
// A backend implements the two ReliableCore::Link members that touch its
// wire -- carry() and arm_retransmit() -- counts every carried attempt in
// wire_pending_, and hands each arrival to arrive() and each fired timer
// to retransmit() from its own threads.
//
// obs::Tracer / obs::FlightRecorder are accepted but inert here: both are
// single-threaded, deterministic-replay instruments.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <vector>

#include "common/wake_fd.hpp"
#include "protocol/reliable_core.hpp"
#include "protocol/transport.hpp"

namespace voronet::protocol {

/// A min-heap of timed events (members `at` and `seq`): earliest deadline
/// first, FIFO by sequence number among equal deadlines.
template <typename Event>
class DeadlineHeap {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] const Event& top() const { return heap_.front(); }
  /// The earliest deadline; +inf when empty.
  [[nodiscard]] double next_at() const {
    return heap_.empty() ? std::numeric_limits<double>::infinity()
                         : heap_.front().at;
  }
  void push(Event ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
  }

 private:
  static bool later(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
  std::vector<Event> heap_;
};

/// How the wire threads wake the driving thread.  The driver parks on one
/// WakeFd -- inside run_until / run_to_idle, or in a caller's own poll set
/// after arm() (ServedShard::serve) -- and the other threads signal it
/// only while it is parked, so a busy driver costs them no syscall.
///
/// Lost wakeups are ruled out by ordering: the driver publishes "parked"
/// before its last look at the queue, and a producer publishes its work
/// before it looks at "parked".  One of the two sees the other.
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

class WallClockTransport : public Transport, protected ReliableCore::Link {
 public:
  /// run_to_idle's wall-clock cap before it reports budget_exhausted
  /// instead of quiescence.
  static constexpr double kPatience = 60.0;

  void set_sink(Sink sink) override { core_.set_sink(std::move(sink)); }
  void set_abandon_handler(AbandonHandler handler) override {
    core_.set_abandon_handler(std::move(handler));
  }

  [[nodiscard]] Message draft(std::size_t reserve_entries = 0) override;
  void send(Message msg) override;

  void crash(NodeId node) override;
  void revive(NodeId node) override;
  [[nodiscard]] bool crashed(NodeId node) const override;
  void stall(NodeId node) override;
  void resume(NodeId node) override;
  void resume_all() override;
  [[nodiscard]] bool stalled(NodeId node) const override;

  void begin_loss_burst(double extra_drop) override;
  void end_loss_burst(double extra_drop) override;
  void begin_latency_spike(double factor) override;
  void end_latency_spike(double factor) override;
  void begin_duplication(double probability) override;
  void end_duplication(double probability) override;

  void set_link_filter(LinkFilter up) override;
  void clear_link_filter() override;

  /// Monotonic wall seconds since construction (Transport and Link).
  [[nodiscard]] double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void schedule(double delay, Task fn) override;
  RunResult run_to_idle(
      std::size_t max_events = sim::EventQueue::kDefaultEventBudget) override;
  RunResult run_until(double horizon) override;
  [[nodiscard]] int arm_driver_wake() override;
  [[nodiscard]] double next_deadline() const override {
    return timers_.next_at();
  }

  [[nodiscard]] std::size_t in_flight() const override;
  [[nodiscard]] std::size_t stalled_backlog() const override;
  [[nodiscard]] std::size_t dedup_entries() const override;
  [[nodiscard]] std::size_t dedup_window_size() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;

  [[nodiscard]] sim::Metrics& metrics() override { return core_.metrics(); }
  [[nodiscard]] const sim::Metrics& metrics() const override {
    return core_.metrics();
  }
  [[nodiscard]] NetworkStats stats() const override;
  [[nodiscard]] const NetworkConfig& config() const override {
    return core_.config();
  }
  [[nodiscard]] double retransmit_timeout() const override {
    return core_.retransmit_timeout();
  }

  void set_tracer(obs::Tracer*) override {}  // inert (header comment)
  void set_recorder(obs::FlightRecorder*) override {}

  [[nodiscard]] bool deterministic() const override { return false; }

 protected:
  explicit WallClockTransport(const NetworkConfig& config)
      : core_(config, *this), start_(std::chrono::steady_clock::now()) {}

  /// A carried attempt reached its destination (wire thread): classify it
  /// under g_, then take it off wire_pending_.
  void arrive(Message msg);
  /// A transfer's retransmit timer fired (wire thread).
  void retransmit(std::uint32_t slot, std::uint64_t transfer_id);
  [[nodiscard]] std::uint64_t next_event_seq() {
    return event_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Guards core_ and whatever wire state a backend notes as "behind g_".
  /// Wire threads hold it only for the microseconds an event takes to
  /// classify.
  mutable std::mutex g_;
  ReliableCore core_;  ///< behind g_
  /// Carried attempts not yet classified on arrival: the wire half of the
  /// quiescence probe.  A backend adds one per carry() before publishing
  /// the attempt; arrive() takes it off after publishing the consequences.
  std::atomic<std::uint64_t> wire_pending_{0};
  DriverWake wake_;  ///< outlives the derived backend's joined threads

 private:
  /// Work queued for the driving thread.
  struct QueuedUpcall {
    Upcall kind = Upcall::kDeliver;
    Message msg;
  };
  /// A schedule()d application task (driver-thread only).
  struct DriverTimer {
    double at = 0.0;
    std::uint64_t seq = 0;
    Task fn;
  };

  /// Link: queue a delivery or abandon for the driving thread.
  void upcall(Upcall kind, Message&& msg) override;
  /// Drain queued upcalls + due driver timers; returns #processed.
  std::size_t pump();
  [[nodiscard]] bool upcalls_queued() const;
  [[nodiscard]] bool quiescent() const;

  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> event_seq_{0};

  mutable std::mutex up_m_;
  std::deque<QueuedUpcall> upcalls_;  ///< behind up_m_
  DeadlineHeap<DriverTimer> timers_;  ///< driver thread only
  std::uint64_t timer_seq_ = 0;
};

}  // namespace voronet::protocol
