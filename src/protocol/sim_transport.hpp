// The deterministic Transport backend: the reliable core (reliable_core.hpp)
// over a sim::EventQueue link.
//
// The link schedules every surviving wire attempt as one queue event, arms
// retransmit timers as cancellable queue timers, and runs the sink and the
// abandon handler inline -- so one run is one total order of events on one
// virtual clock: same scenario + seed => bit-identical runs.  The committed
// golden scenario replays pin that (tests/scale_test.cpp,
// CommittedScenariosReplayByteIdentical).
//
// The event queue is owned HERE: the harness's own protocol timers
// (failure detection, query deadlines, scheduled workload events) ride
// Transport::schedule(), which lands them in the same queue as the wire
// traffic.  Sim-only consumers (the scenario Runner's sampling grid, tests
// that need the raw queue) may reach through queue().
#pragma once

#include <limits>

#include "protocol/reliable_core.hpp"
#include "protocol/transport.hpp"
#include "sim/event_queue.hpp"

namespace voronet::protocol {

class SimTransport final : public Transport, private ReliableCore::Link {
 public:
  explicit SimTransport(const NetworkConfig& config) : core_(config, *this) {}
  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  void set_sink(Sink sink) override { core_.set_sink(std::move(sink)); }
  void set_abandon_handler(AbandonHandler handler) override {
    core_.set_abandon_handler(std::move(handler));
  }

  [[nodiscard]] Message draft(std::size_t reserve_entries = 0) override {
    return core_.draft(reserve_entries);
  }
  void send(Message msg) override { core_.send(std::move(msg)); }

  void crash(NodeId node) override { core_.crash(node); }
  void revive(NodeId node) override {
    core_.revive(node, [](auto&& abandon) { abandon(); });
  }
  [[nodiscard]] bool crashed(NodeId node) const override {
    return core_.crashed(node);
  }
  void stall(NodeId node) override { core_.stall(node); }
  void resume(NodeId node) override { core_.resume(node); }
  void resume_all() override { core_.resume_all(); }
  [[nodiscard]] bool stalled(NodeId node) const override {
    return core_.stalled(node);
  }

  void begin_loss_burst(double extra_drop) override {
    core_.begin_loss_burst(extra_drop);
  }
  void end_loss_burst(double extra_drop) override {
    core_.end_loss_burst(extra_drop);
  }
  void begin_latency_spike(double factor) override {
    core_.begin_latency_spike(factor);
  }
  void end_latency_spike(double factor) override {
    core_.end_latency_spike(factor);
  }
  void begin_duplication(double probability) override {
    core_.begin_duplication(probability);
  }
  void end_duplication(double probability) override {
    core_.end_duplication(probability);
  }

  void set_link_filter(LinkFilter up) override {
    core_.set_link_filter(std::move(up));
  }
  void clear_link_filter() override { core_.clear_link_filter(); }

  [[nodiscard]] double now() const override { return queue_.now(); }
  void schedule(double delay, Task fn) override {
    queue_.schedule(delay, std::move(fn));
  }
  RunResult run_to_idle(
      std::size_t max_events = sim::EventQueue::kDefaultEventBudget) override {
    return queue_.run_to_idle(max_events);
  }
  RunResult run_until(double horizon) override {
    return queue_.run_until(horizon);
  }
  [[nodiscard]] int arm_driver_wake() override { return -1; }
  [[nodiscard]] double next_deadline() const override {
    return std::numeric_limits<double>::infinity();
  }

  [[nodiscard]] std::size_t in_flight() const override {
    return core_.in_flight();
  }
  [[nodiscard]] std::size_t stalled_backlog() const override {
    return core_.stalled_backlog();
  }
  [[nodiscard]] std::size_t dedup_entries() const override {
    return core_.dedup_entries();
  }
  [[nodiscard]] std::size_t dedup_window_size() const override {
    return core_.dedup_window_size();
  }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return core_.memory_bytes();
  }

  [[nodiscard]] sim::Metrics& metrics() override { return core_.metrics(); }
  [[nodiscard]] const sim::Metrics& metrics() const override {
    return core_.metrics();
  }
  [[nodiscard]] NetworkStats stats() const override { return core_.stats(); }
  [[nodiscard]] const NetworkConfig& config() const override {
    return core_.config();
  }
  [[nodiscard]] double retransmit_timeout() const override {
    return core_.retransmit_timeout();
  }

  void set_tracer(obs::Tracer* tracer) override { core_.set_tracer(tracer); }
  void set_recorder(obs::FlightRecorder* recorder) override {
    core_.set_recorder(recorder);
  }

  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] const char* backend_name() const override { return "sim"; }

  /// Sim-only escape hatch (the deterministic replay machinery).
  [[nodiscard]] sim::EventQueue& queue() { return queue_; }

 private:
  // --- ReliableCore::Link: the event queue ---------------------------------

  void carry(const Message& msg, double delay) override {
    // One payload copy per wire attempt (the closure capture); arrive()
    // consumes it by move and recycles the vector into the draft pool.
    queue_.schedule(delay,
                    [this, m = msg]() mutable { core_.arrive(std::move(m)); });
  }
  sim::TimerId arm_retransmit(const Message& t, double timeout) override {
    return queue_.schedule_timer(
        timeout, [this, slot = t.transfer_slot, id = t.transfer_id] {
          core_.retransmit(slot, id);
        });
  }
  void cancel_retransmit(sim::TimerId timer) override { queue_.cancel(timer); }
  void upcall(Upcall kind, Message&& msg) override {
    core_.hand_up(kind, msg);
    core_.recycle_payload(std::move(msg.entries));
  }

  sim::EventQueue queue_;
  ReliableCore core_;
};

}  // namespace voronet::protocol
