// The deterministic Transport backend: protocol::Network driven by
// sim::EventQueue, behind the transport seam.
//
// This is pure composition -- every override is one forwarding line, so
// the sim semantics (event ordering, Rng streams, retransmit jitter) are
// byte-for-byte what they were before the seam existed.  The committed
// golden scenario replays pin that claim
// (tests/scale_test.cpp, CommittedScenariosReplayByteIdentical).
//
// The event queue is owned HERE: the harness's own protocol timers
// (failure detection, query deadlines, scheduled workload events) ride
// Transport::schedule(), which lands them in the same queue as the wire
// traffic -- one clock, one total order, full replayability.  Sim-only
// consumers (the scenario Runner's sampling grid, tests that need the
// raw queue) may reach through queue().
#pragma once

#include <limits>

#include "protocol/network.hpp"
#include "protocol/transport.hpp"
#include "sim/event_queue.hpp"

namespace voronet::protocol {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(const NetworkConfig& config) : net_(queue_, config) {}

  void set_sink(Sink sink) override { net_.set_sink(std::move(sink)); }
  void set_abandon_handler(AbandonHandler handler) override {
    net_.set_abandon_handler(std::move(handler));
  }

  [[nodiscard]] Message draft(std::size_t reserve_entries = 0) override {
    return net_.draft(reserve_entries);
  }
  void send(Message msg) override { net_.send(std::move(msg)); }

  void crash(NodeId node) override { net_.crash(node); }
  void revive(NodeId node) override { net_.revive(node); }
  [[nodiscard]] bool crashed(NodeId node) const override {
    return net_.crashed(node);
  }
  void stall(NodeId node) override { net_.stall(node); }
  void resume(NodeId node) override { net_.resume(node); }
  void resume_all() override { net_.resume_all(); }
  [[nodiscard]] bool stalled(NodeId node) const override {
    return net_.stalled(node);
  }

  void begin_loss_burst(double extra_drop) override {
    net_.begin_loss_burst(extra_drop);
  }
  void end_loss_burst(double extra_drop) override {
    net_.end_loss_burst(extra_drop);
  }
  void begin_latency_spike(double factor) override {
    net_.begin_latency_spike(factor);
  }
  void end_latency_spike(double factor) override {
    net_.end_latency_spike(factor);
  }
  void begin_duplication(double probability) override {
    net_.begin_duplication(probability);
  }
  void end_duplication(double probability) override {
    net_.end_duplication(probability);
  }

  void set_link_filter(LinkFilter up) override {
    net_.set_link_filter(std::move(up));
  }
  void clear_link_filter() override { net_.clear_link_filter(); }

  [[nodiscard]] double now() const override { return queue_.now(); }
  void schedule(double delay, Task fn) override {
    queue_.schedule(delay, std::move(fn));
  }
  RunResult run_to_idle(std::size_t max_events) override {
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
    return net_.in_flight();
  }
  [[nodiscard]] std::size_t stalled_backlog() const override {
    return net_.stalled_backlog();
  }
  [[nodiscard]] std::size_t dedup_entries() const override {
    return net_.dedup_entries();
  }
  [[nodiscard]] std::size_t dedup_window_size() const override {
    return net_.dedup_window_size();
  }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return net_.memory_bytes();
  }

  [[nodiscard]] sim::Metrics& metrics() override { return net_.metrics(); }
  [[nodiscard]] const sim::Metrics& metrics() const override {
    return net_.metrics();
  }
  [[nodiscard]] NetworkStats stats() const override {
    return net_.stats();
  }
  [[nodiscard]] const NetworkConfig& config() const override {
    return net_.config();
  }
  [[nodiscard]] double retransmit_timeout() const override {
    return net_.retransmit_timeout();
  }

  void set_tracer(obs::Tracer* tracer) override { net_.set_tracer(tracer); }
  void set_recorder(obs::FlightRecorder* recorder) override {
    net_.set_recorder(recorder);
  }

  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] const char* backend_name() const override { return "sim"; }

  /// Sim-only escape hatches (the deterministic replay machinery).
  [[nodiscard]] sim::EventQueue& queue() { return queue_; }
  [[nodiscard]] Network& network() { return net_; }

 private:
  sim::EventQueue queue_;
  Network net_;
};

}  // namespace voronet::protocol
