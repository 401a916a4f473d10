// The real-time Transport backend: in-process actor threads, per-node
// MPSC mailboxes, monotonic-clock timers.
//
// Where SimTransport *simulates* the wire inside one deterministic event
// queue, ThreadTransport *is* a wire: a pool of shard threads plays the
// network.  Every node is an actor whose mailbox (an MPSC timing wheel
// entry keyed by arrival deadline) is owned by the shard thread for
// node % shards; senders -- the driving thread and other shards -- post
// into it, and only the owning shard consumes.  Latency is a real
// monotonic-clock deadline (a message "in flight" occupies no thread),
// loss is drawn at transmission, acks and capped-exponential-backoff
// retransmissions run exactly the state machine protocol::Network runs,
// against the same conformance suite (tests/transport_conformance_test
// drives both backends through it).
//
// Threading contract:
//   * send(), draft(), schedule(), crash/stall/revive, run_* are called
//     from ONE driving thread (the thread that owns the harness);
//   * the sink and the abandon handler are invoked ONLY on that driving
//     thread, from inside run_to_idle()/run_until() -- shard threads
//     queue upcalls, the driver drains them.  The protocol layer above
//     therefore needs no locks, on any backend.  A driver with nothing to
//     pump parks on a DriverWake fd until the next timer deadline; a shard
//     thread signals it only while it is parked.
//   * shared transport state (transfer slots, dedup, stats, failure
//     marks) sits behind one mutex; shard threads hold it only for the
//     microseconds an event takes to classify.
//
// NOT deterministic: arrival interleaving is real.  The scenario replay
// machinery requires SimTransport; this backend exists for the serving
// layer (src/serve) and wall-clock benches, where p50/p99 latency under
// open-loop load is the point.  obs::Tracer / obs::FlightRecorder hooks
// are accepted but inert here (both are documented single-threaded,
// deterministic-replay instruments).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "protocol/driver_wake.hpp"
#include "protocol/transport.hpp"

namespace voronet::protocol {

class ThreadTransport final : public Transport {
 public:
  /// `shards`: actor threads (0 = derive from hardware_concurrency).
  /// `patience`: run_to_idle's wall-clock cap before it reports
  /// budget_exhausted instead of quiescence.
  explicit ThreadTransport(const NetworkConfig& config, unsigned shards = 0,
                           double patience = 60.0);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  void set_sink(Sink sink) override { sink_ = std::move(sink); }
  void set_abandon_handler(AbandonHandler handler) override {
    abandon_ = std::move(handler);
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

  [[nodiscard]] double now() const override;
  void schedule(double delay, Task fn) override;
  RunResult run_to_idle(std::size_t max_events) override;
  RunResult run_until(double horizon) override;
  [[nodiscard]] int arm_driver_wake() override;
  [[nodiscard]] double next_deadline() const override;

  [[nodiscard]] std::size_t in_flight() const override;
  [[nodiscard]] std::size_t stalled_backlog() const override;
  [[nodiscard]] std::size_t dedup_entries() const override;
  [[nodiscard]] std::size_t dedup_window_size() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;

  [[nodiscard]] sim::Metrics& metrics() override { return metrics_; }
  [[nodiscard]] const sim::Metrics& metrics() const override {
    return metrics_;
  }
  [[nodiscard]] NetworkStats stats() const override;
  [[nodiscard]] const NetworkConfig& config() const override {
    return config_;
  }
  [[nodiscard]] double retransmit_timeout() const override { return rto_; }

  void set_tracer(obs::Tracer*) override {}       // inert (header comment)
  void set_recorder(obs::FlightRecorder*) override {}

  [[nodiscard]] bool deterministic() const override { return false; }
  [[nodiscard]] const char* backend_name() const override { return "thread"; }

  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

 private:
  /// One reliable-transfer slot (sender-side state + receiver dedup bit),
  /// generation-checked by transfer id exactly like Network's.
  struct Transfer {
    Message msg;
    std::uint64_t id = 0;  ///< 0 = free slot
    std::size_t attempts = 1;
    bool delivered = false;  ///< receiver-side dedup bit
    bool settled = false;    ///< ack seen; retransmit timer is a no-op
  };

  /// Bounded FIFO dedup window for transfers whose slot is recycled.
  struct OrphanWindow {
    struct Rec {
      std::uint64_t transfer_id = 0;
      NodeId dst = kNoNode;
    };
    std::vector<Rec> ring;
    std::size_t next = 0;
    std::size_t count = 0;

    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] std::size_t size() const { return count; }
    bool insert(std::uint64_t transfer_id, NodeId dst);
    void erase(std::uint64_t transfer_id);
    void erase_dst(NodeId dst);
  };

  /// A timed wire event owned by one shard: a data arrival at a node's
  /// mailbox, an ack arrival back at the sender, or a retransmit timer.
  struct WireEvent {
    double at = 0.0;        ///< monotonic deadline (seconds since start)
    std::uint64_t seq = 0;  ///< FIFO tie-break within a shard
    enum Kind : std::uint8_t { kArrive, kAck, kRetransmit } kind = kArrive;
    Message msg;               ///< kArrive payload / kAck routing fields
    std::uint32_t slot = 0;    ///< kRetransmit: transfer slot
    std::uint64_t transfer = 0;  ///< kRetransmit: generation check
  };

  struct Shard {
    std::mutex m;
    std::condition_variable cv;
    std::vector<WireEvent> inbox;  ///< MPSC injection side
    std::vector<WireEvent> heap;   ///< (at, seq) min-heap, owner-only
    bool stop = false;
  };

  /// Work queued for the driving thread (sink / abandon invocations).
  struct Upcall {
    enum Kind : std::uint8_t { kDeliver, kAbandon } kind = kDeliver;
    Message msg;
  };

  /// A schedule()d application task (driver-thread only).
  struct DriverTimer {
    double at = 0.0;
    std::uint64_t seq = 0;
    Task fn;
  };

  [[nodiscard]] Shard& shard_of(NodeId node) {
    const auto n = static_cast<std::uint64_t>(node < 0 ? 0 : node);
    return *shards_[static_cast<std::size_t>(n % shards_.size())];
  }

  void shard_loop(Shard& shard);
  void post(Shard& shard, WireEvent ev);
  void process_event(WireEvent& ev);

  // All *_locked helpers require g_ held.
  void transmit_locked(const Message& msg);
  void receive_locked(Message msg);
  void settle_locked(std::uint32_t slot, std::uint64_t transfer_id);
  void retransmit_locked(std::uint32_t slot, std::uint64_t transfer_id);
  [[nodiscard]] Transfer* live_transfer_locked(std::uint32_t slot,
                                              std::uint64_t transfer_id);
  std::uint32_t alloc_slot_locked();
  void free_slot_locked(std::uint32_t slot);
  void recycle_payload_locked(std::vector<ViewEntry>&& entries);
  [[nodiscard]] double backoff_timeout(std::uint64_t transfer_id,
                                       std::size_t attempts) const;
  [[nodiscard]] double effective_drop_locked() const;
  [[nodiscard]] bool flag_locked(const std::vector<std::uint8_t>& flags,
                                 NodeId node) const;
  static void set_flag(std::vector<std::uint8_t>& flags, NodeId node, bool on);
  void push_upcall(Upcall up);
  /// Drain queued upcalls + due driver timers; returns #processed.
  std::size_t pump();
  [[nodiscard]] bool upcalls_queued() const;
  [[nodiscard]] bool quiescent() const;

  NetworkConfig config_;
  double rto_ = 0.0;
  double rto_cap_ = 0.0;
  double patience_;
  std::chrono::steady_clock::time_point start_;

  Sink sink_;
  AbandonHandler abandon_;

  // --- Shared transport state (behind g_) ----------------------------------
  mutable std::mutex g_;
  Rng rng_;
  sim::Metrics metrics_;
  NetworkStats stats_;
  std::uint64_t next_transfer_ = 1;
  std::deque<Transfer> transfers_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t in_flight_ = 0;
  OrphanWindow orphans_;
  std::vector<std::vector<ViewEntry>> payload_pool_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> stalled_;
  std::vector<std::vector<Message>> stall_backlog_;
  std::size_t backlog_count_ = 0;
  std::vector<double> loss_bursts_;
  std::vector<double> latency_spikes_;
  std::vector<double> duplications_;
  LinkFilter link_up_;
  std::atomic<std::uint64_t> wire_events_{0};  ///< scheduled, unprocessed
  std::atomic<std::uint64_t> event_seq_{0};

  // --- Shards --------------------------------------------------------------
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;

  // --- Driver side ---------------------------------------------------------
  mutable std::mutex up_m_;
  std::deque<Upcall> upcalls_;
  DriverWake wake_;  ///< closed after ~ThreadTransport joins threads_
  std::vector<DriverTimer> timers_;  ///< min-heap; driver-thread only
  std::uint64_t timer_seq_ = 0;
};

}  // namespace voronet::protocol
