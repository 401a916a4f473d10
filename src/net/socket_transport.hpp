// The socket Transport backend: real frames over real file descriptors.
//
// Where ThreadTransport plays the wire with in-process shard threads,
// SocketTransport puts every message THROUGH THE KERNEL: each wire
// attempt is one codec frame (net/wire_codec.hpp) written to a
// nonblocking stream socket -- Unix-domain or TCP -- and read back,
// reassembled and decoded by a poll() event loop.  The reliable-delivery
// state machine above the wire (transfer slots, acks, capped-exponential
// retransmission, the bounded orphan dedup window, crash/stall marks) is
// ThreadTransport's, verbatim: tests/transport_conformance_test runs the
// same contract suite against all three backends.
//
// Topology: the transport binds one listen address and maintains one
// outbound connection per configured peer, routing a frame for node
// `dst` to peer `dst % peers`.  The default -- no peers configured -- is
// the *loopback* arrangement: the transport connects to its own listen
// socket, so every frame and every ack genuinely crosses the kernel
// while all nodes stay in this process.  That is the conformance-suite
// configuration and the arrangement tools/voronet_served runs (the
// VoroNet differential harness needs the shared ground-truth overlay in
// one process; what multi-process buys is the serving boundary, see
// net/serve_loop.hpp).  Outbound connections reconnect with
// capped-exponential backoff; frames scheduled while a peer is down wait
// in its queue (the reliable layer's retransmit timers, not the
// connection layer, decide abandonment).
//
// Failure injection (loss, link filters, duplication, latency spikes)
// is drawn at transmit time, BEFORE any bytes exist: a "lost" frame is
// simply never written, which keeps the conformance suite's schedule-
// independent attempt counts exact on sockets.  The latency model is
// honoured by delaying each frame's enqueue-to-socket instant; kernel
// transit adds its real microseconds on top.
//
// Threading contract: identical to ThreadTransport -- one driving
// thread calls send()/draft()/schedule()/run_*, the sink and abandon
// handler run only on that driving thread from inside run_*, and all
// shared state sits behind one mutex that the I/O thread holds only for
// the microseconds an event takes to classify.  The I/O thread sleeps in
// ppoll until its next frame or timer deadline, to the nanosecond, or
// until post() signals its eventfd; the driver parks on a DriverWake the
// same way.  NOT deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/wake_fd.hpp"
#include "net/socket.hpp"
#include "protocol/driver_wake.hpp"
#include "protocol/transport.hpp"

namespace voronet::net {

struct SocketTransportConfig {
  /// Listen address spec ("uds:/path" / "tcp:host:port"); empty picks a
  /// fresh Unix-domain path under $TMPDIR.
  std::string listen;
  /// Peer address specs; empty means loopback (one peer: ourselves).
  std::vector<std::string> peers;
  /// run_to_idle's wall-clock cap before budget_exhausted.
  double patience = 60.0;
  /// Reconnect backoff: attempt k waits min(base * 2^(k-1), cap).
  double reconnect_base = 0.01;
  double reconnect_cap = 2.0;
};

class SocketTransport final : public protocol::Transport {
 public:
  using NetworkConfig = protocol::NetworkConfig;
  using NetworkStats = protocol::NetworkStats;
  using Message = protocol::Message;
  using NodeId = protocol::NodeId;
  using ViewEntry = protocol::ViewEntry;

  /// Binds, spawns the I/O thread, and starts connecting.  Throws
  /// std::runtime_error when the listen address cannot be bound (that is
  /// a configuration error, unlike peer connects, which retry forever).
  explicit SocketTransport(const NetworkConfig& config,
                           SocketTransportConfig socket_config = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

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

  void set_tracer(obs::Tracer*) override {}  // inert, like ThreadTransport
  void set_recorder(obs::FlightRecorder*) override {}

  [[nodiscard]] bool deterministic() const override { return false; }
  [[nodiscard]] const char* backend_name() const override { return "socket"; }

  /// The bound listen address (resolved: TCP port 0 becomes the kernel's
  /// pick), for handing to a peer process.
  [[nodiscard]] const Address& listen_address() const { return listen_addr_; }

 private:
  // Reliable-transfer state: ThreadTransport's structures, verbatim.
  struct Transfer {
    Message msg;
    std::uint64_t id = 0;  ///< 0 = free slot
    std::size_t attempts = 1;
    bool delivered = false;
    bool settled = false;
  };

  struct OrphanWindow {
    struct Rec {
      std::uint64_t transfer_id = 0;
      NodeId dst = protocol::kNoNode;
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

  /// A timed event for the I/O thread: an encoded frame to enqueue on a
  /// peer connection at its latency deadline, a retransmit timer, or a
  /// (re)connect attempt.
  struct NetEvent {
    double at = 0.0;
    std::uint64_t seq = 0;
    enum Kind : std::uint8_t { kWrite, kRetransmit, kConnect } kind = kWrite;
    std::size_t peer = 0;             ///< kWrite / kConnect
    std::vector<std::uint8_t> frame;  ///< kWrite payload
    std::uint32_t slot = 0;           ///< kRetransmit
    std::uint64_t transfer = 0;       ///< kRetransmit generation check
  };

  /// One outbound peer connection (I/O thread only, except `addr`).
  struct Peer {
    Address addr;
    int fd = -1;
    bool connecting = false;
    std::deque<std::vector<std::uint8_t>> outq;  ///< frames awaiting write
    std::size_t out_off = 0;  ///< bytes of outq.front() already written
    std::size_t attempts = 0;  ///< connects since last success
  };

  /// One accepted inbound connection (I/O thread only).
  struct Inbound {
    int fd = -1;
    std::vector<std::uint8_t> buf;  ///< reassembly buffer
    std::size_t off = 0;            ///< consumed prefix of buf
  };

  struct Upcall {
    enum Kind : std::uint8_t { kDeliver, kAbandon } kind = kDeliver;
    Message msg;
  };

  struct DriverTimer {
    double at = 0.0;
    std::uint64_t seq = 0;
    Task fn;
  };

  // --- I/O thread ----------------------------------------------------------
  void io_loop();
  void post(NetEvent ev);
  void process_due(NetEvent& ev);
  void try_connect(std::size_t peer_index);
  void peer_down(Peer& peer, std::size_t peer_index);
  void flush_peer(Peer& peer, std::size_t peer_index);
  void read_inbound(Inbound& conn);
  void process_arrival(Message msg);

  // All *_locked helpers require g_ held.
  void transmit_locked(const Message& msg);
  void enqueue_frame_locked(const Message& msg, double delay);
  void receive_locked(Message msg);
  void settle_locked(std::uint32_t slot, std::uint64_t transfer_id);
  void retransmit_locked(std::uint32_t slot, std::uint64_t transfer_id);
  [[nodiscard]] Transfer* live_transfer_locked(std::uint32_t slot,
                                               std::uint64_t transfer_id);
  std::uint32_t alloc_slot_locked();
  void free_slot_locked(std::uint32_t slot);
  void recycle_payload_locked(std::vector<ViewEntry>&& entries);
  void recycle_frame(std::vector<std::uint8_t>&& frame);
  [[nodiscard]] double backoff_timeout(std::uint64_t transfer_id,
                                       std::size_t attempts) const;
  [[nodiscard]] double effective_drop_locked() const;
  [[nodiscard]] bool flag_locked(const std::vector<std::uint8_t>& flags,
                                 NodeId node) const;
  static void set_flag(std::vector<std::uint8_t>& flags, NodeId node, bool on);
  void push_upcall(Upcall up);
  std::size_t pump();
  [[nodiscard]] bool upcalls_queued() const;
  [[nodiscard]] bool quiescent() const;

  NetworkConfig config_;
  SocketTransportConfig socket_config_;
  double rto_ = 0.0;
  double rto_cap_ = 0.0;
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
  std::vector<std::vector<std::uint8_t>> frame_pool_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> stalled_;
  std::vector<std::vector<Message>> stall_backlog_;
  std::size_t backlog_count_ = 0;
  std::vector<double> loss_bursts_;
  std::vector<double> latency_spikes_;
  std::vector<double> duplications_;
  LinkFilter link_up_;
  /// Frames scheduled (or queued / in the kernel) but not yet decoded and
  /// classified on arrival -- the wire half of the quiescence probe.
  std::atomic<std::uint64_t> wire_pending_{0};
  std::atomic<std::uint64_t> event_seq_{0};

  // --- I/O side ------------------------------------------------------------
  Address listen_addr_;
  int listen_fd_ = -1;
  WakeFd io_wake_;  ///< poll() wakeup from post()/dtor
  std::vector<Peer> peers_;
  std::vector<Inbound> inbound_;
  std::mutex io_m_;  ///< guards inbox_/stop_ (never held with g_ wanted)
  std::vector<NetEvent> inbox_;
  bool stop_ = false;
  std::vector<NetEvent> heap_;  ///< (at, seq) min-heap, I/O thread only
  std::thread io_thread_;

  // --- Driver side ---------------------------------------------------------
  mutable std::mutex up_m_;
  std::deque<Upcall> upcalls_;
  protocol::DriverWake wake_;
  std::vector<DriverTimer> timers_;  ///< min-heap; driver thread only
  std::uint64_t timer_seq_ = 0;
};

}  // namespace voronet::net
