// The socket Transport backend: real frames over real file descriptors.
//
// Where ThreadTransport plays the wire with in-process shard threads,
// SocketTransport puts every message THROUGH THE KERNEL: each carried wire
// attempt is one codec frame (net/wire_codec.hpp) written to a nonblocking
// stream socket -- Unix-domain or TCP -- and read back, reassembled and
// decoded by a poll() event loop, which hands it to the reliable core.
// The core and the driver above it are the shared wall-clock driver
// (protocol/wall_clock_transport.hpp); this file is the link: the poll
// loop, the framing and the peer connections.
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
// is drawn by the core at transmit time, BEFORE any bytes exist: a "lost"
// frame is simply never written, which keeps the conformance suite's
// schedule-independent attempt counts exact on sockets.  The latency
// model is honoured by delaying each frame's enqueue-to-socket instant;
// kernel transit adds its real microseconds on top.
//
// The I/O thread sleeps in ppoll until its next frame or timer deadline,
// to the nanosecond, or until post() signals its eventfd.  NOT
// deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/wake_fd.hpp"
#include "net/socket.hpp"
#include "protocol/wall_clock_transport.hpp"

namespace voronet::net {

struct SocketTransportConfig {
  /// Listen address spec ("uds:/path" / "tcp:host:port"); empty picks a
  /// fresh Unix-domain path under $TMPDIR.
  std::string listen;
  /// Peer address specs; empty means loopback (one peer: ourselves).
  std::vector<std::string> peers;
};

class SocketTransport final : public protocol::WallClockTransport {
 public:
  using NetworkConfig = protocol::NetworkConfig;
  using Message = protocol::Message;

  /// Binds, spawns the I/O thread, and starts connecting.  Throws
  /// std::runtime_error when the listen address cannot be bound (that is
  /// a configuration error, unlike peer connects, which retry forever).
  explicit SocketTransport(const NetworkConfig& config,
                           const SocketTransportConfig& socket_config = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// The core's bytes plus the pooled frame buffers.
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] const char* backend_name() const override { return "socket"; }

  /// The bound listen address (resolved: TCP port 0 becomes the kernel's
  /// pick), for handing to a peer process.
  [[nodiscard]] const Address& listen_address() const { return listen_addr_; }

 private:
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

  // ReliableCore::Link (called under g_): encode the frame now, enqueue
  // it on its peer at the latency deadline.
  void carry(const Message& msg, double delay) override;
  sim::TimerId arm_retransmit(const Message& t, double timeout) override;

  // --- I/O thread ----------------------------------------------------------
  void io_loop();
  void post(NetEvent ev);
  void process_due(NetEvent& ev);
  void try_connect(std::size_t peer_index);
  /// Schedule the next connect attempt with capped-exponential backoff.
  void reconnect_later(Peer& peer, std::size_t peer_index);
  void peer_down(Peer& peer, std::size_t peer_index);
  void flush_peer(Peer& peer, std::size_t peer_index);
  void read_inbound(Inbound& conn);
  void recycle_frame(std::vector<std::uint8_t>&& frame);

  std::vector<std::vector<std::uint8_t>> frame_pool_;  ///< behind g_

  Address listen_addr_;
  int listen_fd_ = -1;
  WakeFd io_wake_;  ///< poll() wakeup from post()/dtor
  std::vector<Peer> peers_;
  std::vector<Inbound> inbound_;
  std::mutex io_m_;  ///< guards inbox_/stop_ (never held with g_ wanted)
  std::vector<NetEvent> inbox_;
  bool stop_ = false;
  protocol::DeadlineHeap<NetEvent> heap_;  ///< I/O thread only
  std::thread io_thread_;
};

}  // namespace voronet::net
