// The in-process wall-clock Transport backend: actor shard threads with
// timed mailboxes play the wire.
//
// Where SimTransport *simulates* the wire inside one deterministic event
// queue, ThreadTransport *is* a wire: a pool of shard threads.  Every node
// is an actor whose mailbox (an MPSC deadline heap) is owned by the shard
// thread for node % shards; senders -- the driving thread and other
// shards -- post into it, and only the owning shard consumes.  Latency is
// a real monotonic-clock deadline (a message "in flight" occupies no
// thread).  A carried wire attempt waits in the destination's mailbox, a
// retransmit timer in the sender's; when one comes due, the shard hands it
// to the reliable core under the shared state lock.
//
// Everything above the mailboxes -- the reliable core, the upcall queue
// that keeps the sink and the abandon handler on the driving thread, the
// driver's timers and wake -- is the shared wall-clock driver
// (wall_clock_transport.hpp), whose threading contract applies here.
//
// NOT deterministic: arrival interleaving is real.  The scenario replay
// machinery requires SimTransport; this backend exists for the serving
// layer (src/serve) and wall-clock benches, where p50/p99 latency under
// open-loop load is the point.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "protocol/wall_clock_transport.hpp"

namespace voronet::protocol {

class ThreadTransport final : public WallClockTransport {
 public:
  /// `shards`: actor threads (0 = derive from hardware_concurrency).
  explicit ThreadTransport(const NetworkConfig& config, unsigned shards = 0);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  [[nodiscard]] const char* backend_name() const override { return "thread"; }

  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }

 private:
  /// A timed event owned by one shard: a carried wire attempt (data or
  /// ack) at its destination's mailbox, or a retransmit timer.
  struct WireEvent {
    double at = 0.0;        ///< monotonic deadline (seconds since start)
    std::uint64_t seq = 0;  ///< FIFO tie-break within a shard
    enum Kind : std::uint8_t { kWire, kRetransmit } kind = kWire;
    Message msg;                 ///< kWire payload
    std::uint32_t slot = 0;      ///< kRetransmit: transfer slot
    std::uint64_t transfer = 0;  ///< kRetransmit: generation check
  };

  struct Shard {
    std::mutex m;
    std::condition_variable cv;
    std::vector<WireEvent> inbox;  ///< MPSC injection side
    DeadlineHeap<WireEvent> heap;  ///< owner-only
    bool stop = false;
  };

  [[nodiscard]] Shard& shard_of(NodeId node) {
    const auto n = static_cast<std::uint64_t>(node < 0 ? 0 : node);
    return *shards_[static_cast<std::size_t>(n % shards_.size())];
  }

  // ReliableCore::Link (called under g_).
  void carry(const Message& msg, double delay) override;
  sim::TimerId arm_retransmit(const Message& t, double timeout) override;

  void shard_loop(Shard& shard);
  static void post(Shard& shard, WireEvent ev);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
};

}  // namespace voronet::protocol
