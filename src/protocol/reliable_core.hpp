// The reliable-delivery core: the one state machine every Transport
// backend runs above its wire.
//
// Every wire attempt is counted (per message type and in serialized
// bytes, net::wire_frame_size), may be lost (drop probability, loss
// bursts, partition filter) and otherwise reaches the Link, which carries
// it to arrive() after a delay drawn from the LatencyModel.  Non-ack
// messages are delivered reliably: the receiving side acknowledges, the
// sender retransmits on a capped-exponential, deterministically jittered
// timeout until acknowledged, the destination is observed crashed, or the
// retry cap is hit.  Duplicate arrivals -- retransmissions after a lost
// ack, duplication-window copies -- are suppressed by a delivered bit on
// the transfer's slot while it is pending, plus a small bounded window
// for arrivals that outlive their slot.  A settle that leaves a
// retransmission on the wire (the ack overtook it) records the transfer
// in that window, so the late copy arrives as a duplicate.
//
// A Link is the only backend-specific part below the driver: it carries a
// surviving wire attempt to arrive() after a delay, arms (and on the sim
// cancels) the retransmit timer that calls retransmit(), reads the clock,
// and hands a delivery or abandon to the driver.  SimTransport's link is
// the event queue and calls the sink inline; the wall-clock links queue
// an upcall for the driving thread.
//
// The core takes no locks.  The wall-clock backends call every member
// under their one state mutex; revive() is the exception that steps
// outside it to run the abandon handler (see there).
//
// Storage (DESIGN.md, "Memory layout & arenas"): reliable transfers live
// in a slot table with free-list recycling -- the slot index travels in
// Message::transfer_slot so acks and timers resolve their transfer
// without a hash lookup, while the monotone transfer_id stays the
// identity (slot occupancy is generation-checked against it).  Settled
// payload vectors are recycled through an explicit pool (draft()), and
// the crashed/stalled marks are dense per-node bitmaps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "protocol/message.hpp"
#include "protocol/transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace voronet::protocol {

/// What the core hands to the driver: a delivery for the sink, or a
/// reliable transfer given up on, for the abandon handler.
enum class Upcall : std::uint8_t { kDeliver, kAbandon };

class ReliableCore {
 public:
  /// The wire under the core.  All calls come from inside core members,
  /// so on the wall-clock backends they run under the state mutex.
  class Link {
   public:
    /// The backend's clock: virtual or monotonic wall seconds.
    [[nodiscard]] virtual double now() const = 0;
    /// A wire attempt survived loss: call arrive() with a copy of `msg`
    /// after `delay` seconds.
    virtual void carry(const Message& msg, double delay) = 0;
    /// Call retransmit(t.transfer_slot, t.transfer_id) after `timeout`
    /// seconds, where `t` is the transfer's stored message.  Returns a
    /// handle for cancel_retransmit(), or sim::kNoTimer.
    virtual sim::TimerId arm_retransmit(const Message& t, double timeout) = 0;
    /// Suppress an armed timer.  Optional: a timer left to fire finds its
    /// transfer gone and does nothing.
    virtual void cancel_retransmit(sim::TimerId) {}
    /// Hand `msg` to the driver, which runs hand_up() and then returns
    /// the payload through recycle_payload().
    virtual void upcall(Upcall kind, Message&& msg) = 0;

   protected:
    ~Link() = default;
  };

  ReliableCore(const NetworkConfig& config, Link& link);
  ReliableCore(const ReliableCore&) = delete;
  ReliableCore& operator=(const ReliableCore&) = delete;

  void set_sink(Transport::Sink sink) { sink_ = std::move(sink); }
  void set_abandon_handler(Transport::AbandonHandler handler) {
    abandon_ = std::move(handler);
  }
  /// Runs the sink or the abandon handler on `msg`.  Driver only, outside
  /// any lock: the handlers may send.
  void hand_up(Upcall kind, const Message& msg) const;

  /// A blank message whose payload vector comes from the retired-payload
  /// pool, with capacity for at least `reserve_entries`.
  [[nodiscard]] Message draft(std::size_t reserve_entries = 0);
  /// Return a payload vector's capacity to the draft pool.
  void recycle_payload(std::vector<ViewEntry>&& entries);

  /// Send msg.src -> msg.dst.  Reliable for every kind except kAck; the
  /// transfer id is assigned here.
  void send(Message msg);

  // --- Link side -----------------------------------------------------------

  /// A carried wire attempt reached msg.dst: an ack settles its transfer,
  /// a crashed destination drops it, a stalled one parks it, anything
  /// else is received (acked, de-duplicated, handed up).
  void arrive(Message msg);
  /// The transfer's retransmit timer fired: resend, or give up when an
  /// endpoint crashed or the retry cap is hit.  Stale timers are no-ops.
  void retransmit(std::uint32_t slot, std::uint64_t transfer_id);
  /// Wire attempts the link lost on its own (a dropped connection).
  void count_lost(std::size_t n) { stats_.dropped += n; }

  // --- Failure injection ---------------------------------------------------

  /// Crash-stop: the node stops receiving AND stops resending -- reliable
  /// transfers touching it on either side are abandoned when their
  /// timeout next fires.  Packets already in flight still arrive, as they
  /// would on a real network.  Discards a parked stall backlog.
  void crash(NodeId node);
  /// Clear the crashed mark of a recycled id.  Reliable transfers still
  /// armed from the dead predecessor's era are abandoned first, in
  /// ascending transfer-id order and with the crashed mark still set, so
  /// the abandon handler observes which side died; then the
  /// predecessor's dedup records, stall backlog and flight-recorder ring
  /// are dropped -- a recycled id inherits nothing.
  ///
  /// `outside(fn)` runs fn, the abandon handler's call, outside the
  /// caller's lock and retakes it: a wall-clock backend passes an unlock/
  /// relock of its state mutex, the sim just calls fn.  Transfers are
  /// re-checked after every call, since the handler may send and, with
  /// the lock dropped, other threads may settle.
  template <typename Outside>
  void revive(NodeId node, Outside&& outside) {
    for (const auto& [id, slot] : transfers_touching(node)) {
      Transfer* t = live_transfer(slot, id);
      if (t == nullptr) continue;  // settled or abandoned since
      link_.cancel_retransmit(t->timer);
      Message msg = take_abandoned(slot);
      outside([&] { hand_up(Upcall::kAbandon, msg); });
      recycle_payload(std::move(msg.entries));
    }
    clear_residue(node);
  }
  [[nodiscard]] bool crashed(NodeId node) const {
    return flag(crashed_, node);
  }

  /// Stall: the node's process stops but the node is NOT dead.  Inbound
  /// non-ack messages are parked unacknowledged (so senders retransmit --
  /// the failure detector's false-positive path) and received in arrival
  /// order on resume.  Acks for the node's own sends still settle and its
  /// retransmit timers keep driving: the process is wedged, not the host.
  void stall(NodeId node);
  void resume(NodeId node);
  void resume_all();
  [[nodiscard]] bool stalled(NodeId node) const {
    return flag(stalled_, node);
  }

  /// Degradation windows.  Windows nest: drop probabilities add (clamped
  /// to 1), latency factors multiply, duplication takes the strongest
  /// window.  end_* removes one matching begin_*.
  void begin_loss_burst(double extra_drop) {
    loss_bursts_.push_back(extra_drop);
  }
  void end_loss_burst(double extra_drop) {
    close_window(loss_bursts_, extra_drop);
  }
  void begin_latency_spike(double factor) {
    latency_spikes_.push_back(factor);
  }
  void end_latency_spike(double factor) {
    close_window(latency_spikes_, factor);
  }
  void begin_duplication(double probability) {
    duplications_.push_back(probability);
  }
  void end_duplication(double probability) {
    close_window(duplications_, probability);
  }

  /// Messages on a down link are lost on transmission; retransmit timers
  /// keep reliable traffic alive until the partition heals.
  void set_link_filter(Transport::LinkFilter up) { link_up_ = std::move(up); }
  void clear_link_filter() { link_up_ = nullptr; }

  // --- Accounting ----------------------------------------------------------

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t stalled_backlog() const { return backlog_count_; }
  /// Delivered bits on live transfer slots plus the orphan window:
  /// bounded by in_flight() + kOrphanDedupCapacity by construction.
  [[nodiscard]] std::size_t dedup_entries() const;
  [[nodiscard]] std::size_t dedup_window_size() const {
    return orphans_.size();
  }
  /// Transfer slots (with their payload capacity), the payload pool,
  /// per-node bitmaps, stall backlogs and the dedup window.
  [[nodiscard]] std::size_t memory_bytes() const;

  [[nodiscard]] sim::Metrics& metrics() { return metrics_; }
  [[nodiscard]] const sim::Metrics& metrics() const { return metrics_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] double retransmit_timeout() const { return rto_; }

  // --- Observability -------------------------------------------------------
  //
  // Non-owning.  Every use is guarded by enabled(), so the cost with
  // tracing off is one branch per site.  Reliable transfers get one span
  // each (parented to the message's carried span) whose instants record
  // the retransmission timeline; the recorder logs send / deliver / drop /
  // park / dedup / retransmit / abandon plus crash / stall / resume.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

 private:
  /// One reliable-transfer slot.  id == 0 marks a free slot (real
  /// transfer ids start at 1); the slot's Message keeps its payload
  /// vector across occupancies, so steady-state traffic allocates
  /// nothing here.
  struct Transfer {
    Message msg;
    std::uint64_t id = 0;  ///< occupancy check: matches msg.transfer_id
    std::size_t attempts = 1;
    sim::TimerId timer = sim::kNoTimer;
    obs::SpanId span = obs::kNoSpan;  ///< transfer span while tracing
    bool delivered = false;           ///< receiver-side dedup bit
  };

  /// Bounded FIFO of dedup records for transfers whose slot is gone.
  /// Almost always empty, so the linear scans are on a cold path.
  struct OrphanWindow {
    struct Rec {
      std::uint64_t transfer_id = 0;  ///< 0 = vacant
      NodeId dst = kNoNode;
    };
    std::vector<Rec> ring;
    std::size_t next = 0;   ///< FIFO overwrite cursor
    std::size_t count = 0;  ///< live records

    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] std::size_t size() const { return count; }
    /// False when the transfer is already recorded (duplicate arrival).
    bool insert(std::uint64_t transfer_id, NodeId dst);
    void erase(std::uint64_t transfer_id);
    void erase_dst(NodeId dst);
  };

  [[nodiscard]] bool tracing() const {
    return tracer_ != nullptr && tracer_->enabled();
  }
  [[nodiscard]] bool recording() const {
    return recorder_ != nullptr && recorder_->enabled();
  }
  void record(NodeId node, obs::FlightEvent event, const Message& msg,
              NodeId peer);

  [[nodiscard]] static bool flag(const std::vector<std::uint8_t>& flags,
                                 NodeId node) {
    return node >= 0 && static_cast<std::size_t>(node) < flags.size() &&
           flags[static_cast<std::size_t>(node)] != 0;
  }
  static void set_flag(std::vector<std::uint8_t>& flags, NodeId node,
                       bool on);
  static void close_window(std::vector<double>& windows, double value) {
    const auto it = std::find(windows.begin(), windows.end(), value);
    if (it != windows.end()) windows.erase(it);
  }

  /// The transfer slot for (slot, transfer_id), or nullptr when the slot
  /// has been recycled since (generation check).
  [[nodiscard]] Transfer* live_transfer(std::uint32_t slot,
                                        std::uint64_t transfer_id);
  std::uint32_t alloc_slot();
  /// Release the slot: retire its payload to the pool, push it on the
  /// free list.
  void free_slot(std::uint32_t slot);

  /// One wire attempt: count it, lose it or hand it to the link.
  void transmit(const Message& msg);
  /// One latency draw, stretched by the open spike windows.
  [[nodiscard]] double sample_delay();
  void receive(Message msg);
  void settle(std::uint32_t slot, std::uint64_t transfer_id);
  /// Armed timeout for the transfer's next attempt: capped exponential
  /// backoff plus deterministic per-(transfer, attempt) jitter.
  [[nodiscard]] double backoff_timeout(std::uint64_t transfer_id,
                                       std::size_t attempts) const;
  [[nodiscard]] double effective_drop() const;
  void arm_timer(Transfer& t);
  /// Give-up bookkeeping; frees the slot and returns its message.
  Message take_abandoned(std::uint32_t slot);
  /// Live transfers with `node` at either end, as (id, slot) in ascending
  /// id order: the abandon handler may send, so revive's order must be a
  /// property of the run, not of the slot table's recycling history.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint32_t>>
  transfers_touching(NodeId node) const;
  /// revive()'s last step: clear the mark, dedup, stall and recorder
  /// residue of the predecessor.
  void clear_residue(NodeId node);
  /// Discard a node's parked backlog.
  void drop_backlog(NodeId node);

  NetworkConfig config_;
  Link& link_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  double rto_;
  double rto_cap_;
  Transport::Sink sink_;
  Transport::AbandonHandler abandon_;
  Rng rng_;
  sim::Metrics metrics_;
  NetworkStats stats_;
  std::uint64_t next_transfer_ = 1;

  /// Transfer slot table (deque: stable addresses across growth, so a
  /// slot reference survives allocations made by reentrant sends).
  std::deque<Transfer> transfers_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t in_flight_ = 0;
  OrphanWindow orphans_;
  /// Retired payload vectors for draft() (bounded; capacity recycled).
  std::vector<std::vector<ViewEntry>> payload_pool_;

  /// Dense per-node transport marks, indexed by NodeId.
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> stalled_;
  Transport::LinkFilter link_up_;

  /// Arrival-ordered backlog of each stalled node (drained on resume,
  /// discarded on crash), indexed by NodeId.
  std::vector<std::vector<Message>> stall_backlog_;
  std::size_t backlog_count_ = 0;
  /// Open degradation windows (tiny: scenarios open a handful at most).
  std::vector<double> loss_bursts_;
  std::vector<double> latency_spikes_;
  std::vector<double> duplications_;
};

}  // namespace voronet::protocol
