#include "net/socket_transport.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/expect.hpp"
#include "net/wire_codec.hpp"

namespace voronet::net {

namespace {

/// SplitMix64 finaliser -- the jitter hash shared by every backend, so
/// retransmissions desynchronise identically on sim, thread and socket.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kMaxPooledPayload = 4096;
constexpr std::size_t kMaxPoolSize = 1024;
constexpr std::size_t kMaxPooledFrame = 1u << 16;
constexpr std::size_t kMaxFramePool = 256;
/// Compact an inbound reassembly buffer once this much is consumed.
constexpr std::size_t kCompactThreshold = 1u << 16;
constexpr std::size_t kReadChunk = 1u << 16;

[[nodiscard]] bool later(const double a_at, const std::uint64_t a_seq,
                         const double b_at, const std::uint64_t b_seq) {
  if (a_at != b_at) return a_at > b_at;
  return a_seq > b_seq;
}

}  // namespace

SocketTransport::SocketTransport(const NetworkConfig& config,
                                 SocketTransportConfig socket_config)
    : config_(config),
      socket_config_(std::move(socket_config)),
      start_(std::chrono::steady_clock::now()),
      rng_(config.seed) {
  VORONET_EXPECT(config.drop_probability >= 0.0 &&
                     config.drop_probability < 1.0,
                 "drop probability must lie in [0, 1)");
  VORONET_EXPECT(config.backoff_factor >= 1.0,
                 "retransmit backoff factor must be >= 1");
  VORONET_EXPECT(config.jitter >= 0.0 && config.jitter < 1.0,
                 "retransmit jitter must lie in [0, 1)");
  VORONET_EXPECT(socket_config_.patience > 0.0, "patience must be positive");
  rto_ = config.retransmit_timeout > 0.0
             ? config.retransmit_timeout
             : 2.0 * config.latency.high_quantile() + 0.01;
  rto_cap_ = config.rto_cap > 0.0 ? config.rto_cap : 16.0 * rto_;

  std::string err;
  Address listen_spec;
  if (socket_config_.listen.empty()) {
    listen_spec.family = Address::Family::kUnix;
    listen_spec.path = unique_uds_path();
  } else if (!parse_address(socket_config_.listen, listen_spec, err)) {
    throw std::runtime_error("SocketTransport: " + err);
  }
  listen_fd_ = open_listener(listen_spec, listen_addr_, err);
  if (listen_fd_ < 0) {
    throw std::runtime_error("SocketTransport: cannot listen on " +
                             listen_spec.spec() + ": " + err);
  }

  if (socket_config_.peers.empty()) {
    // Loopback: one peer, ourselves -- every frame round-trips through
    // the kernel and comes back in on an accepted connection.
    Peer self;
    self.addr = listen_addr_;
    peers_.push_back(std::move(self));
  } else {
    for (const std::string& spec : socket_config_.peers) {
      Peer peer;
      if (!parse_address(spec, peer.addr, err)) {
        ::close(listen_fd_);
        throw std::runtime_error("SocketTransport: " + err);
      }
      peers_.push_back(std::move(peer));
    }
  }

  for (std::size_t i = 0; i < peers_.size(); ++i) {
    NetEvent ev;
    ev.kind = NetEvent::kConnect;
    ev.peer = i;
    ev.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
    inbox_.push_back(std::move(ev));  // no thread yet: direct, unlocked
  }
  io_thread_ = std::thread([this] { io_loop(); });
}

SocketTransport::~SocketTransport() {
  {
    std::lock_guard<std::mutex> lk(io_m_);
    stop_ = true;
  }
  io_wake_.signal();
  io_thread_.join();
  for (Peer& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
  }
  for (Inbound& c : inbound_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(listen_fd_);
  if (listen_addr_.family == Address::Family::kUnix) {
    ::unlink(listen_addr_.path.c_str());
  }
}

double SocketTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double SocketTransport::backoff_timeout(std::uint64_t transfer_id,
                                        std::size_t attempts) const {
  const double exponent =
      std::min<double>(static_cast<double>(attempts - 1), 40.0);
  double timeout =
      std::min(rto_ * std::pow(config_.backoff_factor, exponent), rto_cap_);
  if (config_.jitter > 0.0) {
    const double u = static_cast<double>(
                         mix64(transfer_id * 0x2545f4914f6cdd1dULL +
                               attempts) >>
                         11) *
                     0x1.0p-53;
    timeout *= 1.0 + config_.jitter * (u - 0.5);
  }
  return timeout;
}

double SocketTransport::effective_drop_locked() const {
  double drop = config_.drop_probability;
  for (const double extra : loss_bursts_) drop += extra;
  return std::min(drop, 1.0);
}

bool SocketTransport::flag_locked(const std::vector<std::uint8_t>& flags,
                                  NodeId node) const {
  if (node < 0) return false;
  const auto idx = static_cast<std::size_t>(node);
  return idx < flags.size() && flags[idx] != 0;
}

void SocketTransport::set_flag(std::vector<std::uint8_t>& flags, NodeId node,
                               bool on) {
  if (node < 0) return;
  const auto idx = static_cast<std::size_t>(node);
  if (idx >= flags.size()) {
    if (!on) return;
    flags.resize(idx + 1, 0);
  }
  flags[idx] = on ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Slot table / payload pool / orphan window (the shared reliable-layer
// structures -- ThreadTransport's, verbatim)
// ---------------------------------------------------------------------------

SocketTransport::Transfer* SocketTransport::live_transfer_locked(
    std::uint32_t slot, std::uint64_t transfer_id) {
  if (slot == protocol::kNoTransferSlot || slot >= transfers_.size()) {
    return nullptr;
  }
  Transfer& t = transfers_[slot];
  return t.id == transfer_id ? &t : nullptr;
}

std::uint32_t SocketTransport::alloc_slot_locked() {
  ++in_flight_;
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  transfers_.emplace_back();
  return static_cast<std::uint32_t>(transfers_.size() - 1);
}

void SocketTransport::free_slot_locked(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  recycle_payload_locked(std::move(t.msg.entries));
  t.msg.entries.clear();
  t.id = 0;
  t.attempts = 1;
  t.delivered = false;
  t.settled = false;
  free_slots_.push_back(slot);
  VORONET_DCHECK(in_flight_ > 0);
  --in_flight_;
}

void SocketTransport::recycle_payload_locked(
    std::vector<ViewEntry>&& entries) {
  if (entries.capacity() == 0 || entries.capacity() > kMaxPooledPayload ||
      payload_pool_.size() >= kMaxPoolSize) {
    return;
  }
  entries.clear();
  payload_pool_.push_back(std::move(entries));
}

void SocketTransport::recycle_frame(std::vector<std::uint8_t>&& frame) {
  std::lock_guard<std::mutex> lk(g_);
  if (frame.capacity() == 0 || frame.capacity() > kMaxPooledFrame ||
      frame_pool_.size() >= kMaxFramePool) {
    return;
  }
  frame.clear();
  frame_pool_.push_back(std::move(frame));
}

SocketTransport::Message SocketTransport::draft(std::size_t reserve_entries) {
  std::lock_guard<std::mutex> lk(g_);
  Message m;
  if (!payload_pool_.empty()) {
    m.entries = std::move(payload_pool_.back());
    payload_pool_.pop_back();
  }
  if (reserve_entries > 0) m.entries.reserve(reserve_entries);
  return m;
}

bool SocketTransport::OrphanWindow::insert(std::uint64_t transfer_id,
                                           NodeId dst) {
  if (ring.empty()) ring.resize(protocol::Transport::kOrphanDedupCapacity);
  for (const Rec& r : ring) {
    if (r.transfer_id == transfer_id) return false;
  }
  Rec& r = ring[next];
  if (r.transfer_id != 0) --count;
  r.transfer_id = transfer_id;
  r.dst = dst;
  ++count;
  next = (next + 1) % ring.size();
  return true;
}

void SocketTransport::OrphanWindow::erase(std::uint64_t transfer_id) {
  for (Rec& r : ring) {
    if (r.transfer_id == transfer_id) {
      r = Rec{};
      --count;
      return;
    }
  }
}

void SocketTransport::OrphanWindow::erase_dst(NodeId dst) {
  for (Rec& r : ring) {
    if (r.transfer_id != 0 && r.dst == dst) {
      r = Rec{};
      --count;
    }
  }
}

std::size_t SocketTransport::dedup_entries() const {
  std::lock_guard<std::mutex> lk(g_);
  std::size_t n = orphans_.size();
  for (const Transfer& t : transfers_) {
    if (t.id != 0 && t.delivered) ++n;
  }
  return n;
}

std::size_t SocketTransport::dedup_window_size() const {
  std::lock_guard<std::mutex> lk(g_);
  return orphans_.size();
}

std::size_t SocketTransport::in_flight() const {
  std::lock_guard<std::mutex> lk(g_);
  return in_flight_;
}

std::size_t SocketTransport::stalled_backlog() const {
  std::lock_guard<std::mutex> lk(g_);
  return backlog_count_;
}

std::size_t SocketTransport::memory_bytes() const {
  std::lock_guard<std::mutex> lk(g_);
  std::size_t b = transfers_.size() * sizeof(Transfer);
  for (const Transfer& t : transfers_) {
    b += t.msg.entries.capacity() * sizeof(ViewEntry);
  }
  for (const auto& p : payload_pool_) b += p.capacity() * sizeof(ViewEntry);
  for (const auto& f : frame_pool_) b += f.capacity();
  b += free_slots_.capacity() * sizeof(std::uint32_t);
  b += orphans_.ring.capacity() * sizeof(OrphanWindow::Rec);
  b += crashed_.capacity() + stalled_.capacity();
  b += stall_backlog_.capacity() * sizeof(std::vector<Message>);
  for (const auto& backlog : stall_backlog_) {
    b += backlog.capacity() * sizeof(Message);
    for (const Message& m : backlog) {
      b += m.entries.capacity() * sizeof(ViewEntry);
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Send / failure injection (driving thread)
// ---------------------------------------------------------------------------

void SocketTransport::send(Message msg) {
  std::lock_guard<std::mutex> lk(g_);
  msg.transfer_id = next_transfer_++;
  ++stats_.sends;
  const bool reliable = msg.type != sim::MessageKind::kAck;
  if (!reliable) {
    transmit_locked(msg);
    recycle_payload_locked(std::move(msg.entries));
    return;
  }
  const std::uint32_t slot = alloc_slot_locked();
  msg.transfer_slot = slot;
  transmit_locked(msg);
  Transfer& t = transfers_[slot];
  t.id = msg.transfer_id;
  recycle_payload_locked(std::move(t.msg.entries));
  const std::uint64_t id = msg.transfer_id;
  t.msg = std::move(msg);
  t.attempts = 1;
  t.delivered = false;
  t.settled = false;
  NetEvent timer;
  timer.at = now() + backoff_timeout(id, 1);
  timer.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  timer.kind = NetEvent::kRetransmit;
  timer.slot = slot;
  timer.transfer = id;
  post(std::move(timer));
}

void SocketTransport::crash(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  set_flag(crashed_, node, true);
  set_flag(stalled_, node, false);
  if (node >= 0 && static_cast<std::size_t>(node) < stall_backlog_.size()) {
    backlog_count_ -= stall_backlog_[static_cast<std::size_t>(node)].size();
    stall_backlog_[static_cast<std::size_t>(node)].clear();
  }
}

void SocketTransport::stall(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  if (flag_locked(crashed_, node)) return;  // dead beats wedged
  set_flag(stalled_, node, true);
}

void SocketTransport::resume(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  if (!flag_locked(stalled_, node)) return;
  set_flag(stalled_, node, false);
  if (node < 0 || static_cast<std::size_t>(node) >= stall_backlog_.size()) {
    return;
  }
  std::vector<Message> backlog =
      std::move(stall_backlog_[static_cast<std::size_t>(node)]);
  stall_backlog_[static_cast<std::size_t>(node)].clear();
  backlog_count_ -= backlog.size();
  // Deliveries land in the upcall queue, so draining under g_ is safe:
  // nothing re-enters the application layer from here.
  for (Message& msg : backlog) receive_locked(std::move(msg));
}

void SocketTransport::resume_all() {
  std::vector<NodeId> wedged;
  {
    std::lock_guard<std::mutex> lk(g_);
    for (std::size_t n = 0; n < stalled_.size(); ++n) {
      if (stalled_[n] != 0) wedged.push_back(static_cast<NodeId>(n));
    }
  }
  for (const NodeId node : wedged) resume(node);
}

bool SocketTransport::crashed(NodeId node) const {
  std::lock_guard<std::mutex> lk(g_);
  return flag_locked(crashed_, node);
}

bool SocketTransport::stalled(NodeId node) const {
  std::lock_guard<std::mutex> lk(g_);
  return flag_locked(stalled_, node);
}

void SocketTransport::revive(NodeId node) {
  // Abandon predecessor-era transfers in ascending transfer-id order with
  // the crashed mark still set; the abandon handler runs outside g_ (it
  // may send afresh).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> stale;
  {
    std::lock_guard<std::mutex> lk(g_);
    for (std::uint32_t slot = 0; slot < transfers_.size(); ++slot) {
      const Transfer& t = transfers_[slot];
      if (t.id != 0 && (t.msg.src == node || t.msg.dst == node)) {
        stale.emplace_back(t.id, slot);
      }
    }
  }
  std::sort(stale.begin(), stale.end());
  for (const auto& [id, slot] : stale) {
    Message msg;
    bool live = false;
    {
      std::lock_guard<std::mutex> lk(g_);
      if (Transfer* t = live_transfer_locked(slot, id)) {
        live = true;
        ++stats_.abandoned;
        metrics_.record_transfer_attempts(t->attempts);
        msg = std::move(t->msg);
        free_slot_locked(slot);
      }
    }
    if (!live) continue;  // settled (ack raced) or re-abandoned already
    if (abandon_) abandon_(msg);
    std::lock_guard<std::mutex> lk(g_);
    recycle_payload_locked(std::move(msg.entries));
  }
  std::lock_guard<std::mutex> lk(g_);
  set_flag(crashed_, node, false);
  if (!orphans_.empty()) orphans_.erase_dst(node);
  set_flag(stalled_, node, false);
  if (node >= 0 && static_cast<std::size_t>(node) < stall_backlog_.size()) {
    backlog_count_ -= stall_backlog_[static_cast<std::size_t>(node)].size();
    stall_backlog_[static_cast<std::size_t>(node)].clear();
  }
}

void SocketTransport::begin_loss_burst(double extra_drop) {
  std::lock_guard<std::mutex> lk(g_);
  loss_bursts_.push_back(extra_drop);
}

void SocketTransport::end_loss_burst(double extra_drop) {
  std::lock_guard<std::mutex> lk(g_);
  const auto it =
      std::find(loss_bursts_.begin(), loss_bursts_.end(), extra_drop);
  if (it != loss_bursts_.end()) loss_bursts_.erase(it);
}

void SocketTransport::begin_latency_spike(double factor) {
  std::lock_guard<std::mutex> lk(g_);
  latency_spikes_.push_back(factor);
}

void SocketTransport::end_latency_spike(double factor) {
  std::lock_guard<std::mutex> lk(g_);
  const auto it =
      std::find(latency_spikes_.begin(), latency_spikes_.end(), factor);
  if (it != latency_spikes_.end()) latency_spikes_.erase(it);
}

void SocketTransport::begin_duplication(double probability) {
  std::lock_guard<std::mutex> lk(g_);
  duplications_.push_back(probability);
}

void SocketTransport::end_duplication(double probability) {
  std::lock_guard<std::mutex> lk(g_);
  const auto it =
      std::find(duplications_.begin(), duplications_.end(), probability);
  if (it != duplications_.end()) duplications_.erase(it);
}

void SocketTransport::set_link_filter(LinkFilter up) {
  std::lock_guard<std::mutex> lk(g_);
  link_up_ = std::move(up);
}

void SocketTransport::clear_link_filter() {
  std::lock_guard<std::mutex> lk(g_);
  link_up_ = nullptr;
}

// ---------------------------------------------------------------------------
// Wire (framing on the way out; loss and degradation drawn BEFORE bytes)
// ---------------------------------------------------------------------------

void SocketTransport::enqueue_frame_locked(const Message& msg, double delay) {
  std::vector<std::uint8_t> frame;
  if (!frame_pool_.empty()) {
    frame = std::move(frame_pool_.back());
    frame_pool_.pop_back();
    frame.clear();
  }
  encode_frame(msg, frame);
  NetEvent ev;
  ev.at = now() + delay;
  ev.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  ev.kind = NetEvent::kWrite;
  ev.peer = msg.dst < 0 ? 0
                        : static_cast<std::size_t>(msg.dst) % peers_.size();
  ev.frame = std::move(frame);
  wire_pending_.fetch_add(1);
  post(std::move(ev));
}

void SocketTransport::transmit_locked(const Message& msg) {
  ++stats_.transmissions;
  metrics_.count_message(msg.type);
  metrics_.count_wire_bytes(msg.type, wire_frame_size(msg));
  stats_.wire_bytes += wire_frame_size(msg);
  if (msg.type == sim::MessageKind::kAck) ++stats_.acks;
  const bool link_down = link_up_ && !link_up_(msg.src, msg.dst);
  const double drop = effective_drop_locked();
  if (link_down || (drop > 0.0 && rng_.chance(drop))) {
    ++stats_.dropped;
    return;  // a lost frame is never even encoded
  }
  double delay = config_.latency.sample(rng_);
  for (const double factor : latency_spikes_) delay *= factor;
  enqueue_frame_locked(msg, delay);
  if (!duplications_.empty()) {
    const double dup =
        *std::max_element(duplications_.begin(), duplications_.end());
    if (dup > 0.0 && rng_.chance(dup)) {
      ++stats_.injected_duplicates;
      double dup_delay = config_.latency.sample(rng_);
      for (const double factor : latency_spikes_) dup_delay *= factor;
      enqueue_frame_locked(msg, dup_delay);
    }
  }
}

void SocketTransport::receive_locked(Message msg) {
  Message ack;
  ack.type = sim::MessageKind::kAck;
  ack.src = msg.dst;
  ack.dst = msg.src;
  ack.transfer_id = msg.transfer_id;
  ack.transfer_slot = msg.transfer_slot;
  transmit_locked(ack);

  bool fresh;
  if (Transfer* t = live_transfer_locked(msg.transfer_slot,
                                         msg.transfer_id)) {
    fresh = !t->delivered;
    t->delivered = true;
  } else {
    fresh = orphans_.insert(msg.transfer_id, msg.dst);
  }
  if (!fresh) {
    ++stats_.duplicates;
    recycle_payload_locked(std::move(msg.entries));
    return;
  }
  ++stats_.delivered;
  Upcall up;
  up.kind = Upcall::kDeliver;
  up.msg = std::move(msg);
  push_upcall(std::move(up));
}

void SocketTransport::settle_locked(std::uint32_t slot,
                                    std::uint64_t transfer_id) {
  if (Transfer* t = live_transfer_locked(slot, transfer_id)) {
    metrics_.record_transfer_attempts(t->attempts);
    t->settled = true;  // the pending retransmit event is now a no-op
    // On a wall clock an ack can overtake a retransmission of its own
    // transfer (a slow host, a stalled thread).  The slot's delivered bit
    // dies here, so remember the transfer in the orphan window: that copy
    // then arrives as a duplicate, not as a second delivery.
    const bool copy_in_flight = t->attempts > 1;
    const NodeId dst = t->msg.dst;
    free_slot_locked(slot);
    if (copy_in_flight) {
      orphans_.insert(transfer_id, dst);
      return;
    }
  }
  if (!orphans_.empty()) orphans_.erase(transfer_id);
}

void SocketTransport::retransmit_locked(std::uint32_t slot,
                                        std::uint64_t transfer_id) {
  Transfer* t = live_transfer_locked(slot, transfer_id);
  if (t == nullptr) return;  // acknowledged in the meantime
  const bool give_up =
      flag_locked(crashed_, t->msg.dst) || flag_locked(crashed_, t->msg.src) ||
      (config_.max_retries > 0 && t->attempts > config_.max_retries);
  if (give_up) {
    ++stats_.abandoned;
    metrics_.record_transfer_attempts(t->attempts);
    Upcall up;
    up.kind = Upcall::kAbandon;
    up.msg = std::move(t->msg);
    free_slot_locked(slot);
    push_upcall(std::move(up));
    return;
  }
  ++t->attempts;
  ++stats_.retransmits;
  transmit_locked(t->msg);
  NetEvent timer;
  timer.at = now() + backoff_timeout(transfer_id, t->attempts);
  timer.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  timer.kind = NetEvent::kRetransmit;
  timer.slot = slot;
  timer.transfer = transfer_id;
  post(std::move(timer));
}

void SocketTransport::process_arrival(Message msg) {
  {
    std::lock_guard<std::mutex> lk(g_);
    if (msg.type == sim::MessageKind::kAck) {
      settle_locked(msg.transfer_slot, msg.transfer_id);
      recycle_payload_locked(std::move(msg.entries));
    } else if (flag_locked(crashed_, msg.dst)) {
      ++stats_.dropped;
      recycle_payload_locked(std::move(msg.entries));
    } else if (flag_locked(stalled_, msg.dst)) {
      ++stats_.stalled_deferred;
      const auto idx = static_cast<std::size_t>(msg.dst);
      if (idx >= stall_backlog_.size()) stall_backlog_.resize(idx + 1);
      stall_backlog_[idx].push_back(std::move(msg));
      ++backlog_count_;
    } else {
      receive_locked(std::move(msg));
    }
  }
  // Decrement AFTER the consequences (acks, upcalls) are published: the
  // driver's quiescence probe reads wire_pending_ first, so 0 means every
  // consequence is already visible to it.
  wire_pending_.fetch_sub(1);
  wake_.progress();
}

// ---------------------------------------------------------------------------
// I/O thread: poll loop, timed events, connect/reconnect, frame I/O
// ---------------------------------------------------------------------------

void SocketTransport::post(NetEvent ev) {
  {
    std::lock_guard<std::mutex> lk(io_m_);
    inbox_.push_back(std::move(ev));
  }
  io_wake_.signal();
}

void SocketTransport::process_due(NetEvent& ev) {
  switch (ev.kind) {
    case NetEvent::kWrite:
      peers_[ev.peer].outq.push_back(std::move(ev.frame));
      break;
    case NetEvent::kRetransmit: {
      std::lock_guard<std::mutex> lk(g_);
      retransmit_locked(ev.slot, ev.transfer);
      break;
    }
    case NetEvent::kConnect:
      try_connect(ev.peer);
      break;
  }
}

void SocketTransport::try_connect(std::size_t peer_index) {
  Peer& peer = peers_[peer_index];
  if (peer.fd >= 0) return;
  bool in_progress = false;
  std::string err;
  const int fd = start_connect(peer.addr, in_progress, err);
  if (fd < 0) {
    ++peer.attempts;
    const double exponent =
        std::min<double>(static_cast<double>(peer.attempts - 1), 20.0);
    const double wait = std::min(
        socket_config_.reconnect_base * std::pow(2.0, exponent),
        socket_config_.reconnect_cap);
    NetEvent retry;
    retry.at = now() + wait;
    retry.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
    retry.kind = NetEvent::kConnect;
    retry.peer = peer_index;
    heap_.push_back(std::move(retry));
    std::push_heap(heap_.begin(), heap_.end(),
                   [](const NetEvent& a, const NetEvent& b) {
                     return later(a.at, a.seq, b.at, b.seq);
                   });
    return;
  }
  peer.fd = fd;
  peer.connecting = in_progress;
  if (!in_progress) peer.attempts = 0;
}

void SocketTransport::peer_down(Peer& peer, std::size_t peer_index) {
  if (peer.fd >= 0) ::close(peer.fd);
  peer.fd = -1;
  peer.connecting = false;
  // Frames queued for a dead connection are wire losses: the reliable
  // layer's retransmit timers, which survive the connection, re-send.
  const std::size_t lost = peer.outq.size();
  if (lost > 0) {
    std::lock_guard<std::mutex> lk(g_);
    stats_.dropped += lost;
  }
  for (auto& frame : peer.outq) recycle_frame(std::move(frame));
  peer.outq.clear();
  peer.out_off = 0;
  if (lost > 0) wire_pending_.fetch_sub(lost);
  ++peer.attempts;
  const double exponent =
      std::min<double>(static_cast<double>(peer.attempts - 1), 20.0);
  const double wait =
      std::min(socket_config_.reconnect_base * std::pow(2.0, exponent),
               socket_config_.reconnect_cap);
  NetEvent retry;
  retry.at = now() + wait;
  retry.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  retry.kind = NetEvent::kConnect;
  retry.peer = peer_index;
  heap_.push_back(std::move(retry));
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const NetEvent& a, const NetEvent& b) {
                   return later(a.at, a.seq, b.at, b.seq);
                 });
  wake_.progress();
}

void SocketTransport::flush_peer(Peer& peer, std::size_t peer_index) {
  if (peer.fd < 0 || peer.connecting) return;
  while (!peer.outq.empty()) {
    std::vector<std::uint8_t>& frame = peer.outq.front();
    const ssize_t n =
        ::write(peer.fd, frame.data() + peer.out_off,
                frame.size() - peer.out_off);
    if (n > 0) {
      peer.out_off += static_cast<std::size_t>(n);
      if (peer.out_off == frame.size()) {
        recycle_frame(std::move(frame));
        peer.outq.pop_front();
        peer.out_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    peer_down(peer, peer_index);
    return;
  }
}

void SocketTransport::read_inbound(Inbound& conn) {
  bool closed = false;
  for (;;) {
    const std::size_t old = conn.buf.size();
    conn.buf.resize(old + kReadChunk);
    const ssize_t n = ::read(conn.fd, conn.buf.data() + old, kReadChunk);
    conn.buf.resize(old + (n > 0 ? static_cast<std::size_t>(n) : 0));
    if (n > 0) {
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error; finish decoding what we have -- a complete
    // frame followed by EOF is still a frame -- then drop the fd.
    closed = true;
    break;
  }
  for (;;) {
    Message msg;
    {
      std::lock_guard<std::mutex> lk(g_);
      if (!payload_pool_.empty()) {
        msg.entries = std::move(payload_pool_.back());
        payload_pool_.pop_back();
      }
    }
    std::size_t consumed = 0;
    std::string diag;
    const DecodeStatus st =
        decode_frame(conn.buf.data() + conn.off, conn.buf.size() - conn.off,
                     consumed, msg, &diag);
    if (st == DecodeStatus::kNeedMore) {
      std::lock_guard<std::mutex> lk(g_);
      recycle_payload_locked(std::move(msg.entries));
      break;
    }
    if (st != DecodeStatus::kOk) {
      // No resync point in a corrupt stream: drop the connection.  The
      // reliable layer retransmits anything that was lost with it.
      std::fprintf(stderr, "voronet socket: dropping connection: %s (%s)\n",
                   diag.c_str(), decode_status_name(st));
      ::close(conn.fd);
      conn.fd = -1;
      {
        std::lock_guard<std::mutex> lk(g_);
        recycle_payload_locked(std::move(msg.entries));
      }
      return;
    }
    conn.off += consumed;
    process_arrival(std::move(msg));
  }
  if (closed && conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  if (conn.off == conn.buf.size()) {
    conn.buf.clear();
    conn.off = 0;
  } else if (conn.off > kCompactThreshold) {
    conn.buf.erase(conn.buf.begin(),
                   conn.buf.begin() + static_cast<std::ptrdiff_t>(conn.off));
    conn.off = 0;
  }
}

void SocketTransport::io_loop() {
  const auto cmp = [](const NetEvent& a, const NetEvent& b) {
    return later(a.at, a.seq, b.at, b.seq);
  };
  struct PollRef {
    enum Kind : std::uint8_t { kWake, kListen, kPeer, kInbound } kind;
    std::size_t index = 0;
  };
  std::vector<pollfd> pfds;
  std::vector<PollRef> refs;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(io_m_);
      for (NetEvent& ev : inbox_) {
        heap_.push_back(std::move(ev));
        std::push_heap(heap_.begin(), heap_.end(), cmp);
      }
      inbox_.clear();
      if (stop_) break;
    }
    bool progressed = false;
    const double t = now();
    while (!heap_.empty() && heap_.front().at <= t) {
      std::pop_heap(heap_.begin(), heap_.end(), cmp);
      NetEvent ev = std::move(heap_.back());
      heap_.pop_back();
      process_due(ev);
      progressed = true;
    }
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      flush_peer(peers_[i], i);
    }
    if (progressed) continue;  // new events may have landed in the inbox

    pfds.clear();
    refs.clear();
    pfds.push_back({io_wake_.fd(), POLLIN, 0});
    refs.push_back({PollRef::kWake});
    pfds.push_back({listen_fd_, POLLIN, 0});
    refs.push_back({PollRef::kListen});
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      const Peer& p = peers_[i];
      if (p.fd < 0) continue;
      short events = POLLIN;
      if (p.connecting || !p.outq.empty()) events |= POLLOUT;
      pfds.push_back({p.fd, events, 0});
      refs.push_back({PollRef::kPeer, i});
    }
    for (std::size_t i = 0; i < inbound_.size(); ++i) {
      pfds.push_back({inbound_[i].fd, POLLIN, 0});
      refs.push_back({PollRef::kInbound, i});
    }
    // Sleep until the next frame or timer is due, to the nanosecond: a
    // millisecond-rounded wait would delay every hop of a query's chain.
    const double timeout =
        heap_.empty() ? std::numeric_limits<double>::infinity()
                      : heap_.front().at - now();
    if (poll_for(pfds.data(), pfds.size(), timeout) <= 0) continue;

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      switch (refs[i].kind) {
        case PollRef::kWake:
          io_wake_.drain();
          break;
        case PollRef::kListen: {
          for (;;) {
            const int fd = accept_conn(listen_fd_);
            if (fd < 0) break;
            Inbound conn;
            conn.fd = fd;
            inbound_.push_back(std::move(conn));
          }
          break;
        }
        case PollRef::kPeer: {
          Peer& p = peers_[refs[i].index];
          if (p.fd != pfds[i].fd) break;  // closed earlier this pass
          if (p.connecting) {
            if ((revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
              const int soerr = finish_connect(p.fd);
              if (soerr == 0) {
                p.connecting = false;
                p.attempts = 0;
              } else {
                peer_down(p, refs[i].index);
                break;
              }
            }
          }
          if ((revents & (POLLERR | POLLHUP)) != 0) {
            peer_down(p, refs[i].index);
            break;
          }
          if ((revents & POLLIN) != 0) {
            // Peers never send data back on our outbound connection in
            // this topology; readable here means EOF or junk.
            char buf[256];
            const ssize_t n = ::read(p.fd, buf, sizeof(buf));
            if (n == 0 ||
                (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
              peer_down(p, refs[i].index);
              break;
            }
          }
          flush_peer(p, refs[i].index);
          break;
        }
        case PollRef::kInbound: {
          Inbound& conn = inbound_[refs[i].index];
          if (conn.fd != pfds[i].fd) break;
          read_inbound(conn);
          break;
        }
      }
    }
    // Reap inbound connections closed during dispatch (EOF, decode error).
    std::erase_if(inbound_, [](const Inbound& conn) { return conn.fd < 0; });
  }
}

// ---------------------------------------------------------------------------
// Driving (application thread)
// ---------------------------------------------------------------------------

void SocketTransport::push_upcall(Upcall up) {
  {
    std::lock_guard<std::mutex> lk(up_m_);
    upcalls_.push_back(std::move(up));
  }
  wake_.work();
}

void SocketTransport::schedule(double delay, Task fn) {
  const auto cmp = [](const DriverTimer& a, const DriverTimer& b) {
    return later(a.at, a.seq, b.at, b.seq);
  };
  DriverTimer timer;
  timer.at = now() + std::max(delay, 0.0);
  timer.seq = timer_seq_++;
  timer.fn = std::move(fn);
  timers_.push_back(std::move(timer));
  std::push_heap(timers_.begin(), timers_.end(), cmp);
}

double SocketTransport::next_deadline() const {
  return timers_.empty() ? std::numeric_limits<double>::infinity()
                         : timers_.front().at;
}

int SocketTransport::arm_driver_wake() {
  std::lock_guard<std::mutex> lk(up_m_);
  return wake_.arm(!upcalls_.empty());
}

bool SocketTransport::upcalls_queued() const {
  std::lock_guard<std::mutex> lk(up_m_);
  return !upcalls_.empty();
}

protocol::NetworkStats SocketTransport::stats() const {
  std::lock_guard<std::mutex> lk(g_);
  return stats_;
}

std::size_t SocketTransport::pump() {
  const auto cmp = [](const DriverTimer& a, const DriverTimer& b) {
    return later(a.at, a.seq, b.at, b.seq);
  };
  wake_.disarm();
  std::size_t processed = 0;
  for (;;) {
    if (!timers_.empty() && timers_.front().at <= now()) {
      std::pop_heap(timers_.begin(), timers_.end(), cmp);
      DriverTimer timer = std::move(timers_.back());
      timers_.pop_back();
      ++processed;
      timer.fn();
      continue;
    }
    Upcall up;
    {
      std::lock_guard<std::mutex> lk(up_m_);
      if (upcalls_.empty()) break;
      up = std::move(upcalls_.front());
      upcalls_.pop_front();
    }
    ++processed;
    if (up.kind == Upcall::kDeliver) {
      if (sink_) sink_(up.msg);
    } else {
      if (abandon_) abandon_(up.msg);
    }
    std::lock_guard<std::mutex> lk(g_);
    recycle_payload_locked(std::move(up.msg.entries));
  }
  return processed;
}

bool SocketTransport::quiescent() const {
  if (wire_pending_.load() != 0) return false;
  {
    std::lock_guard<std::mutex> lk(g_);
    if (in_flight_ != 0) return false;
  }
  {
    std::lock_guard<std::mutex> lk(up_m_);
    if (!upcalls_.empty()) return false;
  }
  return timers_.empty();
}

protocol::Transport::RunResult SocketTransport::run_to_idle(
    std::size_t max_events) {
  const double give_up = now() + socket_config_.patience;
  RunResult result;
  for (;;) {
    result.processed += pump();
    if (result.processed >= max_events) {
      result.budget_exhausted = true;
      return result;
    }
    if (quiescent()) return result;
    const double t = now();
    if (t >= give_up) {
      result.budget_exhausted = true;
      return result;
    }
    wake_.park(protocol::DriverWake::Wait::kProgress,
               std::min(next_deadline(), give_up) - t,
               [this] { return upcalls_queued() || quiescent(); });
  }
}

protocol::Transport::RunResult SocketTransport::run_until(double horizon) {
  RunResult result;
  for (;;) {
    result.processed += pump();
    const double t = now();
    if (t >= horizon) return result;
    wake_.park(protocol::DriverWake::Wait::kWork,
               std::min(next_deadline(), horizon) - t,
               [this] { return upcalls_queued(); });
  }
}

}  // namespace voronet::net
