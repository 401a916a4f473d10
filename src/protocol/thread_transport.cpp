#include "protocol/thread_transport.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/expect.hpp"
#include "net/wire_format.hpp"

namespace voronet::protocol {

namespace {

/// SplitMix64 finaliser -- same jitter hash as protocol::Network, so both
/// backends desynchronise retransmissions the same way.
[[nodiscard]] std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::size_t kMaxPooledPayload = 4096;
constexpr std::size_t kMaxPoolSize = 1024;

/// Min-heap order on (deadline, seq).
[[nodiscard]] bool later(const double a_at, const std::uint64_t a_seq,
                         const double b_at, const std::uint64_t b_seq) {
  if (a_at != b_at) return a_at > b_at;
  return a_seq > b_seq;
}

}  // namespace

ThreadTransport::ThreadTransport(const NetworkConfig& config, unsigned shards,
                                 double patience)
    : config_(config),
      patience_(patience),
      start_(std::chrono::steady_clock::now()),
      rng_(config.seed) {
  VORONET_EXPECT(config.drop_probability >= 0.0 &&
                     config.drop_probability < 1.0,
                 "drop probability must lie in [0, 1)");
  VORONET_EXPECT(config.backoff_factor >= 1.0,
                 "retransmit backoff factor must be >= 1");
  VORONET_EXPECT(config.jitter >= 0.0 && config.jitter < 1.0,
                 "retransmit jitter must lie in [0, 1)");
  VORONET_EXPECT(patience > 0.0, "patience must be positive");
  rto_ = config.retransmit_timeout > 0.0
             ? config.retransmit_timeout
             : 2.0 * config.latency.high_quantile() + 0.01;
  rto_cap_ = config.rto_cap > 0.0 ? config.rto_cap : 16.0 * rto_;

  if (shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    shards = std::clamp(hw == 0 ? 2u : hw, 1u, 8u);
  }
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  threads_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    threads_.emplace_back([this, i] { shard_loop(*shards_[i]); });
  }
}

ThreadTransport::~ThreadTransport() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->m);
    shard->stop = true;
    shard->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
}

double ThreadTransport::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double ThreadTransport::backoff_timeout(std::uint64_t transfer_id,
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

double ThreadTransport::effective_drop_locked() const {
  double drop = config_.drop_probability;
  for (const double extra : loss_bursts_) drop += extra;
  return std::min(drop, 1.0);
}

bool ThreadTransport::flag_locked(const std::vector<std::uint8_t>& flags,
                                  NodeId node) const {
  if (node < 0) return false;
  const auto idx = static_cast<std::size_t>(node);
  return idx < flags.size() && flags[idx] != 0;
}

void ThreadTransport::set_flag(std::vector<std::uint8_t>& flags, NodeId node,
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
// Slot table / payload pool / orphan window (Network's structures verbatim)
// ---------------------------------------------------------------------------

ThreadTransport::Transfer* ThreadTransport::live_transfer_locked(
    std::uint32_t slot, std::uint64_t transfer_id) {
  if (slot == kNoTransferSlot || slot >= transfers_.size()) return nullptr;
  Transfer& t = transfers_[slot];
  return t.id == transfer_id ? &t : nullptr;
}

std::uint32_t ThreadTransport::alloc_slot_locked() {
  ++in_flight_;
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  transfers_.emplace_back();
  return static_cast<std::uint32_t>(transfers_.size() - 1);
}

void ThreadTransport::free_slot_locked(std::uint32_t slot) {
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

void ThreadTransport::recycle_payload_locked(
    std::vector<ViewEntry>&& entries) {
  if (entries.capacity() == 0 || entries.capacity() > kMaxPooledPayload ||
      payload_pool_.size() >= kMaxPoolSize) {
    return;
  }
  entries.clear();
  payload_pool_.push_back(std::move(entries));
}

Message ThreadTransport::draft(std::size_t reserve_entries) {
  std::lock_guard<std::mutex> lk(g_);
  Message m;
  if (!payload_pool_.empty()) {
    m.entries = std::move(payload_pool_.back());
    payload_pool_.pop_back();
  }
  if (reserve_entries > 0) m.entries.reserve(reserve_entries);
  return m;
}

bool ThreadTransport::OrphanWindow::insert(std::uint64_t transfer_id,
                                           NodeId dst) {
  if (ring.empty()) ring.resize(Transport::kOrphanDedupCapacity);
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

void ThreadTransport::OrphanWindow::erase(std::uint64_t transfer_id) {
  for (Rec& r : ring) {
    if (r.transfer_id == transfer_id) {
      r = Rec{};
      --count;
      return;
    }
  }
}

void ThreadTransport::OrphanWindow::erase_dst(NodeId dst) {
  for (Rec& r : ring) {
    if (r.transfer_id != 0 && r.dst == dst) {
      r = Rec{};
      --count;
    }
  }
}

std::size_t ThreadTransport::dedup_entries() const {
  std::lock_guard<std::mutex> lk(g_);
  std::size_t n = orphans_.size();
  for (const Transfer& t : transfers_) {
    if (t.id != 0 && t.delivered) ++n;
  }
  return n;
}

std::size_t ThreadTransport::dedup_window_size() const {
  std::lock_guard<std::mutex> lk(g_);
  return orphans_.size();
}

std::size_t ThreadTransport::in_flight() const {
  std::lock_guard<std::mutex> lk(g_);
  return in_flight_;
}

std::size_t ThreadTransport::stalled_backlog() const {
  std::lock_guard<std::mutex> lk(g_);
  return backlog_count_;
}

std::size_t ThreadTransport::memory_bytes() const {
  std::lock_guard<std::mutex> lk(g_);
  std::size_t b = transfers_.size() * sizeof(Transfer);
  for (const Transfer& t : transfers_) {
    b += t.msg.entries.capacity() * sizeof(ViewEntry);
  }
  for (const auto& p : payload_pool_) b += p.capacity() * sizeof(ViewEntry);
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

void ThreadTransport::send(Message msg) {
  std::lock_guard<std::mutex> lk(g_);
  msg.transfer_id = next_transfer_++;
  ++stats_.sends;
  const bool reliable = msg.type != sim::MessageKind::kAck;
  if (!reliable) {
    transmit_locked(msg);
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
  WireEvent timer;
  timer.at = now() + backoff_timeout(id, 1);
  timer.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  timer.kind = WireEvent::kRetransmit;
  timer.slot = slot;
  timer.transfer = id;
  post(shard_of(t.msg.src), std::move(timer));
}

void ThreadTransport::crash(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  set_flag(crashed_, node, true);
  set_flag(stalled_, node, false);
  if (node >= 0 && static_cast<std::size_t>(node) < stall_backlog_.size()) {
    backlog_count_ -= stall_backlog_[static_cast<std::size_t>(node)].size();
    stall_backlog_[static_cast<std::size_t>(node)].clear();
  }
}

void ThreadTransport::stall(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  if (flag_locked(crashed_, node)) return;  // dead beats wedged
  set_flag(stalled_, node, true);
}

void ThreadTransport::resume(NodeId node) {
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

void ThreadTransport::resume_all() {
  std::vector<NodeId> wedged;
  {
    std::lock_guard<std::mutex> lk(g_);
    for (std::size_t n = 0; n < stalled_.size(); ++n) {
      if (stalled_[n] != 0) wedged.push_back(static_cast<NodeId>(n));
    }
  }
  for (const NodeId node : wedged) resume(node);
}

bool ThreadTransport::crashed(NodeId node) const {
  std::lock_guard<std::mutex> lk(g_);
  return flag_locked(crashed_, node);
}

bool ThreadTransport::stalled(NodeId node) const {
  std::lock_guard<std::mutex> lk(g_);
  return flag_locked(stalled_, node);
}

void ThreadTransport::revive(NodeId node) {
  // Abandon predecessor-era transfers in ascending transfer-id order with
  // the crashed mark still set, exactly like Network::revive -- but the
  // abandon handler runs outside g_ (it may send afresh).
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

void ThreadTransport::begin_loss_burst(double extra_drop) {
  std::lock_guard<std::mutex> lk(g_);
  loss_bursts_.push_back(extra_drop);
}

void ThreadTransport::end_loss_burst(double extra_drop) {
  std::lock_guard<std::mutex> lk(g_);
  const auto it =
      std::find(loss_bursts_.begin(), loss_bursts_.end(), extra_drop);
  if (it != loss_bursts_.end()) loss_bursts_.erase(it);
}

void ThreadTransport::begin_latency_spike(double factor) {
  std::lock_guard<std::mutex> lk(g_);
  latency_spikes_.push_back(factor);
}

void ThreadTransport::end_latency_spike(double factor) {
  std::lock_guard<std::mutex> lk(g_);
  const auto it =
      std::find(latency_spikes_.begin(), latency_spikes_.end(), factor);
  if (it != latency_spikes_.end()) latency_spikes_.erase(it);
}

void ThreadTransport::begin_duplication(double probability) {
  std::lock_guard<std::mutex> lk(g_);
  duplications_.push_back(probability);
}

void ThreadTransport::end_duplication(double probability) {
  std::lock_guard<std::mutex> lk(g_);
  const auto it =
      std::find(duplications_.begin(), duplications_.end(), probability);
  if (it != duplications_.end()) duplications_.erase(it);
}

void ThreadTransport::set_link_filter(LinkFilter up) {
  std::lock_guard<std::mutex> lk(g_);
  link_up_ = std::move(up);
}

void ThreadTransport::clear_link_filter() {
  std::lock_guard<std::mutex> lk(g_);
  link_up_ = nullptr;
}

// ---------------------------------------------------------------------------
// Wire (shard threads; all helpers run under g_)
// ---------------------------------------------------------------------------

void ThreadTransport::transmit_locked(const Message& msg) {
  ++stats_.transmissions;
  metrics_.count_message(msg.type);
  metrics_.count_wire_bytes(msg.type, net::wire_frame_size(msg));
  stats_.wire_bytes += net::wire_frame_size(msg);
  if (msg.type == sim::MessageKind::kAck) ++stats_.acks;
  const bool link_down = link_up_ && !link_up_(msg.src, msg.dst);
  const double drop = effective_drop_locked();
  if (link_down || (drop > 0.0 && rng_.chance(drop))) {
    ++stats_.dropped;
    return;
  }
  double delay = config_.latency.sample(rng_);
  for (const double factor : latency_spikes_) delay *= factor;
  WireEvent ev;
  ev.at = now() + delay;
  ev.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  ev.kind = msg.type == sim::MessageKind::kAck ? WireEvent::kAck
                                               : WireEvent::kArrive;
  ev.msg = msg;  // one payload copy per wire attempt, as in the sim
  wire_events_.fetch_add(1);
  post(shard_of(msg.dst), std::move(ev));
  if (!duplications_.empty()) {
    const double dup =
        *std::max_element(duplications_.begin(), duplications_.end());
    if (dup > 0.0 && rng_.chance(dup)) {
      ++stats_.injected_duplicates;
      double dup_delay = config_.latency.sample(rng_);
      for (const double factor : latency_spikes_) dup_delay *= factor;
      WireEvent copy;
      copy.at = now() + dup_delay;
      copy.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
      copy.kind = msg.type == sim::MessageKind::kAck ? WireEvent::kAck
                                                     : WireEvent::kArrive;
      copy.msg = msg;
      wire_events_.fetch_add(1);
      post(shard_of(msg.dst), std::move(copy));
    }
  }
}

void ThreadTransport::receive_locked(Message msg) {
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

void ThreadTransport::settle_locked(std::uint32_t slot,
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

void ThreadTransport::retransmit_locked(std::uint32_t slot,
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
  WireEvent timer;
  timer.at = now() + backoff_timeout(transfer_id, t->attempts);
  timer.seq = event_seq_.fetch_add(1, std::memory_order_relaxed);
  timer.kind = WireEvent::kRetransmit;
  timer.slot = slot;
  timer.transfer = transfer_id;
  post(shard_of(t->msg.src), std::move(timer));
}

void ThreadTransport::process_event(WireEvent& ev) {
  const bool wire = ev.kind != WireEvent::kRetransmit;
  {
    std::lock_guard<std::mutex> lk(g_);
    switch (ev.kind) {
      case WireEvent::kArrive: {
        Message& msg = ev.msg;
        if (flag_locked(crashed_, msg.dst)) {
          ++stats_.dropped;
          recycle_payload_locked(std::move(msg.entries));
          break;
        }
        if (flag_locked(stalled_, msg.dst)) {
          ++stats_.stalled_deferred;
          const auto idx = static_cast<std::size_t>(msg.dst);
          if (idx >= stall_backlog_.size()) stall_backlog_.resize(idx + 1);
          stall_backlog_[idx].push_back(std::move(msg));
          ++backlog_count_;
          break;
        }
        receive_locked(std::move(msg));
        break;
      }
      case WireEvent::kAck:
        settle_locked(ev.msg.transfer_slot, ev.msg.transfer_id);
        break;
      case WireEvent::kRetransmit:
        retransmit_locked(ev.slot, ev.transfer);
        break;
    }
  }
  if (wire) {
    // Decrement AFTER the consequences (upcalls, follow-on wire events)
    // are published: the driver's quiescence probe reads this counter
    // first, so 0 means every consequence is already visible to it.
    wire_events_.fetch_sub(1);
  }
  // Every processed event can complete quiescence (an ack settling the
  // last transfer is silent otherwise) -- wake a run_to_idle driver.
  wake_.progress();
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

void ThreadTransport::post(Shard& shard, WireEvent ev) {
  std::lock_guard<std::mutex> lk(shard.m);
  shard.inbox.push_back(std::move(ev));
  shard.cv.notify_all();
}

void ThreadTransport::shard_loop(Shard& shard) {
  const auto cmp = [](const WireEvent& a, const WireEvent& b) {
    return later(a.at, a.seq, b.at, b.seq);
  };
  std::vector<WireEvent> due;
  std::unique_lock<std::mutex> lk(shard.m);
  for (;;) {
    for (WireEvent& ev : shard.inbox) {
      shard.heap.push_back(std::move(ev));
      std::push_heap(shard.heap.begin(), shard.heap.end(), cmp);
    }
    shard.inbox.clear();
    if (shard.stop) break;
    const double t = now();
    while (!shard.heap.empty() && shard.heap.front().at <= t) {
      std::pop_heap(shard.heap.begin(), shard.heap.end(), cmp);
      due.push_back(std::move(shard.heap.back()));
      shard.heap.pop_back();
    }
    if (!due.empty()) {
      lk.unlock();
      for (WireEvent& ev : due) process_event(ev);
      due.clear();
      lk.lock();
      continue;
    }
    if (shard.heap.empty()) {
      shard.cv.wait(lk,
                    [&shard] { return shard.stop || !shard.inbox.empty(); });
    } else {
      shard.cv.wait_for(lk,
                        std::chrono::duration<double>(shard.heap.front().at -
                                                      t));
    }
  }
}

// ---------------------------------------------------------------------------
// Driving (application thread)
// ---------------------------------------------------------------------------

void ThreadTransport::push_upcall(Upcall up) {
  {
    std::lock_guard<std::mutex> lk(up_m_);
    upcalls_.push_back(std::move(up));
  }
  wake_.work();
}

void ThreadTransport::schedule(double delay, Task fn) {
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

double ThreadTransport::next_deadline() const {
  return timers_.empty() ? std::numeric_limits<double>::infinity()
                         : timers_.front().at;
}

int ThreadTransport::arm_driver_wake() {
  std::lock_guard<std::mutex> lk(up_m_);
  return wake_.arm(!upcalls_.empty());
}

bool ThreadTransport::upcalls_queued() const {
  std::lock_guard<std::mutex> lk(up_m_);
  return !upcalls_.empty();
}

NetworkStats ThreadTransport::stats() const {
  std::lock_guard<std::mutex> lk(g_);
  return stats_;
}

std::size_t ThreadTransport::pump() {
  const auto cmp = [](const DriverTimer& a, const DriverTimer& b) {
    return later(a.at, a.seq, b.at, b.seq);
  };
  wake_.disarm();
  std::size_t processed = 0;
  for (;;) {
    // Due application timers interleave with deliveries in deadline
    // order -- close enough to the sim's total order for protocol logic.
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

bool ThreadTransport::quiescent() const {
  if (wire_events_.load() != 0) return false;
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

Transport::RunResult ThreadTransport::run_to_idle(std::size_t max_events) {
  const double give_up = now() + patience_;
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
    wake_.park(DriverWake::Wait::kProgress,
               std::min(next_deadline(), give_up) - t,
               [this] { return upcalls_queued() || quiescent(); });
  }
}

Transport::RunResult ThreadTransport::run_until(double horizon) {
  RunResult result;
  for (;;) {
    result.processed += pump();
    const double t = now();
    if (t >= horizon) return result;
    wake_.park(DriverWake::Wait::kWork, std::min(next_deadline(), horizon) - t,
               [this] { return upcalls_queued(); });
  }
}

}  // namespace voronet::protocol
