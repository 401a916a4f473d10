#include "protocol/reliable_core.hpp"

#include <cmath>
#include <string>

#include "common/expect.hpp"
#include "net/wire_format.hpp"

namespace voronet::protocol {

namespace {

/// Payloads above this capacity are not worth hoarding in the pool.
constexpr std::size_t kMaxPooledPayload = 4096;
constexpr std::size_t kMaxPoolSize = 1024;

}  // namespace

ReliableCore::ReliableCore(const NetworkConfig& config, Link& link)
    : config_(config), link_(link), rng_(config.seed) {
  VORONET_EXPECT(config.drop_probability >= 0.0 &&
                     config.drop_probability < 1.0,
                 "drop probability must lie in [0, 1)");
  VORONET_EXPECT(config.backoff_factor >= 1.0,
                 "retransmit backoff factor must be >= 1");
  VORONET_EXPECT(config.jitter >= 0.0 && config.jitter < 1.0,
                 "retransmit jitter must lie in [0, 1)");
  // Auto-RTO: a round trip of pessimistic one-way delays plus slack, so
  // that under fixed/uniform latency a timeout implies a genuine loss.
  rto_ = config.retransmit_timeout > 0.0
             ? config.retransmit_timeout
             : 2.0 * config.latency.high_quantile() + 0.01;
  rto_cap_ = config.rto_cap > 0.0 ? config.rto_cap : 16.0 * rto_;
}

double ReliableCore::backoff_timeout(std::uint64_t transfer_id,
                                     std::size_t attempts) const {
  // Attempt k waits min(rto * f^(k-1), cap): responsive to a single loss,
  // but a transfer stuck behind a loss burst / latency spike / stalled
  // receiver stops hammering the window.  pow() stays finite: the
  // exponent is capped by where the ceiling bites anyway.
  const double exponent = std::min<double>(static_cast<double>(attempts - 1),
                                           40.0);
  double timeout =
      std::min(rto_ * std::pow(config_.backoff_factor, exponent), rto_cap_);
  if (config_.jitter > 0.0) {
    // Deterministic jitter in [1 - j/2, 1 + j/2): hashed from (transfer
    // id, attempt), not drawn, so concurrent transfers -- and successive
    // attempts of one transfer -- desynchronise while the Rng delivery
    // stream (and with it every committed replay) is untouched by how
    // often a transfer retried.
    const double u = static_cast<double>(
                         mix64(transfer_id * 0x2545f4914f6cdd1dULL +
                               attempts) >>
                         11) *
                     0x1.0p-53;
    timeout *= 1.0 + config_.jitter * (u - 0.5);
  }
  return timeout;
}

double ReliableCore::effective_drop() const {
  double drop = config_.drop_probability;
  for (const double extra : loss_bursts_) drop += extra;
  // Windows are finite (validated by the scenario layer), so a saturated
  // probability cannot retransmit forever -- but keep it a probability.
  return std::min(drop, 1.0);
}

void ReliableCore::record(NodeId node, obs::FlightEvent event,
                          const Message& msg, NodeId peer) {
  recorder_->record(node, link_.now(), event, msg.type, peer, msg.version,
                    msg.epoch);
}

void ReliableCore::hand_up(Upcall kind, const Message& msg) const {
  if (kind == Upcall::kDeliver) {
    if (sink_) sink_(msg);
  } else if (abandon_) {
    abandon_(msg);
  }
}

// ---------------------------------------------------------------------------
// Slot table / payload pool / orphan window
// ---------------------------------------------------------------------------

void ReliableCore::set_flag(std::vector<std::uint8_t>& flags, NodeId node,
                            bool on) {
  if (node < 0) return;
  const auto idx = static_cast<std::size_t>(node);
  if (idx >= flags.size()) {
    if (!on) return;
    flags.resize(idx + 1, 0);
  }
  flags[idx] = on ? 1 : 0;
}

ReliableCore::Transfer* ReliableCore::live_transfer(
    std::uint32_t slot, std::uint64_t transfer_id) {
  if (slot == kNoTransferSlot || slot >= transfers_.size()) return nullptr;
  Transfer& t = transfers_[slot];
  return t.id == transfer_id ? &t : nullptr;
}

std::uint32_t ReliableCore::alloc_slot() {
  ++in_flight_;
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  transfers_.emplace_back();
  return static_cast<std::uint32_t>(transfers_.size() - 1);
}

void ReliableCore::free_slot(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  recycle_payload(std::move(t.msg.entries));
  t.msg.entries.clear();
  t.id = 0;
  t.attempts = 1;
  t.timer = sim::kNoTimer;
  t.span = obs::kNoSpan;
  t.delivered = false;
  free_slots_.push_back(slot);
  VORONET_DCHECK(in_flight_ > 0);
  --in_flight_;
}

void ReliableCore::recycle_payload(std::vector<ViewEntry>&& entries) {
  if (entries.capacity() == 0 || entries.capacity() > kMaxPooledPayload ||
      payload_pool_.size() >= kMaxPoolSize) {
    return;
  }
  entries.clear();
  payload_pool_.push_back(std::move(entries));
}

Message ReliableCore::draft(std::size_t reserve_entries) {
  Message m;
  if (!payload_pool_.empty()) {
    m.entries = std::move(payload_pool_.back());
    payload_pool_.pop_back();
  }
  if (reserve_entries > 0) m.entries.reserve(reserve_entries);
  return m;
}

bool ReliableCore::OrphanWindow::insert(std::uint64_t transfer_id,
                                        NodeId dst) {
  if (ring.empty()) ring.resize(Transport::kOrphanDedupCapacity);
  for (const Rec& r : ring) {
    if (r.transfer_id == transfer_id) return false;  // already recorded
  }
  Rec& r = ring[next];
  if (r.transfer_id != 0) --count;  // FIFO eviction of the oldest record
  r.transfer_id = transfer_id;
  r.dst = dst;
  ++count;
  next = (next + 1) % ring.size();
  return true;
}

void ReliableCore::OrphanWindow::erase(std::uint64_t transfer_id) {
  for (Rec& r : ring) {
    if (r.transfer_id == transfer_id) {
      r = Rec{};
      --count;
      return;
    }
  }
}

void ReliableCore::OrphanWindow::erase_dst(NodeId dst) {
  for (Rec& r : ring) {
    if (r.transfer_id != 0 && r.dst == dst) {
      r = Rec{};
      --count;
    }
  }
}

std::size_t ReliableCore::dedup_entries() const {
  std::size_t n = orphans_.size();
  for (const Transfer& t : transfers_) {
    if (t.id != 0 && t.delivered) ++n;
  }
  return n;
}

std::size_t ReliableCore::memory_bytes() const {
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
// Send / failure injection
// ---------------------------------------------------------------------------

void ReliableCore::send(Message msg) {
  msg.transfer_id = next_transfer_++;
  ++stats_.sends;
  if (msg.type == sim::MessageKind::kAck) {
    transmit(msg);
    recycle_payload(std::move(msg.entries));
    return;
  }
  const std::uint32_t slot = alloc_slot();
  msg.transfer_slot = slot;
  obs::SpanId span = obs::kNoSpan;
  if (tracing()) {
    // One span per reliable transfer, parented to the message's carried
    // (application-level) span; its instants record the retransmission
    // timeline, its end the settle or abandonment.
    std::string name = "xfer:";
    name += sim::message_kind_name(msg.type);
    span = tracer_->begin_span(link_.now(), name, msg.src, msg.span);
    tracer_->arg(span, "dst", static_cast<std::uint64_t>(
                                  static_cast<std::int64_t>(msg.dst)));
    tracer_->arg(span, "transfer", msg.transfer_id);
  }
  if (recording()) record(msg.src, obs::FlightEvent::kSend, msg, msg.dst);
  transmit(msg);
  Transfer& t = transfers_[slot];
  t.id = msg.transfer_id;
  recycle_payload(std::move(t.msg.entries));  // retire previous payload
  t.msg = std::move(msg);
  t.attempts = 1;
  t.span = span;
  t.delivered = false;
  arm_timer(t);
}

void ReliableCore::drop_backlog(NodeId node) {
  if (node >= 0 && static_cast<std::size_t>(node) < stall_backlog_.size()) {
    backlog_count_ -= stall_backlog_[static_cast<std::size_t>(node)].size();
    stall_backlog_[static_cast<std::size_t>(node)].clear();
  }
}

void ReliableCore::crash(NodeId node) {
  if (recording()) {
    recorder_->record(node, link_.now(), obs::FlightEvent::kCrash,
                      sim::MessageKind::kCount, -1);
  }
  set_flag(crashed_, node, true);
  // A crashed node's wedged process dies with the host: discard the
  // parked backlog instead of delivering it to a corpse on resume.
  set_flag(stalled_, node, false);
  drop_backlog(node);
}

void ReliableCore::stall(NodeId node) {
  if (crashed(node)) return;  // dead beats wedged
  if (recording()) {
    recorder_->record(node, link_.now(), obs::FlightEvent::kStall,
                      sim::MessageKind::kCount, -1);
  }
  set_flag(stalled_, node, true);
}

void ReliableCore::resume(NodeId node) {
  if (!stalled(node)) return;
  if (recording()) {
    recorder_->record(node, link_.now(), obs::FlightEvent::kResume,
                      sim::MessageKind::kCount, -1);
  }
  set_flag(stalled_, node, false);
  if (node < 0 || static_cast<std::size_t>(node) >= stall_backlog_.size()) {
    return;
  }
  // Drain in arrival order.  Move the backlog out first: delivering a
  // message can trigger sends whose acks / retransmissions must not
  // append to the vector mid-iteration.
  std::vector<Message> backlog =
      std::move(stall_backlog_[static_cast<std::size_t>(node)]);
  stall_backlog_[static_cast<std::size_t>(node)].clear();
  backlog_count_ -= backlog.size();
  for (Message& msg : backlog) receive(std::move(msg));
}

void ReliableCore::resume_all() {
  // Deterministic drain order: ascending node id.
  for (std::size_t n = 0; n < stalled_.size(); ++n) {
    if (stalled_[n] != 0) resume(static_cast<NodeId>(n));
  }
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
ReliableCore::transfers_touching(NodeId node) const {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (std::uint32_t slot = 0; slot < transfers_.size(); ++slot) {
    const Transfer& t = transfers_[slot];
    if (t.id != 0 && (t.msg.src == node || t.msg.dst == node)) {
      out.emplace_back(t.id, slot);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ReliableCore::clear_residue(NodeId node) {
  set_flag(crashed_, node, false);
  // The predecessor's dedup history, stall window and flight-recorder
  // ring go too: a recycled id is a different endpoint.
  if (!orphans_.empty()) orphans_.erase_dst(node);
  set_flag(stalled_, node, false);
  drop_backlog(node);
  if (recorder_ != nullptr) recorder_->reset_node(node);
}

Message ReliableCore::take_abandoned(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  ++stats_.abandoned;
  metrics_.record_transfer_attempts(t.attempts);
  if (tracing() && t.span != obs::kNoSpan) {
    tracer_->arg(t.span, "attempts", t.attempts);
    tracer_->arg(t.span, "abandoned", std::uint64_t{1});
    tracer_->end_span(t.span, link_.now());
  }
  if (recording()) {
    record(t.msg.src, obs::FlightEvent::kAbandon, t.msg, t.msg.dst);
  }
  // The settling ack will never come; the delivered bit dies with the
  // slot, which keeps the dedup state bounded by the in-flight count.
  Message msg = std::move(t.msg);
  free_slot(slot);
  return msg;
}

// ---------------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------------

double ReliableCore::sample_delay() {
  double delay = config_.latency.sample(rng_);
  for (const double factor : latency_spikes_) delay *= factor;
  return delay;
}

void ReliableCore::transmit(const Message& msg) {
  const std::size_t bytes = net::wire_frame_size(msg);
  ++stats_.transmissions;
  metrics_.count_message(msg.type);
  metrics_.count_wire_bytes(msg.type, bytes);
  stats_.wire_bytes += bytes;
  if (msg.type == sim::MessageKind::kAck) ++stats_.acks;
  const bool link_down = link_up_ && !link_up_(msg.src, msg.dst);
  const double drop = effective_drop();
  if (link_down || (drop > 0.0 && rng_.chance(drop))) {
    ++stats_.dropped;
    if (recording() && msg.type != sim::MessageKind::kAck) {
      record(msg.src, obs::FlightEvent::kDrop, msg, msg.dst);
    }
    return;
  }
  link_.carry(msg, sample_delay());
  if (!duplications_.empty()) {
    // Duplication window: the strongest open window's probability wins
    // (overlapping windows model one flaky path, not independent copies).
    const double dup =
        *std::max_element(duplications_.begin(), duplications_.end());
    if (dup > 0.0 && rng_.chance(dup)) {
      ++stats_.injected_duplicates;
      link_.carry(msg, sample_delay());
    }
  }
}

void ReliableCore::arrive(Message msg) {
  if (msg.type == sim::MessageKind::kAck) {
    // Transport-internal: settle the acknowledged transfer.  This runs
    // even when the original sender has crashed since -- the pending
    // entry is sender-side transport state that must not retransmit
    // forever on behalf of a dead node.  Acks also settle for a stalled
    // sender: the transport state machine lives below the wedged process.
    settle(msg.transfer_slot, msg.transfer_id);
    recycle_payload(std::move(msg.entries));
    return;
  }
  if (crashed(msg.dst)) {
    ++stats_.dropped;
    if (recording()) record(msg.dst, obs::FlightEvent::kDrop, msg, msg.src);
    recycle_payload(std::move(msg.entries));
    return;
  }
  if (stalled(msg.dst)) {
    // Gray failure: the packet reached the host, but the wedged process
    // cannot run its receive handler -- so no ack either.  The sender's
    // failure detector sees exactly what a crash looks like; only time
    // (resume before its patience runs out) tells the two apart.
    ++stats_.stalled_deferred;
    if (recording()) record(msg.dst, obs::FlightEvent::kParked, msg, msg.src);
    const auto idx = static_cast<std::size_t>(msg.dst);
    if (idx >= stall_backlog_.size()) stall_backlog_.resize(idx + 1);
    stall_backlog_[idx].push_back(std::move(msg));
    ++backlog_count_;
    return;
  }
  receive(std::move(msg));
}

void ReliableCore::settle(std::uint32_t slot, std::uint64_t transfer_id) {
  if (Transfer* t = live_transfer(slot, transfer_id)) {
    metrics_.record_transfer_attempts(t->attempts);
    if (tracing() && t->span != obs::kNoSpan) {
      tracer_->arg(t->span, "attempts", t->attempts);
      tracer_->end_span(t->span, link_.now());
    }
    link_.cancel_retransmit(t->timer);
    // An ack can overtake a retransmission of its own transfer.  The
    // slot's delivered bit dies here, so remember the transfer in the
    // orphan window: that copy then arrives as a duplicate, not as a
    // second delivery.
    const bool copy_in_flight = t->attempts > 1;
    const NodeId dst = t->msg.dst;
    free_slot(slot);
    if (copy_in_flight) {
      orphans_.insert(transfer_id, dst);
      return;
    }
  }
  // Prune any orphan dedup record (the transfer can have been re-
  // delivered after an earlier settle -- see receive()).
  if (!orphans_.empty()) orphans_.erase(transfer_id);
}

void ReliableCore::receive(Message msg) {
  // Acknowledge every reliable arrival, duplicates included (the previous
  // ack may be the thing that got lost).
  Message ack;
  ack.type = sim::MessageKind::kAck;
  ack.src = msg.dst;
  ack.dst = msg.src;
  ack.transfer_id = msg.transfer_id;
  ack.transfer_slot = msg.transfer_slot;
  transmit(ack);

  // Dedup: the delivered bit on the live transfer slot, or -- when the
  // slot is already recycled (settled/abandoned with a copy still in
  // flight) -- the bounded orphan window.
  bool fresh;
  if (Transfer* t = live_transfer(msg.transfer_slot, msg.transfer_id)) {
    fresh = !t->delivered;
    t->delivered = true;
  } else {
    fresh = orphans_.insert(msg.transfer_id, msg.dst);
  }
  if (!fresh) {
    ++stats_.duplicates;
    if (recording()) {
      record(msg.dst, obs::FlightEvent::kDuplicate, msg, msg.src);
    }
    recycle_payload(std::move(msg.entries));
    return;
  }
  ++stats_.delivered;
  if (recording()) record(msg.dst, obs::FlightEvent::kDeliver, msg, msg.src);
  link_.upcall(Upcall::kDeliver, std::move(msg));
}

void ReliableCore::arm_timer(Transfer& t) {
  VORONET_DCHECK(t.id != 0);
  t.timer = link_.arm_retransmit(t.msg, backoff_timeout(t.id, t.attempts));
}

void ReliableCore::retransmit(std::uint32_t slot, std::uint64_t transfer_id) {
  Transfer* t = live_transfer(slot, transfer_id);
  if (t == nullptr) return;  // acknowledged in the meantime
  // Give up when either endpoint crashed -- a crash-stop sender can never
  // resend, so its unacked transfers die with it -- or the retry cap hit.
  const bool give_up =
      crashed(t->msg.dst) || crashed(t->msg.src) ||
      (config_.max_retries > 0 && t->attempts > config_.max_retries);
  if (give_up) {
    // The handler may send afresh, and may reoccupy this very slot.
    link_.upcall(Upcall::kAbandon, take_abandoned(slot));
    return;
  }
  ++t->attempts;
  ++stats_.retransmits;
  if (tracing() && t->span != obs::kNoSpan) {
    const obs::SpanId i = tracer_->instant(link_.now(), "retransmit",
                                           t->msg.src, t->span);
    tracer_->arg(i, "attempt", t->attempts);
  }
  if (recording()) {
    record(t->msg.src, obs::FlightEvent::kRetransmit, t->msg, t->msg.dst);
  }
  transmit(t->msg);
  arm_timer(*t);
}

}  // namespace voronet::protocol
