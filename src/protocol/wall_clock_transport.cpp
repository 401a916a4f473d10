#include "protocol/wall_clock_transport.hpp"

#include <utility>

namespace voronet::protocol {

// ---------------------------------------------------------------------------
// Transport members: the core under g_ (driving thread)
// ---------------------------------------------------------------------------

Message WallClockTransport::draft(std::size_t reserve_entries) {
  std::lock_guard<std::mutex> lk(g_);
  return core_.draft(reserve_entries);
}

void WallClockTransport::send(Message msg) {
  std::lock_guard<std::mutex> lk(g_);
  core_.send(std::move(msg));
}

void WallClockTransport::crash(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  core_.crash(node);
}

void WallClockTransport::revive(NodeId node) {
  // The abandon handler runs on this thread but outside g_: it may send.
  std::unique_lock<std::mutex> lk(g_);
  core_.revive(node, [&lk](auto&& abandon) {
    lk.unlock();
    abandon();
    lk.lock();
  });
}

bool WallClockTransport::crashed(NodeId node) const {
  std::lock_guard<std::mutex> lk(g_);
  return core_.crashed(node);
}

void WallClockTransport::stall(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  core_.stall(node);
}

// Resuming under g_ is safe: the drained backlog's deliveries land in the
// upcall queue, so nothing re-enters the application layer from here.
void WallClockTransport::resume(NodeId node) {
  std::lock_guard<std::mutex> lk(g_);
  core_.resume(node);
}

void WallClockTransport::resume_all() {
  std::lock_guard<std::mutex> lk(g_);
  core_.resume_all();
}

bool WallClockTransport::stalled(NodeId node) const {
  std::lock_guard<std::mutex> lk(g_);
  return core_.stalled(node);
}

void WallClockTransport::begin_loss_burst(double extra_drop) {
  std::lock_guard<std::mutex> lk(g_);
  core_.begin_loss_burst(extra_drop);
}

void WallClockTransport::end_loss_burst(double extra_drop) {
  std::lock_guard<std::mutex> lk(g_);
  core_.end_loss_burst(extra_drop);
}

void WallClockTransport::begin_latency_spike(double factor) {
  std::lock_guard<std::mutex> lk(g_);
  core_.begin_latency_spike(factor);
}

void WallClockTransport::end_latency_spike(double factor) {
  std::lock_guard<std::mutex> lk(g_);
  core_.end_latency_spike(factor);
}

void WallClockTransport::begin_duplication(double probability) {
  std::lock_guard<std::mutex> lk(g_);
  core_.begin_duplication(probability);
}

void WallClockTransport::end_duplication(double probability) {
  std::lock_guard<std::mutex> lk(g_);
  core_.end_duplication(probability);
}

void WallClockTransport::set_link_filter(LinkFilter up) {
  std::lock_guard<std::mutex> lk(g_);
  core_.set_link_filter(std::move(up));
}

void WallClockTransport::clear_link_filter() {
  std::lock_guard<std::mutex> lk(g_);
  core_.clear_link_filter();
}

std::size_t WallClockTransport::in_flight() const {
  std::lock_guard<std::mutex> lk(g_);
  return core_.in_flight();
}

std::size_t WallClockTransport::stalled_backlog() const {
  std::lock_guard<std::mutex> lk(g_);
  return core_.stalled_backlog();
}

std::size_t WallClockTransport::dedup_entries() const {
  std::lock_guard<std::mutex> lk(g_);
  return core_.dedup_entries();
}

std::size_t WallClockTransport::dedup_window_size() const {
  std::lock_guard<std::mutex> lk(g_);
  return core_.dedup_window_size();
}

std::size_t WallClockTransport::memory_bytes() const {
  std::lock_guard<std::mutex> lk(g_);
  return core_.memory_bytes();
}

NetworkStats WallClockTransport::stats() const {
  // A snapshot: the wire threads keep counting while the driver reads.
  std::lock_guard<std::mutex> lk(g_);
  return core_.stats();
}

// ---------------------------------------------------------------------------
// Wire side (the backend's threads)
// ---------------------------------------------------------------------------

void WallClockTransport::arrive(Message msg) {
  {
    std::lock_guard<std::mutex> lk(g_);
    core_.arrive(std::move(msg));
  }
  // Decrement AFTER the consequences (acks, upcalls) are published: the
  // driver's quiescence probe reads wire_pending_ first, so 0 means every
  // consequence is already visible to it.
  wire_pending_.fetch_sub(1);
  // Every processed event can complete quiescence (an ack settling the
  // last transfer is silent otherwise) -- wake a run_to_idle driver.
  wake_.progress();
}

void WallClockTransport::retransmit(std::uint32_t slot,
                                    std::uint64_t transfer_id) {
  {
    std::lock_guard<std::mutex> lk(g_);
    core_.retransmit(slot, transfer_id);
  }
  wake_.progress();
}

void WallClockTransport::upcall(Upcall kind, Message&& msg) {
  {
    std::lock_guard<std::mutex> lk(up_m_);
    upcalls_.push_back(QueuedUpcall{kind, std::move(msg)});
  }
  wake_.work();
}

// ---------------------------------------------------------------------------
// Driving (application thread)
// ---------------------------------------------------------------------------

void WallClockTransport::schedule(double delay, Task fn) {
  timers_.push(DriverTimer{now() + std::max(delay, 0.0), timer_seq_++,
                           std::move(fn)});
}

int WallClockTransport::arm_driver_wake() {
  std::lock_guard<std::mutex> lk(up_m_);
  return wake_.arm(!upcalls_.empty());
}

bool WallClockTransport::upcalls_queued() const {
  std::lock_guard<std::mutex> lk(up_m_);
  return !upcalls_.empty();
}

std::size_t WallClockTransport::pump() {
  wake_.disarm();
  std::size_t processed = 0;
  for (;;) {
    // Due application timers interleave with deliveries in deadline
    // order -- close enough to the sim's total order for protocol logic.
    if (!timers_.empty() && timers_.top().at <= now()) {
      DriverTimer timer = timers_.pop();
      ++processed;
      timer.fn();
      continue;
    }
    QueuedUpcall up;
    {
      std::lock_guard<std::mutex> lk(up_m_);
      if (upcalls_.empty()) break;
      up = std::move(upcalls_.front());
      upcalls_.pop_front();
    }
    ++processed;
    core_.hand_up(up.kind, up.msg);
    std::lock_guard<std::mutex> lk(g_);
    core_.recycle_payload(std::move(up.msg.entries));
  }
  return processed;
}

bool WallClockTransport::quiescent() const {
  if (wire_pending_.load() != 0) return false;
  if (in_flight() != 0) return false;
  if (upcalls_queued()) return false;
  return timers_.empty();
}

Transport::RunResult WallClockTransport::run_to_idle(std::size_t max_events) {
  const double give_up = now() + kPatience;
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

Transport::RunResult WallClockTransport::run_until(double horizon) {
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
