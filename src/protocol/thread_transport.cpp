#include "protocol/thread_transport.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace voronet::protocol {

ThreadTransport::ThreadTransport(const NetworkConfig& config, unsigned shards)
    : WallClockTransport(config) {
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

void ThreadTransport::carry(const Message& msg, double delay) {
  WireEvent ev;
  ev.at = now() + delay;
  ev.seq = next_event_seq();
  ev.msg = msg;  // one payload copy per wire attempt, as in the sim
  wire_pending_.fetch_add(1);
  post(shard_of(msg.dst), std::move(ev));
}

sim::TimerId ThreadTransport::arm_retransmit(const Message& t,
                                             double timeout) {
  WireEvent timer;
  timer.at = now() + timeout;
  timer.seq = next_event_seq();
  timer.kind = WireEvent::kRetransmit;
  timer.slot = t.transfer_slot;
  timer.transfer = t.transfer_id;
  post(shard_of(t.src), std::move(timer));
  return sim::kNoTimer;  // a stale timer finds its transfer gone
}

void ThreadTransport::post(Shard& shard, WireEvent ev) {
  std::lock_guard<std::mutex> lk(shard.m);
  shard.inbox.push_back(std::move(ev));
  shard.cv.notify_all();
}

void ThreadTransport::shard_loop(Shard& shard) {
  std::vector<WireEvent> due;
  std::unique_lock<std::mutex> lk(shard.m);
  for (;;) {
    for (WireEvent& ev : shard.inbox) shard.heap.push(std::move(ev));
    shard.inbox.clear();
    if (shard.stop) break;
    const double t = now();
    while (!shard.heap.empty() && shard.heap.top().at <= t) {
      due.push_back(shard.heap.pop());
    }
    if (!due.empty()) {
      lk.unlock();
      for (WireEvent& ev : due) {
        if (ev.kind == WireEvent::kRetransmit) {
          retransmit(ev.slot, ev.transfer);
        } else {
          arrive(std::move(ev.msg));
        }
      }
      due.clear();
      lk.lock();
      continue;
    }
    if (shard.heap.empty()) {
      shard.cv.wait(lk,
                    [&shard] { return shard.stop || !shard.inbox.empty(); });
    } else {
      shard.cv.wait_for(lk, std::chrono::duration<double>(
                                shard.heap.top().at - t));
    }
  }
}

}  // namespace voronet::protocol
