// Transport conformance: the seam contract, proven against every backend.
//
// Every test in this file runs three times -- over SimTransport (the
// deterministic event-queue simulation), ThreadTransport (real shard
// threads, monotonic-clock deadlines) and SocketTransport (frames through
// a loopback Unix-domain socket).  The assertions are the transport
// contract of protocol/transport.hpp: exactly-once delivery under loss
// (an ack overtaking a retransmission included), at-least-once with
// bounded dedup state under duplication, capped retransmission with
// give-up, stall parking, crash/revive residue clearing, and the
// event-driven driving members (the driver wake fd and the next
// schedule() deadline).  Where a quantity is scheduling-dependent (which
// copy wins a duplicate race) the tests assert the invariant, not the
// schedule; where it is schedule-independent (wire attempt counts under
// total loss) they pin the exact number on every backend.
#include <gtest/gtest.h>

#include <poll.h>

#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/wake_fd.hpp"
#include "net/socket_transport.hpp"
#include "protocol/sim_transport.hpp"
#include "protocol/thread_transport.hpp"

namespace voronet::protocol {
namespace {

enum class Backend { kSim, kThread, kSocket };

class TransportConformance : public ::testing::TestWithParam<Backend> {
 protected:
  static std::unique_ptr<Transport> make(const NetworkConfig& config) {
    if (GetParam() == Backend::kThread) {
      return std::make_unique<ThreadTransport>(config, /*shards=*/2);
    }
    if (GetParam() == Backend::kSocket) {
      // Loopback over a Unix-domain socket: every frame and ack crosses
      // the kernel and comes back in through accept().
      return std::make_unique<net::SocketTransport>(config);
    }
    return std::make_unique<SimTransport>(config);
  }

  /// Let real time pass until `done` holds (sim: the condition must
  /// already hold -- run_* calls advance virtual time, not this).
  template <typename Pred>
  static void await(Transport& t, Pred done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
      ASSERT_FALSE(t.deterministic())
          << "sim transport must satisfy the condition synchronously";
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

NetworkConfig fast_config() {
  NetworkConfig config;
  // Wall-clock-scaled wires: the thread backend really waits these out.
  config.latency = LatencyModel::uniform(0.0005, 0.002);
  return config;
}

TEST_P(TransportConformance, DeliversEveryMessageExactlyOnceUnderLoss) {
  NetworkConfig config = fast_config();
  config.drop_probability = 0.3;
  auto t = make(config);

  std::map<std::uint64_t, int> seen;  // version -> deliveries
  t->set_sink([&](const Message& m) { ++seen[m.version]; });
  t->set_abandon_handler([](const Message&) { FAIL() << "nothing may fail"; });

  constexpr std::uint64_t kMessages = 200;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    Message m = t->draft();
    m.type = sim::MessageKind::kVoronoiUpdate;
    m.src = static_cast<NodeId>(i % 8);
    m.dst = static_cast<NodeId>((i + 1) % 8);
    m.version = i;
    t->send(std::move(m));
  }
  const auto run = t->run_to_idle();
  ASSERT_FALSE(run.budget_exhausted) << "backend: " << t->backend_name();

  ASSERT_EQ(seen.size(), kMessages);
  for (const auto& [version, count] : seen) {
    EXPECT_EQ(count, 1) << "version " << version << " on "
                        << t->backend_name();
  }
  EXPECT_EQ(t->in_flight(), 0u);
  EXPECT_EQ(t->stats().delivered, kMessages);
  EXPECT_GT(t->stats().retransmits, 0u) << "30% loss must retransmit";
}

TEST_P(TransportConformance, AckOvertakingRetransmissionDeliversOnce) {
  // A timeout shorter than the round trip: the retransmission leaves at
  // ~1.5 L, so it is still on the wire when the first attempt's ack
  // settles the transfer at 2 L.  That late copy must count as a
  // duplicate, not as a second delivery.  20 ms keeps the ordering on a
  // wall clock slowed down by a sanitizer.
  constexpr double kLatency = 0.02;
  NetworkConfig config;
  config.latency = LatencyModel::fixed(kLatency);
  config.retransmit_timeout = 1.5 * kLatency;
  auto t = make(config);

  std::size_t delivered = 0;
  t->set_sink([&](const Message&) { ++delivered; });
  t->set_abandon_handler([](const Message&) { FAIL() << "nothing may fail"; });

  Message m = t->draft();
  m.type = sim::MessageKind::kVoronoiUpdate;
  m.src = 1;
  m.dst = 2;
  t->send(std::move(m));
  const auto run = t->run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);

  EXPECT_EQ(delivered, 1u) << t->backend_name();
  EXPECT_EQ(t->stats().delivered, 1u) << t->backend_name();
  EXPECT_EQ(t->in_flight(), 0u);
  if (t->deterministic()) {
    // On a virtual clock the race always happens: exactly one
    // retransmission, and it arrives as the one duplicate.
    EXPECT_EQ(t->stats().retransmits, 1u);
    EXPECT_EQ(t->stats().duplicates, 1u);
  }
}

TEST_P(TransportConformance, DedupSuppressesDuplicatesWithinBoundedWindow) {
  NetworkConfig config = fast_config();
  config.drop_probability = 0.2;
  auto t = make(config);

  std::map<std::uint64_t, int> seen;
  t->set_sink([&](const Message& m) { ++seen[m.version]; });
  t->set_abandon_handler([](const Message&) { FAIL() << "nothing may fail"; });

  t->begin_duplication(1.0);  // every wire attempt ships a copy
  constexpr std::uint64_t kMessages = 100;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    Message m = t->draft();
    m.type = sim::MessageKind::kCloseNeighbor;
    m.src = static_cast<NodeId>(i % 4);
    m.dst = static_cast<NodeId>(4 + i % 4);
    m.version = i;
    t->send(std::move(m));
  }
  const auto run = t->run_to_idle();
  t->end_duplication(1.0);
  ASSERT_FALSE(run.budget_exhausted);

  // Under injected duplication the contract is at-least-once: the copy
  // of a first attempt can land after the ack settled the transfer and
  // pruned its dedup record (ReliableCore::settle keeps the record only
  // when a retransmission is on the wire), and the layer above is
  // idempotent.  What the transport DOES guarantee: every
  // message arrives, the dedup machinery visibly suppresses the bulk of
  // the copies, and its state stays bounded.
  ASSERT_EQ(seen.size(), kMessages);
  for (const auto& [version, count] : seen) {
    EXPECT_GE(count, 1) << "version " << version << " on "
                        << t->backend_name();
  }
  EXPECT_GT(t->stats().injected_duplicates, 0u);
  EXPECT_GT(t->stats().duplicates, 0u) << "copies must hit the dedup";
  EXPECT_LT(t->stats().delivered,
            kMessages + t->stats().duplicates)
      << "dedup must suppress copies, not deliver everything";
  // The dedup invariant: per-transfer bits die with their slot, orphan
  // records live in a fixed ring -- never unbounded growth.
  EXPECT_LE(t->dedup_entries(),
            t->in_flight() + Transport::kOrphanDedupCapacity);
  EXPECT_LE(t->dedup_window_size(), Transport::kOrphanDedupCapacity);
}

TEST_P(TransportConformance, RetransmitsWithBackoffThenGivesUpUnderTotalLoss) {
  NetworkConfig config;
  config.latency = LatencyModel::fixed(0.001);
  config.max_retries = 2;
  auto t = make(config);
  // A dead link (filter, not probability: deterministic on both
  // backends, and drop_probability must stay < 1): nothing ever arrives.
  t->set_link_filter([](NodeId, NodeId) { return false; });

  std::size_t delivered = 0;
  std::vector<Message> abandoned;
  t->set_sink([&](const Message&) { ++delivered; });
  t->set_abandon_handler([&](const Message& m) { abandoned.push_back(m); });

  for (int i = 0; i < 3; ++i) {
    Message m = t->draft();
    m.type = sim::MessageKind::kVoronoiUpdate;
    m.src = 1;
    m.dst = 2;
    m.version = static_cast<std::uint64_t>(i);
    t->send(std::move(m));
  }
  const auto run = t->run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);

  // Schedule-independent exact counts: each transfer makes max_retries+1
  // wire attempts (no acks exist -- nothing arrived), then gives up.
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(abandoned.size(), 3u);
  EXPECT_EQ(t->stats().abandoned, 3u);
  EXPECT_EQ(t->stats().retransmits, 6u);
  EXPECT_EQ(t->stats().transmissions, 9u);
  EXPECT_EQ(t->stats().acks, 0u);
  EXPECT_EQ(t->in_flight(), 0u);
  // Backoff: the second retransmission of each transfer waited at least
  // backoff_factor times the base RTO (minus the jitter band), so the
  // clock must show the widened window, not max_retries fixed RTOs.
  const double rto = t->retransmit_timeout();
  EXPECT_GE(t->now(), rto * (1.0 + config.backoff_factor) *
                          (1.0 - config.jitter / 2.0));
}

TEST_P(TransportConformance, StallParksArrivalsAndResumeDeliversOnce) {
  NetworkConfig config;
  config.latency = LatencyModel::fixed(0.001);
  auto t = make(config);

  std::size_t delivered = 0;
  t->set_sink([&](const Message&) { ++delivered; });
  t->set_abandon_handler([](const Message&) { FAIL() << "nothing may fail"; });

  t->stall(7);
  for (int i = 0; i < 3; ++i) {
    Message m = t->draft();
    m.type = sim::MessageKind::kLongLinkBind;
    m.src = 1;
    m.dst = 7;
    m.version = static_cast<std::uint64_t>(i);
    t->send(std::move(m));
  }
  // Let the arrivals park (latency 0.001, first retransmit no earlier
  // than ~0.0105).  A stalled host receives the packet but cannot run
  // its handler -- so no ack, and the transfers stay unsettled: from the
  // sender this is indistinguishable from a crash.
  (void)t->run_until(0.002);
  await(*t, [&] { return t->stalled_backlog() == 3; });
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(t->in_flight(), 3u) << "no ack from a wedged process";
  EXPECT_EQ(t->stats().stalled_deferred, 3u);
  EXPECT_TRUE(t->stalled(7));

  // Resume well inside the first retransmit window: the park buffer
  // drains in arrival order, each delivery acks, and every transfer
  // settles before its timer can fire -- exactly one delivery each.
  t->resume(7);
  const auto drained = t->run_to_idle();
  ASSERT_FALSE(drained.budget_exhausted);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(t->in_flight(), 0u);
  EXPECT_EQ(t->stalled_backlog(), 0u);
  EXPECT_FALSE(t->stalled(7));
}

TEST_P(TransportConformance, ReviveClearsPredecessorEraResidueOnBothSides) {
  NetworkConfig config;
  config.latency = LatencyModel::fixed(0.05);
  // The row's premise is that revive() comes before the first retransmit
  // timer.  The derived 0.11 s timeout leaves a wall-clock backend 50 ms
  // of slack, which a slowed-down build (ThreadSanitizer) can overrun;
  // a 1 s timeout keeps the premise without slowing the row down, since
  // the stale timers it arms are never waited for.
  config.retransmit_timeout = 1.0;
  auto t = make(config);

  std::size_t delivered = 0;
  std::vector<Message> abandoned;
  t->set_sink([&](const Message&) { ++delivered; });
  t->set_abandon_handler([&](const Message& m) { abandoned.push_back(m); });

  // Receiver side: 1 -> 2 in flight when 2 crashes.  Sender side: a
  // transfer armed BY the victim (self-addressed: dies with it).
  Message to_victim = t->draft();
  to_victim.type = sim::MessageKind::kVoronoiUpdate;
  to_victim.src = 1;
  to_victim.dst = 2;
  t->send(std::move(to_victim));
  Message from_victim = t->draft();
  from_victim.type = sim::MessageKind::kCloseNeighbor;
  from_victim.src = 2;
  from_victim.dst = 2;
  t->send(std::move(from_victim));
  t->crash(2);

  // Let the arrivals reach the dead endpoint (sim: deterministic at
  // t=0.05; thread: wall clock plus a scheduling grace).
  (void)t->run_until(0.06);
  await(*t, [&] { return t->stats().dropped >= 2; });
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(t->in_flight(), 2u);

  // Recycle the id before the retransmit timers fire: both
  // predecessor-era transfers must be abandoned NOW, and the abandon
  // handler must still see the crashed mark (it decides failover).
  ASSERT_TRUE(t->crashed(2));
  t->revive(2);
  EXPECT_FALSE(t->crashed(2));
  EXPECT_EQ(t->in_flight(), 0u);
  ASSERT_EQ(abandoned.size(), 2u);
  EXPECT_EQ(t->stats().abandoned, 2u);

  // Nothing stale reaches the new endpoint; stale timers are no-ops.
  const auto run = t->run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(t->stats().retransmits, 0u);

  // The recycled endpoint serves fresh traffic normally.
  Message fresh = t->draft();
  fresh.type = sim::MessageKind::kVoronoiUpdate;
  fresh.src = 1;
  fresh.dst = 2;
  t->send(std::move(fresh));
  const auto fresh_run = t->run_to_idle();
  ASSERT_FALSE(fresh_run.budget_exhausted);
  EXPECT_EQ(delivered, 1u);
}

TEST_P(TransportConformance, DraftReservePathPresizesAndRecyclesPayloads) {
  auto t = make(fast_config());
  std::size_t delivered = 0;
  t->set_sink([&](const Message&) { ++delivered; });

  // The reserve path: a drafted message arrives pre-sized, so the hot
  // send loop never grows a payload vector mid-append.
  Message m = t->draft(/*reserve_entries=*/64);
  EXPECT_GE(m.entries.capacity(), 64u);
  for (int i = 0; i < 48; ++i) {
    m.entries.push_back(ViewEntry{static_cast<NodeId>(i), Vec2{0.1, 0.2}});
  }
  m.type = sim::MessageKind::kVoronoiUpdate;
  m.src = 3;
  m.dst = 4;
  t->send(std::move(m));
  const auto run = t->run_to_idle();
  ASSERT_FALSE(run.budget_exhausted);
  EXPECT_EQ(delivered, 1u);

  // Settling the transfer recycled its payload into the pool: the next
  // draft reuses that capacity instead of allocating.
  Message again = t->draft();
  EXPECT_GT(again.entries.capacity(), 0u)
      << "draft() after a settled send must reuse the pooled payload";
}

TEST_P(TransportConformance, DriverWakeFiresOnQueuedWorkAndStaysQuietIdle) {
  auto t = make(fast_config());
  std::size_t delivered = 0;
  t->set_sink([&](const Message&) { ++delivered; });
  t->set_abandon_handler([](const Message&) { FAIL() << "nothing may fail"; });

  const int fd = t->arm_driver_wake();
  if (t->deterministic()) {
    EXPECT_EQ(fd, -1) << "nothing arrives between run_* calls on sim";
    return;
  }
  ASSERT_GE(fd, 0);
  const auto readable = [fd](double timeout_s) {
    pollfd pfd{fd, POLLIN, 0};
    return poll_for(&pfd, 1, timeout_s) == 1;
  };
  const auto send = [&t](std::uint64_t version) {
    Message m = t->draft();
    m.type = sim::MessageKind::kVoronoiUpdate;
    m.src = 1;
    m.dst = 2;
    m.version = version;
    t->send(std::move(m));
  };
  EXPECT_FALSE(readable(0.02)) << "armed and idle: no signal";

  // Another thread queues the delivery: the armed fd turns readable, and
  // the sink waits for this thread's pump, which drains the fd.
  send(0);
  ASSERT_TRUE(readable(10.0)) << t->backend_name();
  EXPECT_EQ(delivered, 0u);
  (void)t->run_until(t->now());
  EXPECT_EQ(delivered, 1u);
  EXPECT_FALSE(readable(0.0)) << "the pump drains the fd";

  // Wire progress that queues no driver work -- the ack settling, the
  // stale retransmit timer firing -- leaves an armed fd quiet.
  (void)t->arm_driver_wake();
  EXPECT_FALSE(readable(2.0 * t->retransmit_timeout()));
  EXPECT_EQ(t->in_flight(), 0u);

  // Work queued before arming makes the fd readable at once.
  (void)t->run_until(t->now());
  send(1);
  await(*t, [&] { return t->stats().delivered == 2; });
  (void)t->arm_driver_wake();
  EXPECT_TRUE(readable(0.0));
  (void)t->run_until(t->now());
  EXPECT_EQ(delivered, 2u);
  EXPECT_FALSE(readable(0.0));
}

TEST_P(TransportConformance, NextDeadlineReportsEarliestSchedule) {
  auto t = make(fast_config());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(t->next_deadline(), inf);

  std::vector<int> ran;
  const double t0 = t->now();
  t->schedule(0.05, [&ran] { ran.push_back(2); });
  t->schedule(0.02, [&ran] { ran.push_back(1); });
  const double t1 = t->now();
  // The earliest of the two, whatever the order they were scheduled in;
  // a virtual clock has no wall deadline to report.
  const auto expect_deadline = [&](double delay) {
    if (t->deterministic()) {
      EXPECT_EQ(t->next_deadline(), inf);
      return;
    }
    EXPECT_GE(t->next_deadline(), t0 + delay);
    EXPECT_LE(t->next_deadline(), t1 + delay);
  };
  expect_deadline(0.02);

  (void)t->run_until(t1 + 0.03);
  EXPECT_EQ(ran, std::vector<int>{1});
  expect_deadline(0.05);

  ASSERT_FALSE(t->run_to_idle().budget_exhausted);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(t->next_deadline(), inf);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(Backend::kSim, Backend::kThread,
                                           Backend::kSocket),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::kSim:
                               return "sim";
                             case Backend::kThread:
                               return "thread";
                             case Backend::kSocket:
                               return "socket";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace voronet::protocol
