// overlay_lifecycle: the write path that serving never touches.
//
// One process on SimTransport, with the serve shard's short-wire latency
// model and failure detector (net::ServedConfig's defaults):
//
//   set-up   grow a fresh harness to kObjects objects by message-level
//            joins spaced 0.01 virtual s, three times; setup_s is the
//            median, rss_bytes_per_node the first growth's, and the
//            first harness is kept;
//   window   churn rounds for --seconds, after kWarmupS untimed: join,
//            crash, join, leave, each applied alone and run to
//            quiescence.  A round's simulated time -- from each change
//            until the last view update it caused, summed -- is how long
//            the overlay takes to absorb the four changes; its wall time
//            is what the simulator spends on them (Delaunay
//            insert/remove, view recompute, crash repair, view shipping,
//            sim event dispatch);
//   queries  kQueries message-level radius queries of ~20 cells, each
//            graded against the sequential radius_query, then a strict
//            verify_views();
//   routes   greedy routes over the final Overlay: one cold pass, then
//            kWarmPasses timed passes split by parallel_for.
//
// Every phase checks one wall deadline; a miss throws, and the run reports
// the metrics of the phases it finished.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "geometry/predicates.hpp"
#include "net/serve_loop.hpp"
#include "protocol/query_harness.hpp"
#include "voronet/overlay.hpp"
#include "workload/distributions.hpp"

namespace vbench {

namespace {

using namespace voronet;

constexpr std::size_t kObjects = 20'000;
constexpr int kSetups = 3;
constexpr std::size_t kQueries = 500;
constexpr std::size_t kRoutes = 100'000;
constexpr int kWarmPasses = 7;
/// Untimed churn between set-up and the window: the first second after
/// the spare harnesses are freed runs measurably slower.
constexpr double kWarmupS = 1.0;
/// Events one drain may take before it counts as a livelock.
constexpr std::size_t kEventBudget = 4'000'000'000ULL;
/// Events between two deadline checks inside a drain.
constexpr std::size_t kDrainSlice = 1'000'000;

protocol::HarnessConfig make_config(std::uint64_t seed) {
  protocol::HarnessConfig config;
  config.overlay.n_max = kObjects * 4;
  config.overlay.seed = seed;
  const net::ServedConfig wire;
  config.network.latency =
      protocol::LatencyModel::uniform(wire.latency_low, wire.latency_high);
  config.failure_detect_delay = wire.failure_detect_delay;
  config.network.seed = seed ^ 0xfeedULL;
  config.seed = seed ^ 0x907aULL;
  return config;
}

void check_deadline(const Deadline& deadline, const char* phase) {
  if (deadline.passed()) {
    throw std::runtime_error(std::string("deadline passed during ") + phase);
  }
}

/// Runs the harness to quiescence in slices, checking the deadline between
/// them; returns the events processed.  A drain past the event budget or
/// the deadline throws, and the run reports the metrics it has.
std::size_t drain(protocol::ProtocolHarness& h, const Deadline& deadline,
                  const char* what) {
  std::size_t processed = 0;
  for (;;) {
    const auto run = h.run_to_idle(kDrainSlice);
    processed += run.processed;
    if (!run.budget_exhausted) return processed;
    if (processed >= kEventBudget) {
      throw std::runtime_error(std::string(what) + " did not quiesce");
    }
    check_deadline(deadline, what);
  }
}

bool strict_verify(const protocol::ProtocolHarness& h) {
  return !h.repair_in_flight() && h.verify_views().converged();
}

bool same_route(const RouteResult& a, const RouteResult& b) {
  return a.owner == b.owner && a.hops == b.hops &&
         a.stopped_by_dmin == b.stopped_by_dmin;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void run_lifecycle(const Options& options, Result& result) {
  const double window = options.seconds;
  // Set-up, window, queries and routes all fit inside the run's budget.
  const Deadline deadline(std::min(150.0, 60.0 + 2.0 * window));
  const auto workers = std::min<std::size_t>(host_cpus(), 4);
  result.fact("objects", kObjects);
  result.fact("route_workers", static_cast<double>(workers));
  result.fact("queries", kQueries);
  result.fact("routes_per_pass", kRoutes);

  const protocol::HarnessConfig config = make_config(options.seed);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  Rng rng(options.seed);
  const std::vector<Vec2> growth_points = gen.generate(kObjects, rng);

  // --- Set-up: three identical growths ------------------------------------
  // Memory per node is the first growth's: later ones reuse pages the
  // allocator kept from earlier ones, and their RSS deltas scatter by 20%.
  std::vector<std::unique_ptr<protocol::QueryHarness>> grown;
  std::vector<double> setup_s;
  double rss_per_node = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t rss0 = rss_bytes();
    const auto t0 = Clock::now();
    auto qh = std::make_unique<protocol::QueryHarness>(config);
    protocol::ProtocolHarness& h = qh->harness();
    for (std::size_t j = 0; j < growth_points.size(); ++j) {
      h.join_after(0.01 * static_cast<double>(j), growth_points[j]);
    }
    drain(h, deadline, "growth");
    setup_s.push_back(seconds_since(t0));
    if (i == 0) {
      rss_per_node = static_cast<double>(rss_bytes() - rss0) /
                     static_cast<double>(kObjects);
    }
    result.check(h.node_count() == kObjects, "growth reached N");
    grown.push_back(std::move(qh));
  }
  grown.resize(1);
  protocol::QueryHarness& qh = *grown.front();
  protocol::ProtocolHarness& h = qh.harness();
  result.check(strict_verify(h), "views converged after growth");
  const double n = static_cast<double>(kObjects);
  result.set("setup_s", median(setup_s), "s");
  result.set("rss_bytes_per_node", rss_per_node, "B");
  const auto mem = h.memory_breakdown();
  result.set("protocol.view_bytes_per_node",
             static_cast<double>(mem.view_bytes) / n, "B");
  result.set("protocol.slot_bytes_per_node",
             static_cast<double>(mem.slot_bytes) / n, "B");
  result.set("transport.bytes_per_node",
             static_cast<double>(mem.transport_bytes) / n, "B");
  result.set("voronet.overlay_bytes_per_node",
             rss_per_node - static_cast<double>(mem.total()) / n, "B");

  // --- Window: churn rounds ------------------------------------------------
  // One round is join, crash, join, leave, each change applied alone and
  // run to quiescence; N is the same after every round.  A round is the
  // workload's operation.  Its end-to-end latency is simulated time, which
  // the host's speed cannot move; its wall time is per-layer.
  enum Change { kJoin, kCrash, kLeave, kChangeKinds };
  constexpr Change kRound[] = {kJoin, kCrash, kJoin, kLeave};
  const auto apply = [&](Change c) {
    switch (c) {
      case kJoin:
        h.join(gen.next(rng));
        break;
      case kCrash:
        h.crash(h.random_node(rng));
        break;
      case kLeave:
        h.leave(h.random_node(rng));
        break;
      case kChangeKinds:
        break;
    }
    return drain(h, deadline, "churn");
  };
  const auto warmup = Clock::now();
  while (seconds_since(warmup) < kWarmupS) {
    check_deadline(deadline, "warm-up churn");
    for (const Change c : kRound) apply(c);
  }
  std::vector<double> round_ms;       // simulated
  std::vector<double> round_wall_ms;
  double absorb_s = 0.0;              // simulated, over the whole window
  std::vector<double> change_ms[kChangeKinds];
  double change_msgs[kChangeKinds] = {};
  double join_events = 0.0, events = 0.0;
  const protocol::NetworkStats net0 = h.network().stats();
  const std::uint64_t ack0 =
      h.network().metrics().wire_bytes(sim::MessageKind::kAck);
  const geo::PredicateStats pred0 = geo::predicate_stats();
  const std::uint64_t cpu0 = self_cpu_ns();
  const auto start = Clock::now();
  while (seconds_since(start) < window) {
    check_deadline(deadline, "churn");
    const auto r0 = Clock::now();
    double absorbed = 0.0;
    for (const Change c : kRound) {
      const std::uint64_t sends0 = h.network().stats().sends;
      const double v0 = h.network().now();
      const auto t0 = Clock::now();
      const auto processed = static_cast<double>(apply(c));
      change_ms[c].push_back(seconds_since(t0) * 1e3);
      absorbed += std::max(0.0, h.last_apply_time() - v0);
      change_msgs[c] +=
          static_cast<double>(h.network().stats().sends - sends0);
      events += processed;
      if (c == kJoin) join_events += processed;
    }
    round_wall_ms.push_back(seconds_since(r0) * 1e3);
    round_ms.push_back(absorbed * 1e3);
    absorb_s += absorbed;
  }
  const double window_wall = seconds_since(start);
  const std::uint64_t cpu1 = self_cpu_ns();
  const protocol::NetworkStats net1 = h.network().stats();
  const std::uint64_t ack1 =
      h.network().metrics().wire_bytes(sim::MessageKind::kAck);
  const geo::PredicateStats pred1 = geo::predicate_stats();
  const double ops = static_cast<double>(round_ms.size());
  result.check(h.node_count() == kObjects, "churn restored N");
  result.check(strict_verify(h), "views converged after churn");

  const std::size_t samples = round_ms.size();
  result.set("latency_p50_ms", percentile(round_ms, 0.50), "ms");
  result.set("latency_p99_ms", percentile(round_ms, 0.99), "ms");
  result.fact("latency_samples", static_cast<double>(samples));
  result.fact("samples_beyond_p99",
              static_cast<double>(samples_beyond(samples, 0.99)));
  result.set("throughput_ops_per_s", ratio(ops, absorb_s), "1/s");
  result.set("wire_bytes_per_op",
             static_cast<double>(net1.wire_bytes - net0.wire_bytes) / ops, "B");
  result.set("protocol.round_wall_ms", percentile(round_wall_ms, 0.50), "ms");
  result.set("protocol.rounds_per_s", ops / window_wall, "1/s");
  result.set("protocol.join_p50_ms", percentile(change_ms[kJoin], 0.50), "ms");
  result.set("protocol.crash_p50_ms", percentile(change_ms[kCrash], 0.50),
             "ms");
  result.set("protocol.leave_p50_ms", percentile(change_ms[kLeave], 0.50),
             "ms");

  result.set("protocol.driver_cpu_us_per_op",
             static_cast<double>(cpu1 - cpu0) * 1e-3 / ops, "us");
  result.set("protocol.driver_util",
             static_cast<double>(cpu1 - cpu0) * 1e-9 / window_wall,
             "fraction");
  result.set("protocol.msgs_per_op",
             static_cast<double>(net1.sends - net0.sends) / ops, "count");
  const auto per_change = [&](Change c, double total) {
    return ratio(total, static_cast<double>(change_ms[c].size()));
  };
  result.set("protocol.msgs_per_join", per_change(kJoin, change_msgs[kJoin]),
             "count");
  result.set("protocol.msgs_per_crash",
             per_change(kCrash, change_msgs[kCrash]), "count");
  result.set("protocol.msgs_per_leave",
             per_change(kLeave, change_msgs[kLeave]), "count");
  result.set("transport.msgs_per_op",
             static_cast<double>(net1.transmissions - net0.transmissions) / ops,
             "count");
  result.set("transport.ack_byte_share",
             ratio(static_cast<double>(ack1 - ack0),
                   static_cast<double>(net1.wire_bytes - net0.wire_bytes)),
             "fraction");
  result.set("transport.retransmits_per_op",
             static_cast<double>(net1.retransmits - net0.retransmits) / ops,
             "count");
  result.set("transport.duplicates_per_op",
             static_cast<double>(net1.duplicates - net0.duplicates) / ops,
             "count");
  result.set("sim.events_per_join", per_change(kJoin, join_events), "count");
  result.set("sim.events_per_s", events / window_wall, "1/s");
  result.set("geometry.exact_fallback_rate",
             ratio(static_cast<double>(pred1.orient_exact - pred0.orient_exact +
                                       pred1.incircle_exact -
                                       pred0.incircle_exact),
                   static_cast<double>(pred1.orient_calls - pred0.orient_calls +
                                       pred1.incircle_calls -
                                       pred0.incircle_calls)),
             "fraction");

  // --- Message-level radius queries, graded one by one --------------------
  const double radius = std::sqrt(20.0 / (std::numbers::pi * n));
  std::vector<std::uint64_t> ids;
  const auto q0 = Clock::now();
  for (std::size_t i = 0; i < kQueries; ++i) {
    ids.push_back(qh.issue_radius(h.random_node(rng), gen.next(rng), radius,
                                  0.01 * static_cast<double>(i)));
  }
  drain(h, deadline, "query phase");
  const double query_wall = seconds_since(q0);
  std::uint64_t not_identical = 0;
  double query_msgs = 0.0, forwards = 0.0, served = 0.0;
  for (const std::uint64_t id : ids) {
    if (!qh.collect(id).identical()) ++not_identical;
    const auto& rec = h.query_record(id);
    query_msgs += static_cast<double>(rec.total_messages());
    forwards += static_cast<double>(rec.forward_sends);
    served += static_cast<double>(rec.owners.size());
  }
  h.drop_completed_queries();
  result.check(not_identical == 0,
               "every message-level query identical to radius_query (" +
                   std::to_string(not_identical) + " differ)");
  result.check(h.node_count() == kObjects, "query phase kept N");
  result.check(strict_verify(h), "views converged after queries");
  result.set("protocol.queries_per_s",
             static_cast<double>(kQueries) / query_wall, "1/s");
  result.set("protocol.query_msgs_per_flood",
             query_msgs / static_cast<double>(kQueries), "count");
  result.set("protocol.flood_waste", ratio(forwards, served), "count");
  result.attempted = round_ms.size() + kQueries;
  result.failed = not_identical;

  // --- Greedy routing over the final overlay -------------------------------
  const Overlay& overlay = h.overlay();
  std::vector<ProbeQuery> couples;
  couples.reserve(kRoutes);
  for (std::size_t i = 0; i < kRoutes; ++i) {
    const ObjectId from = overlay.random_object(rng);
    ObjectId to = overlay.random_object(rng);
    while (to == from) to = overlay.random_object(rng);
    couples.push_back({from, overlay.position(to)});
  }
  const auto route_pass = [&](std::vector<RouteResult>& out) {
    out.assign(couples.size(), RouteResult{});
    const auto t0 = Clock::now();
    parallel_for(0, couples.size(),
                 [&](std::size_t lo, std::size_t hi, std::size_t) {
                   overlay.probe_batch(std::span(couples).subspan(lo, hi - lo),
                                       std::span(out).subspan(lo, hi - lo));
                 });
    return seconds_since(t0);
  };
  const auto identical_to = [](const std::vector<RouteResult>& reference,
                               const std::vector<RouteResult>& out) {
    return std::equal(reference.begin(), reference.end(), out.begin(),
                      out.end(), same_route);
  };
  set_parallel_workers(workers);
  std::vector<RouteResult> reference, out;
  const double cold = route_pass(reference);
  std::vector<double> warm;
  bool passes_identical = true;
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    check_deadline(deadline, "routing");
    warm.push_back(route_pass(out));
    passes_identical = passes_identical && identical_to(reference, out);
  }
  result.check(passes_identical, "every route pass bit-identical");
  bool scalar_identical = true;
  double hops = 0.0;
  for (std::size_t i = 0; i < couples.size(); ++i) {
    hops += static_cast<double>(reference[i].hops);
    if (i < 2000) {
      scalar_identical =
          scalar_identical &&
          same_route(reference[i],
                     overlay.probe(couples[i].from, couples[i].target));
    }
  }
  result.check(scalar_identical, "pooled routes identical to scalar probe()");
  const double warm_median = median(warm);
  result.set("voronet.hops_per_route", hops / static_cast<double>(kRoutes),
             "count");
  result.set("voronet.routes_per_s",
             static_cast<double>(kRoutes) / warm_median, "1/s");
  result.set("common.cold_pass_ratio", cold / warm_median, "ratio");

  if (!options.trace) return;

  // --- Traced: single-worker routing and a bare overlay replay -------------
  set_parallel_workers(1);
  std::vector<double> single;
  bool single_identical = true;
  for (int pass = 0; pass < 3; ++pass) {
    check_deadline(deadline, "one-worker routing");
    single.push_back(route_pass(out));
    single_identical = single_identical && identical_to(reference, out);
  }
  set_parallel_workers(workers);
  result.check(single_identical, "one-worker routes identical to pooled");
  result.set("voronet.routes_per_s_1t",
             static_cast<double>(kRoutes) / median(single), "1/s");
  result.set("common.parallel_speedup", median(single) / warm_median, "ratio");

  // The sequential overlay alone, inserting the growth points in order:
  // the geometry share of a message-level join.
  std::vector<double> replay;
  for (int i = 0; i < kSetups; ++i) {
    check_deadline(deadline, "bare overlay replay");
    const auto t0 = Clock::now();
    Overlay bare(config.overlay);
    for (const Vec2 p : growth_points) bare.insert(p);
    replay.push_back(seconds_since(t0));
    result.check(bare.size() == kObjects, "bare overlay replay reached N");
  }
  result.set("voronet.insert_share", median(replay) / median(setup_s),
             "fraction");
}

}  // namespace vbench
