// Open-loop Poisson query stream + SLO grading for the serving layer.
//
// "Open loop" is the load-testing discipline: arrival instants are drawn
// ONCE from a Poisson process and never wait for responses, so a slow
// server faces a growing backlog instead of a conveniently self-throttled
// client (the coordinated-omission trap).  run_open_loop schedules every
// arrival on the transport clock up front, lets the transport drain, and
// measures each query's latency from its SCHEDULED arrival -- on
// ThreadTransport these are real wall-clock milliseconds, on SimTransport
// virtual seconds (same code, per the transport seam).  The remote
// driver (net::run_open_loop_remote) and the served shard's report
// (net::ServedShard) use the same arrival draw, latency summary and
// grader declared here.
//
// Grading: after quiescence, every ticket whose completion was stamped
// with the FINAL topology version is compared against sequential ground
// truth (scan the live roster through voronet::site_within_tolerance).
// Tickets completed at an older version answered a topology that no
// longer exists -- exact then, ungradable now -- so churn runs grade the
// post-churn tail only.  On a churn-free run every completed ticket is
// graded and the acceptance gate is recall == precision == 1.0.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/query_server.hpp"

namespace voronet::serve {

struct LoadConfig {
  double rate = 200.0;       ///< mean arrivals per transport-second
  double duration = 1.0;     ///< arrival window (transport clock)
  double radius = 0.05;      ///< radius-query radius
  double range_fraction = 0.25;  ///< fraction submitted as range queries
  double range_tol = 0.02;       ///< tolerance of range queries
  double hotspot_fraction = 0.5; ///< arrivals aimed at a hot cell
  std::uint64_t seed = 0x10adULL;
};

/// One scheduled query of an open-loop stream.
struct Arrival {
  double at = 0.0;  ///< offset from the stream's start
  QuerySpec spec;   ///< kRadius (b == a) or kRange
};

/// The whole arrival schedule of `config`, in time order.  The draw
/// order is fixed: the hotspot first, then per arrival its gap, hot?,
/// range?, base point (when not hot), jitter of a, and b (range only).
std::vector<Arrival> draw_arrivals(const LoadConfig& config);

/// Exactness of answered tickets against sequential ground truth.
struct Grade {
  std::uint64_t graded = 0;  ///< tickets completed at the final version
  double recall = 1.0;
  double precision = 1.0;
};

/// Grade `tickets` (header comment): every done, unrejected ticket
/// completed at the harness's current topology version.
Grade grade_tickets(const protocol::ProtocolHarness& harness,
                    const QueryServer& server,
                    const std::vector<QueryServer::TicketId>& tickets);

struct LoadReport {
  std::uint64_t offered = 0;    ///< arrivals scheduled
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;  ///< answered (cache or flood)
  std::uint64_t cache_hits = 0;
  std::uint64_t floods = 0;     ///< region floods issued
  double completion_rate = 0.0; ///< completed / offered
  bool drained = false;         ///< transport reached quiescence

  // Latency over answered queries (transport-clock seconds).
  double p50 = 0.0;
  double p99 = 0.0;
  double max_latency = 0.0;
  double mean_latency = 0.0;

  // Exactness over tickets completed at the final topology version.
  std::uint64_t graded = 0;
  double recall = 1.0;
  double precision = 1.0;

  /// Fill p50 / p99 / max / mean from the answered queries' latencies.
  void set_latencies(std::vector<double> latencies);
};

/// Drive `server` with an open-loop Poisson stream, drain the transport,
/// grade, and report.  The harness must already hold a converged overlay.
LoadReport run_open_loop(protocol::ProtocolHarness& harness,
                         QueryServer& server, const LoadConfig& config);

}  // namespace voronet::serve
