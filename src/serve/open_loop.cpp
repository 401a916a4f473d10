#include "serve/open_loop.hpp"

#include <algorithm>
#include <numeric>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "protocol/flat_map.hpp"
#include "voronet/queries.hpp"

namespace voronet::serve {

namespace {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

std::vector<Arrival> draw_arrivals(const LoadConfig& config) {
  VORONET_EXPECT(config.rate > 0.0, "open loop: non-positive rate");
  VORONET_EXPECT(config.duration > 0.0, "open loop: non-positive duration");
  Rng rng(config.seed);
  const Vec2 hotspot{rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)};

  std::vector<Arrival> arrivals;
  for (double t = rng.exponential(config.rate); t < config.duration;
       t += rng.exponential(config.rate)) {
    const bool hot = rng.chance(config.hotspot_fraction);
    const bool range = rng.chance(config.range_fraction);
    const Vec2 base = hot ? hotspot
                          : Vec2{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    Arrival a;
    a.at = t;
    a.spec.a = {base.x + rng.uniform(-0.02, 0.02),
                base.y + rng.uniform(-0.02, 0.02)};
    if (range) {
      a.spec.kind = QueryKind::kRange;
      a.spec.b = {a.spec.a.x + rng.uniform(-0.1, 0.1),
                  a.spec.a.y + rng.uniform(-0.1, 0.1)};
      a.spec.tol = config.range_tol;
    } else {
      a.spec.kind = QueryKind::kRadius;
      a.spec.b = a.spec.a;
      a.spec.tol = config.radius;
    }
    arrivals.push_back(a);
  }
  return arrivals;
}

Grade grade_tickets(const protocol::ProtocolHarness& harness,
                    const QueryServer& server,
                    const std::vector<QueryServer::TicketId>& tickets) {
  // Current-topology tickets only (header comment).  The mark table is
  // the FlatNodeMap::reserve path: sized once for the whole roster, zero
  // intermediate grows.
  const std::uint64_t final_version = harness.topology_version();
  const std::vector<NodeId>& roster = harness.roster();
  protocol::FlatNodeMap<char> marks;
  Grade grade;
  std::uint64_t truth_total = 0, hit_total = 0, match_total = 0;
  for (const auto id : tickets) {
    const QueryServer::Ticket& t = server.ticket(id);
    if (!t.done || t.rejected || t.completed_version != final_version) {
      continue;
    }
    ++grade.graded;
    match_total += t.matches.size();
    marks.clear();
    marks.reserve(roster.size());
    for (const NodeId m : t.matches) marks.insert(m, 1);
    for (const NodeId n : roster) {
      if (site_within_tolerance(t.spec.a, t.spec.b,
                                harness.node(n).position(), t.spec.tol)) {
        ++truth_total;
        if (marks.find(n) != nullptr) ++hit_total;
      }
    }
  }
  grade.recall = truth_total == 0
                     ? 1.0
                     : static_cast<double>(hit_total) /
                           static_cast<double>(truth_total);
  grade.precision = match_total == 0
                        ? 1.0
                        : static_cast<double>(hit_total) /
                              static_cast<double>(match_total);
  return grade;
}

void LoadReport::set_latencies(std::vector<double> latencies) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  p50 = percentile(latencies, 0.50);
  p99 = percentile(latencies, 0.99);
  max_latency = latencies.back();
  mean_latency = std::accumulate(latencies.begin(), latencies.end(), 0.0) /
                 static_cast<double>(latencies.size());
}

LoadReport run_open_loop(protocol::ProtocolHarness& harness,
                         QueryServer& server, const LoadConfig& config) {
  // The whole schedule is on the transport clock before anything runs:
  // open-loop arrivals never react to service times.
  const std::vector<Arrival> arrivals = draw_arrivals(config);
  std::vector<QueryServer::TicketId> tickets;
  for (const Arrival& a : arrivals) {
    harness.network().schedule(a.at, [&server, &tickets, spec = a.spec] {
      tickets.push_back(spec.kind == QueryKind::kRange
                            ? server.submit_range(spec.a, spec.b, spec.tol)
                            : server.submit_radius(spec.a, spec.tol));
    });
  }

  LoadReport report;
  report.offered = arrivals.size();
  const auto run = harness.run_to_idle();
  report.drained = !run.budget_exhausted;

  const ServeStats& stats = server.stats();
  report.admitted = stats.admitted;
  report.rejected = stats.rejected;
  report.completed = stats.completed;
  report.cache_hits = stats.cache_hits;
  report.floods = stats.floods;
  report.completion_rate =
      report.offered == 0 ? 1.0
                          : static_cast<double>(report.completed) /
                                static_cast<double>(report.offered);

  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  for (const auto id : tickets) {
    const QueryServer::Ticket& t = server.ticket(id);
    if (t.done && !t.rejected) latencies.push_back(t.latency());
  }
  report.set_latencies(std::move(latencies));

  const Grade grade = grade_tickets(harness, server, tickets);
  report.graded = grade.graded;
  report.recall = grade.recall;
  report.precision = grade.precision;
  return report;
}

}  // namespace voronet::serve
