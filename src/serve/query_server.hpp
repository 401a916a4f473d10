// The query front-end of the serving layer: admission and a
// churn-invalidated result cache in front of the protocol engine's
// region-query floods.
//
// Each admitted query that the cache cannot answer is served by ONE
// flood of its own kind (a range query floods its segment's cells, a
// radius query its disk's) from a random gateway, so a flood's cost is
// the area of the one query it answers.  The answer is the flood
// record's own match set: the harness filters the served cells through
// voronet::site_within_tolerance -- the ONE site predicate of the
// sequential layer.  Two mechanisms sit in front, both transport-agnostic
// (they run identically on SimTransport and ThreadTransport):
//
//   * ADMISSION: a bounded service queue.  A query is rejected outright
//     when `queue_capacity` admitted queries are still unfinished --
//     load shedding at the front door instead of collapse in the
//     overlay.  Rejections are visible in the stats and the bench's
//     completion rate.
//
//   * RESULT CACHE: completed match sets keyed by the exact QuerySpec,
//     stamped with the harness's topology_version at completion.
//     Positions are immutable per live object, so an unchanged version
//     means an identical live (id, position) set and the cached answer
//     is exact; any join/leave/crash bumps the version and silently
//     invalidates every older entry.  No TTLs, no heuristics.
//
// Single-threaded by construction: every entry point runs on the
// transport's driving thread (Transport::Sink contract), so the server
// needs no locks even over ThreadTransport.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "protocol/harness.hpp"

namespace voronet::serve {

// The serving layer speaks the protocol layer's vocabulary.
using protocol::NodeId;
using protocol::QueryKind;
using protocol::QuerySpec;

struct ServeConfig {
  /// Admission bound: queries in service (admitted, not yet completed)
  /// beyond this are rejected.
  std::size_t queue_capacity = 256;
};

struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;    ///< admission-bound sheds
  std::uint64_t cache_hits = 0;  ///< answered without any flood
  std::uint64_t completed = 0;
  std::uint64_t floods = 0;      ///< one per admitted, uncached query
};

class QueryServer {
 public:
  using TicketId = std::uint64_t;

  /// The client-visible record of one submitted query.
  struct Ticket {
    QuerySpec spec;
    double arrival = 0.0;    ///< client arrival (transport clock)
    double completed = 0.0;  ///< answer instant (valid when done)
    bool done = false;
    bool rejected = false;   ///< shed at admission; no answer
    bool cache_hit = false;
    std::uint64_t completed_version = 0;  ///< topology version at answer
    std::vector<NodeId> matches;          ///< sorted site matches

    [[nodiscard]] double latency() const { return completed - arrival; }
  };

  QueryServer(protocol::ProtocolHarness& harness, const ServeConfig& config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Submit a radius / range query arriving NOW (transport clock).
  /// Returns a ticket id; inspect ticket() after the transport drains
  /// (or poll done).  Rejected tickets are marked, never queued.
  TicketId submit_radius(Vec2 center, double radius);
  TicketId submit_range(Vec2 a, Vec2 b, double tol);

  [[nodiscard]] const Ticket& ticket(TicketId id) const {
    return tickets_.at(id);
  }
  /// Admitted queries not yet answered.
  [[nodiscard]] std::size_t in_service() const { return in_service_; }
  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  /// Forget answered tickets (long open-loop runs would otherwise hold
  /// every match set); callers keep the ids they still care about.
  void drop_completed_tickets();

 private:
  /// A cached answer; the stored spec rules out a false hit on a hash
  /// collision.
  struct CacheEntry {
    QuerySpec spec;
    std::uint64_t version = 0;
    std::vector<NodeId> matches;
  };

  TicketId submit(QuerySpec spec);
  void on_flood_complete(std::uint64_t flood_id);
  void complete(TicketId id, std::vector<NodeId> matches);
  [[nodiscard]] static std::uint64_t spec_hash(const QuerySpec& spec);

  protocol::ProtocolHarness& harness_;
  ServeConfig config_;
  Rng rng_;  ///< gateway sampling
  ServeStats stats_;
  TicketId next_ticket_ = 0;
  std::size_t in_service_ = 0;
  std::unordered_map<TicketId, Ticket> tickets_;
  std::unordered_map<std::uint64_t, TicketId> flights_;  ///< by flood id
  std::unordered_map<std::uint64_t, CacheEntry> cache_;  ///< by spec hash
};

}  // namespace voronet::serve
