#include "serve/query_server.hpp"

#include <cstring>
#include <utility>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace voronet::serve {

namespace {

/// Entry bound of the result cache.  The whole cache is dropped when
/// full: churn invalidates entries wholesale anyway, so eviction finesse
/// buys nothing.
constexpr std::size_t kCacheCapacity = 4096;
constexpr std::uint64_t kGatewaySeed = 0x5e11eULL;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// The cache key must treat two specs as equal iff they denote the same
/// region -- issuer is routing detail, not semantics.
bool same_region(const QuerySpec& a, const QuerySpec& b) {
  return a.kind == b.kind && a.a == b.a && a.b == b.b && a.tol == b.tol;
}

}  // namespace

QueryServer::QueryServer(protocol::ProtocolHarness& harness,
                         const ServeConfig& config)
    : harness_(harness), config_(config), rng_(kGatewaySeed) {
  VORONET_EXPECT(config_.queue_capacity > 0, "serve: zero admission capacity");
  harness_.set_query_completion_handler(
      [this](std::uint64_t flood_id) { on_flood_complete(flood_id); });
}

QueryServer::~QueryServer() {
  harness_.set_query_completion_handler(nullptr);
}

QueryServer::TicketId QueryServer::submit_radius(Vec2 center, double radius) {
  VORONET_EXPECT(radius >= 0.0, "serve: negative query radius");
  QuerySpec spec;
  spec.kind = QueryKind::kRadius;
  spec.a = center;
  spec.b = center;  // zero-length segment: one site predicate for both kinds
  spec.tol = radius;
  return submit(spec);
}

QueryServer::TicketId QueryServer::submit_range(Vec2 a, Vec2 b, double tol) {
  VORONET_EXPECT(tol >= 0.0, "serve: negative range tolerance");
  QuerySpec spec;
  spec.kind = QueryKind::kRange;
  spec.a = a;
  spec.b = b;
  spec.tol = tol;
  return submit(spec);
}

QueryServer::TicketId QueryServer::submit(QuerySpec spec) {
  ++stats_.submitted;
  const TicketId id = next_ticket_++;
  Ticket& t = tickets_[id];
  t.spec = spec;
  t.arrival = harness_.network().now();

  // Cache: an exact-spec entry stamped with the CURRENT topology version
  // is the answer -- positions are immutable per live object.
  auto it = cache_.find(spec_hash(spec));
  if (it != cache_.end() && same_region(it->second.spec, spec) &&
      it->second.version == harness_.topology_version()) {
    ++stats_.cache_hits;
    t.done = true;
    t.cache_hit = true;
    t.completed = t.arrival;
    t.completed_version = it->second.version;
    t.matches = it->second.matches;
    ++stats_.completed;
    return id;
  }

  // Admission: shed at the front door once the service queue is full.
  if (in_service_ >= config_.queue_capacity) {
    ++stats_.rejected;
    t.rejected = true;
    t.done = true;
    t.completed = t.arrival;
    return id;
  }
  ++stats_.admitted;
  ++in_service_;

  // Nobody to serve: the true result set is empty.
  if (harness_.roster().empty()) {
    complete(id, {});
    return id;
  }
  ++stats_.floods;
  const NodeId gateway = harness_.random_node(rng_);
  const std::uint64_t flood_id =
      spec.kind == QueryKind::kRange
          ? harness_.issue_range_query(gateway, spec.a, spec.b, spec.tol)
          : harness_.issue_radius_query(gateway, spec.a, spec.tol);
  flights_[flood_id] = id;
  return id;
}

void QueryServer::on_flood_complete(std::uint64_t flood_id) {
  auto it = flights_.find(flood_id);
  if (it == flights_.end()) return;  // not one of ours (direct test query)
  const TicketId id = it->second;
  flights_.erase(it);

  std::vector<NodeId> matches = harness_.query_record(flood_id).matches;
  if (cache_.size() >= kCacheCapacity) cache_.clear();
  const QuerySpec& spec = tickets_.at(id).spec;
  CacheEntry& slot = cache_[spec_hash(spec)];
  slot.spec = spec;
  slot.version = harness_.topology_version();
  slot.matches = matches;
  complete(id, std::move(matches));
}

void QueryServer::complete(TicketId id, std::vector<NodeId> matches) {
  Ticket& t = tickets_.at(id);
  VORONET_EXPECT(!t.done, "serve: double completion of a ticket");
  t.done = true;
  t.completed = harness_.network().now();
  t.completed_version = harness_.topology_version();
  t.matches = std::move(matches);
  VORONET_EXPECT(in_service_ > 0, "serve: completion without admission");
  --in_service_;
  ++stats_.completed;
}

void QueryServer::drop_completed_tickets() {
  for (auto it = tickets_.begin(); it != tickets_.end();) {
    it = it->second.done ? tickets_.erase(it) : std::next(it);
  }
  harness_.drop_completed_queries();
}

std::uint64_t QueryServer::spec_hash(const QuerySpec& spec) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(spec.kind));
  h = mix64(h ^ bits(spec.a.x));
  h = mix64(h ^ bits(spec.a.y));
  h = mix64(h ^ bits(spec.b.x));
  h = mix64(h ^ bits(spec.b.y));
  h = mix64(h ^ bits(spec.tol));
  return h;
}

}  // namespace voronet::serve
