#include "serve/query_server.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "voronet/queries.hpp"

namespace voronet::serve {

namespace {

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
    : harness_(harness), config_(config), rng_(config.seed) {
  VORONET_EXPECT(config_.queue_capacity > 0, "serve: zero admission capacity");
  VORONET_EXPECT(config_.max_batch > 0, "serve: zero batch bound");
  VORONET_EXPECT(config_.bucket_size > 0.0, "serve: non-positive bucket size");
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
  if (config_.cache) {
    auto it = cache_.find(spec_hash(spec));
    if (it != cache_.end() && same_region(it->second.spec, spec) &&
        it->second.entry.version == harness_.topology_version()) {
      ++stats_.cache_hits;
      t.done = true;
      t.cache_hit = true;
      t.completed = t.arrival;
      t.completed_version = it->second.entry.version;
      t.matches = it->second.entry.matches;
      ++stats_.completed;
      return id;
    }
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

  const std::uint64_t key = bucket_key(spec.target());
  Bucket& bucket = buckets_[key];
  bucket.members.push_back(id);
  if (bucket.members.size() >= config_.max_batch) {
    flush_bucket(key);
  } else if (!bucket.timer_armed) {
    bucket.timer_armed = true;
    harness_.network().schedule(config_.batch_window, [this, key] {
      Bucket& b = buckets_[key];
      b.timer_armed = false;
      if (!b.members.empty()) flush_bucket(key);
    });
  }
  return id;
}

std::uint64_t QueryServer::bucket_key(Vec2 target) const {
  const auto cell = [&](double v) {
    const double c = std::floor(v / config_.bucket_size);
    return static_cast<std::int64_t>(c);
  };
  return mix64(static_cast<std::uint64_t>(cell(target.x)) * 0x100000001b3ULL ^
               static_cast<std::uint64_t>(cell(target.y)));
}

void QueryServer::flush_bucket(std::uint64_t key) {
  Bucket& bucket = buckets_[key];
  std::vector<TicketId> members;
  members.swap(bucket.members);
  if (members.empty()) return;

  // Nobody to serve: the true result set of every member is empty.
  if (harness_.roster().empty()) {
    const std::size_t n = members.size();
    for (const TicketId id : members) complete(id, {}, n, false);
    return;
  }

  // Covering disk: centroid of the member targets, radius wide enough
  // that every site matching ANY member lies inside (header proof).
  Vec2 c{0.0, 0.0};
  for (const TicketId id : members) c = c + tickets_.at(id).spec.target();
  c = (1.0 / static_cast<double>(members.size())) * c;
  double radius = 0.0;
  for (const TicketId id : members) {
    const QuerySpec& s = tickets_.at(id).spec;
    radius = std::max(radius,
                      std::max(dist(c, s.a), dist(c, s.b)) + s.tol);
  }

  ++stats_.batches;
  stats_.batch_members += members.size();
  const NodeId gateway = harness_.random_node(rng_);
  const std::uint64_t flood_id =
      harness_.issue_radius_query(gateway, c, radius);
  flights_[flood_id].members = std::move(members);
}

void QueryServer::on_flood_complete(std::uint64_t flood_id) {
  auto it = flights_.find(flood_id);
  if (it == flights_.end()) return;  // not one of ours (direct test query)
  const std::vector<TicketId> members = std::move(it->second.members);
  flights_.erase(it);

  // Copy the served cells before anything re-enters the harness: the
  // record reference is invalidated by issuing further queries.
  const std::vector<ViewEntry> owners = harness_.query_record(flood_id).owners;
  const std::uint64_t version = harness_.topology_version();

  for (const TicketId id : members) {
    const QuerySpec spec = tickets_.at(id).spec;
    std::vector<NodeId> matches;
    for (const ViewEntry& e : owners) {  // sorted by id -> matches sorted
      if (site_within_tolerance(spec.a, spec.b, e.pos, spec.tol)) {
        matches.push_back(e.id);
      }
    }
    if (config_.cache) {
      if (cache_.size() >= config_.cache_capacity) {
        stats_.cache_entries_dropped += cache_.size();
        cache_.clear();
      }
      KeyedEntry& slot = cache_[spec_hash(spec)];
      slot.spec = spec;
      slot.entry.version = version;
      slot.entry.matches = matches;
    }
    complete(id, std::move(matches), members.size(), false);
  }
}

void QueryServer::complete(TicketId id, std::vector<NodeId> matches,
                           std::size_t batch_size, bool cache_hit) {
  Ticket& t = tickets_.at(id);
  VORONET_EXPECT(!t.done, "serve: double completion of a ticket");
  t.done = true;
  t.cache_hit = cache_hit;
  t.completed = harness_.network().now();
  t.completed_version = harness_.topology_version();
  t.batch_size = batch_size;
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
