#include "protocol/query_harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace voronet::protocol {

void QueryHarness::populate(std::size_t objects, std::uint64_t seed,
                            double spacing) {
  populate(objects, seed, workload::DistributionConfig::uniform(), spacing);
}

void QueryHarness::populate(std::size_t objects, std::uint64_t seed,
                            const workload::DistributionConfig& dist,
                            double spacing) {
  workload::PointGenerator gen(dist);
  Rng rng(seed);
  std::size_t i = 0;
  while (harness_.node_count() + harness_.pending_joins() < objects) {
    harness_.join_after(spacing * static_cast<double>(i++), gen.next(rng));
  }
  const auto run = harness_.run_to_idle();
  VORONET_EXPECT(!run.budget_exhausted, "query-harness growth did not quiesce");
}

double QueryHarness::Differential::recall() const {
  // An empty truth set is only "fully recalled" by an empty result: the
  // old unconditional 1.0 hid message-layer false positives entirely.
  if (truth.matches.empty()) return msg.matches.empty() ? 1.0 : 0.0;
  std::size_t found = 0;
  for (const NodeId id : msg.matches) {
    if (std::binary_search(truth.matches.begin(), truth.matches.end(), id)) {
      ++found;
    }
  }
  return static_cast<double>(found) /
         static_cast<double>(truth.matches.size());
}

double QueryHarness::Differential::precision() const {
  if (msg.matches.empty()) return 1.0;  // nothing found, nothing false
  std::size_t correct = 0;
  for (const NodeId id : msg.matches) {
    if (std::binary_search(truth.matches.begin(), truth.matches.end(), id)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(msg.matches.size());
}

QueryHarness::Differential QueryHarness::grade(
    std::uint64_t query_id, const RegionQueryResult& truth) const {
  Differential d;
  d.truth = truth;
  d.msg = harness_.query_record(query_id);
  d.completed = d.msg.done;

  std::vector<NodeId> truth_owners = truth.owners;
  std::sort(truth_owners.begin(), truth_owners.end());
  std::vector<NodeId> msg_owners;
  msg_owners.reserve(d.msg.owners.size());
  for (const ViewEntry& e : d.msg.owners) msg_owners.push_back(e.id);
  d.owners_match = msg_owners == truth_owners;
  d.matches_match = d.msg.matches == truth.matches;  // both sorted
  d.counts_match = d.msg.forward_sends == truth.forward_messages &&
                   d.msg.result_sends == truth.result_messages;
  return d;
}

QueryHarness::Differential QueryHarness::collect(
    std::uint64_t query_id) const {
  const ProtocolHarness::QueryRecord& rec = harness_.query_record(query_id);
  const Overlay& overlay = harness_.overlay();
  // The result sets of the sequential execution are independent of the
  // entry object; fall back to any live object when the issuer departed.
  NodeId from = rec.spec.issuer;
  if (!overlay.contains(from)) {
    VORONET_EXPECT(!overlay.objects().empty(),
                   "grading a query against an empty overlay");
    from = overlay.objects().front();
  }
  const RegionQueryResult truth =
      rec.spec.kind == QueryKind::kRange
          ? range_query(overlay, from, rec.spec.a, rec.spec.b, rec.spec.tol)
          : radius_query(overlay, from, rec.spec.a, rec.spec.tol);
  return grade(query_id, truth);
}

// ---------------------------------------------------------------------------
// Scenario event scheduling
// ---------------------------------------------------------------------------

void QueryHarness::issue_scenario_query(
    const scenario::Event& event, bool range, double delay,
    const std::shared_ptr<ScheduleContext>& ctx) {
  const NodeId from = harness_.random_node(ctx->rng);
  QueryGeometry spec;
  if (event.has_spec) {
    spec.a = event.a;
    spec.b = event.b;
    spec.tol = event.tol;
  } else {
    spec = range ? draw_range_geometry(ctx->rng, harness_.node_count())
                 : draw_radius_geometry(ctx->rng, harness_.node_count());
  }
  ctx->query_ids.push_back(
      range ? issue_range(from, spec.a, spec.b, spec.tol, delay)
            : issue_radius(from, spec.a, spec.tol, delay));
}

NodeId QueryHarness::select_target(scenario::Target target, Rng& rng) const {
  using scenario::Target;
  if (target == Target::kUniformTarget) return harness_.random_node(rng);
  const Overlay& overlay = harness_.overlay();
  NodeId best = kNoObject;
  std::size_t best_score = 0;
  for (const NodeId id : overlay.objects()) {
    const NodeView& v = overlay.view(id);
    std::size_t score = 0;
    switch (target) {
      case Target::kHighestDegree:
        score = v.degree();
        break;
      case Target::kLongLinkHub:
        score = v.blr.size();
        break;
      case Target::kDensestRegion:
        score = v.cn.size();
        break;
      case Target::kUniformTarget:
        break;
    }
    // live_ids_ iteration order is insertion order, not id order, so the
    // tie-break must compare ids explicitly for a deterministic pick.
    if (best == kNoObject || score > best_score ||
        (score == best_score && id < best)) {
      best = id;
      best_score = score;
    }
  }
  VORONET_EXPECT(best != kNoObject, "targeted selector on an empty overlay");
  return best;
}

void QueryHarness::fire_leave(const std::shared_ptr<ScheduleContext>& ctx,
                              std::size_t floor, scenario::Target target) {
  if (harness_.node_count() <= floor) return;
  harness_.leave(select_target(target, ctx->rng));
  ++ctx->leaves;
}

void QueryHarness::fire_crash(const std::shared_ptr<ScheduleContext>& ctx,
                              std::size_t floor, scenario::Target target) {
  if (harness_.node_count() <= floor) return;
  const NodeId victim = select_target(target, ctx->rng);
  ctx->crashed_positions.push_back(harness_.overlay().position(victim));
  harness_.crash(victim);
  ++ctx->crashes;
}

void QueryHarness::fire_stall(const std::shared_ptr<ScheduleContext>& ctx,
                              std::size_t floor, scenario::Target target,
                              double duration) {
  // The floor guards stalls too: wedging most of a tiny overlay stops
  // every query from completing within the run budget.
  if (harness_.node_count() <= floor) return;
  Transport& network = harness_.network();
  // Retry a few draws so overlapping uniform stalls tend to pick distinct
  // victims (targeted selectors are deterministic: re-stalling the same
  // node extends nothing -- the kEven spread already staggers windows).
  NodeId victim = select_target(target, ctx->rng);
  for (int i = 0; i < 4 && network.stalled(victim) &&
                  target == scenario::Target::kUniformTarget;
       ++i) {
    victim = select_target(target, ctx->rng);
  }
  if (network.stalled(victim)) return;
  network.stall(victim);
  ++ctx->stalls;
  // Auto-resume when the window closes: a stall is a *window*, so every
  // scenario quiesces without needing a matching kResume event.
  harness_.network().schedule(duration, [this, victim] {
    harness_.network().resume(victim);
  });
}

void QueryHarness::schedule_event(
    const scenario::Event& event, double t0,
    const std::shared_ptr<ScheduleContext>& ctx) {
  using scenario::EventKind;
  using scenario::QueryMix;
  using scenario::Spread;
  Transport& queue = harness_.network();
  const double now = queue.now();
  // An event whose start the run has already passed -- a preceding
  // quiesce barrier drained beyond it, and how far a drain advances the
  // clock depends on the retransmit tail, hence on seed and loss --
  // fires immediately: a declarative timeline must not become invalid
  // under a parameter edit.
  const double start = std::max(t0 + event.at, now);
  // The floor below which leave/crash fire-time bodies become no-ops.
  const std::size_t floor = std::max<std::size_t>(event.min_population, 4);

  /// Time of operation i under the event's spread (count-based spreads;
  /// Poisson streams re-arm themselves at fire time instead).
  const auto op_time = [&](std::size_t i) {
    switch (event.spread) {
      case Spread::kUniform:
        return ctx->rng.uniform(start, start + event.duration);
      case Spread::kEven:
      case Spread::kPoisson:
        break;
    }
    return event.count <= 1 ? start
                            : start + event.duration *
                                          static_cast<double>(i) /
                                          static_cast<double>(event.count);
  };
  /// Arm a self-rescheduling Poisson process: `fire` runs at each arrival
  /// until the window closes.  The closure owns ctx, so the stream stays
  /// alive for as long as it keeps re-arming.
  const auto arm_poisson = [&](auto&& fire) {
    const double end = start + event.duration;
    auto arm = [this, &queue, ctx, rate = event.rate, end,
                fire = std::forward<decltype(fire)>(fire)](
                   auto&& self, double from) -> void {
      const double delay = ctx->rng.exponential(rate);
      if (from + delay > end) return;
      queue.schedule(from + delay - queue.now(),
                     [self, fire, at = from + delay] {
                       fire();
                       self(self, at);
                     });
    };
    arm(arm, start);
  };

  switch (event.kind) {
    case EventKind::kJoinBurst: {
      if (event.spread == Spread::kPoisson) {
        arm_poisson([this, ctx] {
          harness_.join_after(0.0, ctx->points.next(ctx->rng));
          ++ctx->joins;
        });
        break;
      }
      for (std::size_t i = 0; i < event.count; ++i) {
        harness_.join_after(op_time(i) - now, ctx->points.next(ctx->rng));
        ++ctx->joins;
      }
      break;
    }
    case EventKind::kLeave: {
      const auto fire = [this, ctx, floor, target = event.target] {
        fire_leave(ctx, floor, target);
      };
      if (event.spread == Spread::kPoisson) {
        arm_poisson(fire);
        break;
      }
      for (std::size_t i = 0; i < event.count; ++i) {
        queue.schedule(op_time(i) - now, fire);
      }
      break;
    }
    case EventKind::kCrash: {
      const auto fire = [this, ctx, floor, target = event.target] {
        fire_crash(ctx, floor, target);
      };
      if (event.spread == Spread::kPoisson) {
        arm_poisson(fire);
        break;
      }
      for (std::size_t i = 0; i < event.count; ++i) {
        queue.schedule(op_time(i) - now, fire);
      }
      break;
    }
    case EventKind::kRevive: {
      queue.schedule(start - now, [this, ctx, count = event.count] {
        for (std::size_t i = 0; i < count && !ctx->crashed_positions.empty();
             ++i) {
          harness_.join_after(0.0, ctx->crashed_positions.back());
          ctx->crashed_positions.pop_back();
          ++ctx->revives;
          ++ctx->joins;
        }
      });
      break;
    }
    case EventKind::kPartitionStart: {
      queue.schedule(start - now, [this, ctx, axis = event.axis_value,
                                   target = event.target] {
        // Node positions are immutable, so consulting the ground truth
        // for the side of the cut is safe.  A targeted cut aims through
        // the selected node's x instead of the declared axis, isolating
        // (say) the long-link hub on whichever side is smaller.
        const Overlay& overlay = harness_.overlay();
        double cut = axis;
        if (target != scenario::Target::kUniformTarget &&
            harness_.node_count() > 0) {
          cut = overlay.position(select_target(target, ctx->rng)).x;
        }
        harness_.network().set_link_filter(
            [&overlay, cut](NodeId a, NodeId b) {
              const auto west = [&overlay, cut](NodeId n) {
                return overlay.contains(n) ? overlay.position(n).x < cut
                                           : true;
              };
              return west(a) == west(b);
            });
      });
      break;
    }
    case EventKind::kPartitionHeal: {
      queue.schedule(start - now,
                     [this] { harness_.network().clear_link_filter(); });
      break;
    }
    case EventKind::kRangeQuery:
      issue_scenario_query(event, /*range=*/true, start - now, ctx);
      break;
    case EventKind::kRadiusQuery:
      issue_scenario_query(event, /*range=*/false, start - now, ctx);
      break;
    case EventKind::kQueryStream: {
      const auto is_range = [mix = event.mix](std::size_t i) {
        return mix == QueryMix::kRange ||
               (mix == QueryMix::kMixed && i % 2 == 0);
      };
      if (event.spread == Spread::kPoisson) {
        // Fire-time issue: the spec must see the population of the issue
        // instant, so the stream schedules the issue itself, not a
        // pre-drawn query.
        auto counter = std::make_shared<std::size_t>(0);
        arm_poisson([this, ctx, event, counter, is_range] {
          issue_scenario_query(event, is_range((*counter)++), 0.0, ctx);
        });
        break;
      }
      for (std::size_t i = 0; i < event.count; ++i) {
        issue_scenario_query(event, is_range(i), op_time(i) - now, ctx);
      }
      break;
    }
    case EventKind::kStall: {
      // All `count` stall windows open at `start` and close together at
      // `start + duration` (fire_stall schedules each auto-resume); the
      // victims are resolved at fire time against the live population.
      for (std::size_t i = 0; i < event.count; ++i) {
        queue.schedule(start - now, [this, ctx, floor, target = event.target,
                                     duration = event.duration] {
          fire_stall(ctx, floor, target, duration);
        });
      }
      break;
    }
    case EventKind::kResume: {
      queue.schedule(start - now, [this] { harness_.network().resume_all(); });
      break;
    }
    case EventKind::kLossBurst: {
      queue.schedule(start - now, [this, m = event.magnitude] {
        harness_.network().begin_loss_burst(m);
      });
      queue.schedule(start + event.duration - now, [this, m = event.magnitude] {
        harness_.network().end_loss_burst(m);
      });
      break;
    }
    case EventKind::kLatencySpike: {
      queue.schedule(start - now, [this, m = event.magnitude] {
        harness_.network().begin_latency_spike(m);
      });
      queue.schedule(start + event.duration - now, [this, m = event.magnitude] {
        harness_.network().end_latency_spike(m);
      });
      break;
    }
    case EventKind::kDuplicate: {
      queue.schedule(start - now, [this, m = event.magnitude] {
        harness_.network().begin_duplication(m);
      });
      queue.schedule(start + event.duration - now, [this, m = event.magnitude] {
        harness_.network().end_duplication(m);
      });
      break;
    }
    case EventKind::kQuiesce:
    case EventKind::kVerifyBarrier:
      VORONET_EXPECT(false,
                     "barrier events sequence the run, not the queue; "
                     "scenario::Runner handles them");
  }
}

QueryHarness::Differential QueryHarness::run_range(NodeId from, Vec2 a,
                                                   Vec2 b,
                                                   double tolerance) {
  const RegionQueryResult truth =
      range_query(harness_.overlay(), from, a, b, tolerance);
  const std::uint64_t id = harness_.issue_range_query(from, a, b, tolerance);
  const auto run = harness_.run_to_idle();
  VORONET_EXPECT(!run.budget_exhausted, "range query did not quiesce");
  return grade(id, truth);
}

QueryHarness::Differential QueryHarness::run_radius(NodeId from, Vec2 center,
                                                    double radius) {
  const RegionQueryResult truth =
      radius_query(harness_.overlay(), from, center, radius);
  const std::uint64_t id = harness_.issue_radius_query(from, center, radius);
  const auto run = harness_.run_to_idle();
  VORONET_EXPECT(!run.budget_exhausted, "radius query did not quiesce");
  return grade(id, truth);
}

}  // namespace voronet::protocol
