#include "voronet/churn.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "common/expect.hpp"

namespace voronet {

ChurnReport run_events(Overlay& overlay, workload::PointGenerator& points,
                       const std::vector<scenario::Event>& events,
                       std::uint64_t seed) {
  ChurnReport report;
  sim::EventQueue queue;
  // Shared by the self-re-arming Poisson closures, which outlive this
  // scope's locals on the event queue.
  const auto rng = std::make_shared<Rng>(seed);

  // Fire-time bodies of the three supported operation classes.
  const auto do_join = [&overlay, &points, rng, &report] {
    overlay.insert(points.next(*rng));
    ++report.joins;
  };
  const auto make_leave = [&overlay, rng, &report](std::size_t floor) {
    return [&overlay, rng, &report, floor] {
      if (overlay.size() <= floor) return;
      overlay.remove(overlay.random_object(*rng));
      ++report.leaves;
    };
  };
  const auto do_query = [&overlay, rng, &report] {
    if (overlay.size() < 2) return;
    const ObjectId from = overlay.random_object(*rng);
    overlay.query(from, {rng->uniform(), rng->uniform()});
    ++report.queries;
  };

  std::array<std::uint64_t, sim::kMessageKindCount> msgs_before{};
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    msgs_before[k] =
        overlay.metrics().messages(static_cast<sim::MessageKind>(k));
  }

  // A Poisson event class re-arms itself after every firing until its
  // window closes; the event queue interleaves the classes in timestamp
  // order.  Count-based events schedule every operation up front.
  const std::function<void(double, double, double, std::function<void()>)>
      arm = [&queue, rng, &arm](double rate, double end, double from,
                                std::function<void()> action) {
        if (rate <= 0.0) return;
        const double delay = rng->exponential(rate);
        if (from + delay > end) return;
        queue.schedule(from + delay - queue.now(),
                       [&arm, rate, end, at = from + delay,
                        action = std::move(action)] {
                         action();
                         arm(rate, end, at, action);
                       });
      };

  for (const scenario::Event& e : events) {
    VORONET_EXPECT(e.at >= 0.0 && e.duration >= 0.0,
                   "churn event with a negative time");
    std::function<void()> body;
    switch (e.kind) {
      case scenario::EventKind::kJoinBurst:
        body = do_join;
        break;
      case scenario::EventKind::kLeave:
        body = make_leave(std::max<std::size_t>(e.min_population, 1));
        break;
      case scenario::EventKind::kQueryStream:
        body = do_query;
        break;
      case scenario::EventKind::kQuiesce:
        continue;  // the sequential driver always runs to idle
      default:
        VORONET_EXPECT(false,
                       "sequential churn supports join/leave/query events "
                       "only; crash, partition and region-query timelines "
                       "need the message layer (scenario::Runner)");
    }
    if (e.spread == scenario::Spread::kPoisson) {
      arm(e.rate, e.at + e.duration, e.at, std::move(body));
      continue;
    }
    for (std::size_t i = 0; i < e.count; ++i) {
      const double at =
          e.spread == scenario::Spread::kUniform
              ? rng->uniform(e.at, e.at + e.duration)
              : (e.count <= 1 ? e.at
                              : e.at + e.duration * static_cast<double>(i) /
                                           static_cast<double>(e.count));
      queue.schedule(at - queue.now(), body);
    }
  }

  const sim::EventQueue::RunResult run = queue.run_to_idle();
  VORONET_EXPECT(!run.budget_exhausted,
                 "churn run exhausted the event budget before quiescence");
  report.events_processed = run.processed;
  report.simulated_time = queue.now();
  report.final_population = overlay.size();
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    report.messages[k] =
        overlay.metrics().messages(static_cast<sim::MessageKind>(k)) -
        msgs_before[k];
    report.total_messages += report.messages[k];
  }
  return report;
}

}  // namespace voronet
