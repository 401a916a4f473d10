// Tests for the event-driven churn driver.
#include "voronet/churn.hpp"

#include <gtest/gtest.h>

namespace voronet {
namespace {

/// Three Poisson streams over [0, duration]: joins, leaves suppressed
/// below `min_population`, and queries.
std::vector<scenario::Event> poisson_churn(double join_rate, double leave_rate,
                                           double query_rate, double duration,
                                           std::size_t min_population = 8) {
  return {
      scenario::Event::join_poisson(0.0, join_rate, duration),
      scenario::Event::leave_poisson(0.0, leave_rate, duration,
                                     min_population),
      scenario::Event::query_poisson(0.0, query_rate, duration),
  };
}

TEST(Churn, RunsAndKeepsInvariants) {
  OverlayConfig cfg;
  cfg.n_max = 2048;
  cfg.seed = 1;
  Overlay overlay(cfg);
  Rng rng(1);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  for (int i = 0; i < 50; ++i) overlay.insert(gen.next(rng));

  const double duration = 50.0;
  const ChurnReport report =
      run_events(overlay, gen, poisson_churn(2.0, 1.0, 3.0, duration), 1);

  EXPECT_GT(report.joins, 0u);
  EXPECT_GT(report.leaves, 0u);
  EXPECT_GT(report.queries, 0u);
  EXPECT_EQ(report.final_population, overlay.size());
  EXPECT_LE(report.simulated_time, duration);
  EXPECT_EQ(report.events_processed,
            report.joins + report.leaves + report.queries);
  overlay.check_invariants();
}

TEST(Churn, PopulationFloorIsRespected) {
  OverlayConfig cfg;
  cfg.n_max = 512;
  cfg.seed = 2;
  Overlay overlay(cfg);
  Rng rng(2);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  for (int i = 0; i < 12; ++i) overlay.insert(gen.next(rng));

  // Leaves only.
  run_events(overlay, gen, poisson_churn(0.0, 5.0, 0.0, 100.0, 8), 2);
  EXPECT_EQ(overlay.size(), 8u);
  overlay.check_invariants();
}

TEST(Churn, GrowthOnlyMatchesJoins) {
  OverlayConfig cfg;
  cfg.n_max = 512;
  cfg.seed = 3;
  Overlay overlay(cfg);
  Rng rng(3);
  workload::PointGenerator gen(workload::DistributionConfig::power_law(2.0));
  overlay.insert(gen.next(rng));

  const ChurnReport report =
      run_events(overlay, gen, poisson_churn(3.0, 0.0, 0.0, 30.0), 3);
  EXPECT_EQ(overlay.size(), 1 + report.joins);
  overlay.check_invariants();
}

TEST(Churn, EventVocabularyDrivesTheSequentialLayer) {
  // The unified scenario vocabulary: count-based events interpret
  // directly against the overlay, same as the Poisson streams.
  OverlayConfig cfg;
  cfg.n_max = 512;
  cfg.seed = 5;
  Overlay overlay(cfg);
  Rng rng(5);
  workload::PointGenerator gen(workload::DistributionConfig::uniform());
  for (int i = 0; i < 30; ++i) overlay.insert(gen.next(rng));

  const std::vector<scenario::Event> timeline = {
      scenario::Event::join_burst(0.0, 25, 10.0),
      scenario::Event::leave(2.0, 10, 8.0, /*min_population=*/8,
                             scenario::Spread::kUniform),
      scenario::Event::query_stream(0.0, 40, 10.0),
      scenario::Event::quiesce(10.0),  // no-op barrier, accepted
  };
  const ChurnReport report = run_events(overlay, gen, timeline, 99);
  EXPECT_EQ(report.joins, 25u);
  EXPECT_EQ(report.leaves, 10u);
  EXPECT_EQ(report.queries, 40u);
  EXPECT_EQ(overlay.size(), 30u + 25u - 10u);
  EXPECT_GT(report.total_messages, 0u);
  overlay.check_invariants();

  // Message-layer-only events are rejected loudly, not silently dropped.
  EXPECT_THROW(run_events(overlay, gen,
                          {scenario::Event::crash(0.0, 1, 1.0, 8)}, 99),
               std::exception);
}

TEST(Churn, DeterministicForSeed) {
  const auto run_once = [] {
    OverlayConfig cfg;
    cfg.n_max = 512;
    cfg.seed = 4;
    Overlay overlay(cfg);
    Rng rng(4);
    workload::PointGenerator gen(workload::DistributionConfig::uniform());
    for (int i = 0; i < 20; ++i) overlay.insert(gen.next(rng));
    const ChurnReport r =
        run_events(overlay, gen, poisson_churn(1.0, 1.0, 4.0, 25.0), 4);
    return std::tuple{r.joins, r.leaves, r.queries, overlay.size()};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace voronet
