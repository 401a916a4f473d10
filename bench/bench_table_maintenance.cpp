// Section 4.2/4.3 claims table: maintenance costs of the overlay --
//   * join: O(log^2 N) greedy forwards plus O(|vn|) local messages,
//   * leave: O(|vn|) messages, no routing,
//   * query: O(log^2 N) forwards plus O(1) fictive-object updates.
//
// We grow an overlay, run a churn phase, and report per-operation hop and
// message statistics plus the per-kind message breakdown.
//
// Usage: bench_table_maintenance [--full] [--csv] [--objects N] [--seed S]
//                                [--churn-ops C]
#include <iostream>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "stats/table.hpp"
#include "voronet/churn.hpp"

int main(int argc, char** argv) try {
  using namespace voronet;
  const bench::Args args(argc, argv);
  const bench::Scale scale = bench::resolve_scale(args);
  const auto churn_ops = static_cast<std::size_t>(args.flags().get_int(
      "churn-ops", scale.full ? 30'000 : (args.smoke ? 1'000 : 5'000)));
  args.finish();

  stats::Table op_table({"distribution", "objects", "operation", "count",
                         "hops mean", "hops max", "msgs mean", "msgs max"});
  stats::Table msg_table({"distribution", "message kind", "count",
                          "per operation"});

  for (const auto& dist : {workload::DistributionConfig::uniform(),
                           workload::DistributionConfig::power_law(5.0)}) {
    Timer t;
    OverlayConfig cfg;
    cfg.n_max = scale.objects;
    cfg.seed = scale.seed;
    Overlay overlay(cfg);
    Rng rng(scale.seed ^ 0xabcULL);
    workload::PointGenerator gen(dist);
    bench::grow_overlay(overlay, dist, scale.objects / 2, scale.objects, rng,
                        [](std::size_t) {});
    overlay.metrics().reset();

    // Churn phase: equal join/leave rates around the half-size population,
    // with queries interleaved.
    const double duration = static_cast<double>(churn_ops) / 4.0;
    const ChurnReport report = run_events(
        overlay, gen,
        {scenario::Event::join_poisson(0.0, 1.0, duration),
         scenario::Event::leave_poisson(0.0, 1.0, duration,
                                        /*min_population=*/8),
         scenario::Event::query_poisson(0.0, 2.0, duration)},
        scale.seed);
    std::cerr << "[maintenance] " << dist.name() << ": " << report.joins
              << " joins, " << report.leaves << " leaves, " << report.queries
              << " queries (" << t.seconds() << "s)\n";

    const auto& m = overlay.metrics();
    std::size_t total_ops = 0;
    for (const auto kind : {sim::OperationKind::kJoin,
                            sim::OperationKind::kLeave,
                            sim::OperationKind::kQuery}) {
      const auto& hops = m.hops(kind);
      const auto& msgs = m.operation_messages(kind);
      total_ops += hops.count();
      op_table.add_row({dist.name(), stats::Table::cell(overlay.size()),
                        std::string(sim::operation_kind_name(kind)),
                        stats::Table::cell(hops.count()),
                        stats::Table::cell(hops.mean(), 2),
                        stats::Table::cell(static_cast<std::size_t>(
                            hops.count() ? hops.max() : 0.0)),
                        stats::Table::cell(msgs.mean(), 1),
                        stats::Table::cell(static_cast<std::size_t>(
                            msgs.count() ? msgs.max() : 0.0))});
    }
    // The per-kind breakdown comes from the ChurnReport deltas, so it
    // covers exactly the churn phase regardless of what ran before.
    for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
      const auto kind = static_cast<sim::MessageKind>(k);
      msg_table.add_row(
          {dist.name(), std::string(sim::message_kind_name(kind)),
           stats::Table::cell(report.messages_of(kind)),
           stats::Table::cell(static_cast<double>(report.messages_of(kind)) /
                                  static_cast<double>(total_ops),
                              2)});
    }
    std::cerr << "[maintenance] " << dist.name() << ": "
              << report.messages_per_event()
              << " maintenance messages per churn event\n";
  }

  std::cout << "Sections 4.2/4.3: per-operation maintenance costs\n";
  if (scale.csv) {
    op_table.print_csv(std::cout);
  } else {
    op_table.print(std::cout);
  }
  std::cout << "\nMessage breakdown by protocol kind\n";
  if (scale.csv) {
    msg_table.print_csv(std::cout);
  } else {
    msg_table.print(std::cout);
  }
  bench::write_json_file(
      scale.json_path,
      bench::Json::object()
          .set("bench", bench::Json::string("table_maintenance"))
          .set("operations", bench::table_json(op_table))
          .set("messages", bench::table_json(msg_table)));
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_table_maintenance: " << e.what() << "\n";
  return 1;
}
