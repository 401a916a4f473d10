// Sequential churn driver: runs joins, leaves and queries against an
// overlay over simulated time through the discrete-event engine.
//
// The paper analyses join/leave costs (section 4.2) but evaluates a
// statically grown overlay; this driver extends the evaluation to sustained
// membership churn -- used by bench_table_maintenance and the churn
// example to demonstrate that view invariants hold and maintenance costs
// stay O(1)-ish per event at any churn rate.
//
// The driver speaks the scenario event vocabulary
// (src/scenario/events.hpp): run_events() interprets the membership /
// query subset (join bursts, leaves, query streams -- count-based or
// Poisson) directly against the Overlay.  The message-level counterpart
// of the same vocabulary is scenario::Runner; one timeline can drive
// either layer.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "scenario/events.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "voronet/overlay.hpp"
#include "workload/distributions.hpp"

namespace voronet {

struct ChurnReport {
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t queries = 0;
  std::size_t final_population = 0;
  double simulated_time = 0.0;
  std::size_t events_processed = 0;

  /// Maintenance messages generated during the churn phase, per protocol
  /// kind (delta of the overlay's sim::Metrics counters over the run), so
  /// callers can report message costs without resetting the overlay's
  /// cumulative counters around the call.
  std::array<std::uint64_t, sim::kMessageKindCount> messages{};
  std::uint64_t total_messages = 0;

  [[nodiscard]] std::uint64_t messages_of(sim::MessageKind kind) const {
    return messages[static_cast<std::size_t>(kind)];
  }
  /// Mean messages per churn event (join + leave + query).
  [[nodiscard]] double messages_per_event() const {
    const std::size_t events = joins + leaves + queries;
    return events == 0
               ? 0.0
               : static_cast<double>(total_messages) /
                     static_cast<double>(events);
  }
};

/// Interpret a timeline of scenario events against an existing overlay,
/// drawing join positions from `points` and every stochastic choice from
/// `seed`.  Supported kinds: kJoinBurst, kLeave, kQueryStream (queries
/// execute as greedy point routes to a random attribute point) and the
/// no-op barrier kQuiesce; crash / partition / region-query events need
/// the message layer and are rejected (use scenario::Runner).
ChurnReport run_events(Overlay& overlay, workload::PointGenerator& points,
                       const std::vector<scenario::Event>& events,
                       std::uint64_t seed);

}  // namespace voronet
