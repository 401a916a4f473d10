// scenario::Runner -- the one execution engine every scenario runs
// through.
//
// A Runner builds the full differential stack (Overlay ground truth +
// message-level protocol engine + query engine) from a Scenario's
// parameterization, grows the initial population, schedules the timeline
// through QueryHarness::schedule_event, sequences the quiesce / verify
// barriers, and emits one unified scenario::Report: convergence time,
// per-kind message counts, wire statistics, differential verdicts and
// per-query completion / recall / precision grading.
//
// Replay guarantee: everything the Runner does is driven by the
// scenario's seed through the deterministic event queue -- no wall-clock
// value enters the Report -- so running the same scenario twice produces
// bit-identical Report JSON (asserted over every committed scenario file
// by tests/scenario_test.cpp).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "obs/sampler.hpp"
#include "protocol/query_harness.hpp"
#include "scenario/scenario.hpp"
#include "sim/metrics.hpp"

namespace voronet {
class Json;
}

namespace voronet::scenario {

struct Report {
  std::string name;
  /// Parameter echo, so a report identifies its experiment on its own.
  std::uint64_t seed = 0;
  std::string latency_name;
  double loss = 0.0;

  std::size_t initial_population = 0;
  std::size_t final_population = 0;
  std::size_t joins = 0;    ///< timeline joins scheduled (incl. revives)
  std::size_t leaves = 0;   ///< leaves executed (population-floor skips excluded)
  std::size_t crashes = 0;  ///< crashes executed
  std::size_t revives = 0;  ///< crash positions rejoined
  std::size_t stalls = 0;   ///< gray-failure stall windows opened

  bool quiesced = false;   ///< every drain completed within budget
  bool converged = false;  ///< strict differential view audit at the end
  /// The final audit's raw counts, so a convergence failure names its
  /// offenders instead of just flipping the bit (scenario_runner --check,
  /// fuzz oracle clause messages).
  std::size_t final_stale = 0;
  std::size_t final_missing = 0;
  std::size_t final_dangling = 0;
  double duration = 0.0;   ///< simulated time, timeline origin -> drain
  /// Timeline origin -> last view-advancing update (the convergence
  /// instant of the workload; 0 when the timeline changed no views).
  double convergence_time = 0.0;
  std::size_t events_processed = 0;

  /// Wire accounting over the timeline phase (populate excluded): deltas
  /// of the transport's counters.
  protocol::NetworkStats wire;
  /// Reliable-transfer attempt distribution over the whole run (settled
  /// and abandoned transfers; 1 = no retransmission).  The max is the
  /// retransmit-storm detector the chaos tests assert against.
  std::size_t transfers_settled = 0;
  double mean_transfer_attempts = 0.0;
  double max_transfer_attempts = 0.0;
  /// Per-kind message deltas over the timeline phase.
  std::array<std::uint64_t, sim::kMessageKindCount> messages{};
  std::uint64_t total_messages = 0;
  /// Per-kind serialized bytes-on-wire deltas (codec frame sizes,
  /// net/wire_format.hpp -- identical billing on every transport
  /// backend, retransmissions included).
  std::array<std::uint64_t, sim::kMessageKindCount> wire_bytes_by_kind{};
  std::uint64_t total_wire_bytes = 0;

  // --- Query grading (vs the post-quiescence ground truth) -----------------
  std::size_t queries = 0;
  std::size_t completed = 0;
  std::size_t identical = 0;  ///< result sets equal to the ground truth
  std::size_t exact = 0;      ///< recall == precision == 1
  std::size_t reissued = 0;   ///< needed more than one flood epoch
  std::uint32_t max_epochs = 0;
  std::uint64_t branch_failovers = 0;
  double mean_recall = 1.0, min_recall = 1.0;
  double mean_precision = 1.0, min_precision = 1.0;
  double p50_completion = 0.0, p99_completion = 0.0;
  double mean_route_hops = 0.0;
  /// Query-kind wire attempts (kQuery/kQueryForward/kQueryResult/
  /// kQueryAbort, retransmits included, transport acks excluded) per
  /// issued query -- churn/maintenance traffic is not billed here.
  double wire_msgs_per_query = 0.0;

  /// One row per kVerifyBarrier event: the differential audit at that
  /// instant (mid-partition barriers legitimately show stale views).
  struct Barrier {
    double at = 0.0;  ///< simulated time relative to the timeline origin
    std::size_t nodes = 0;
    std::size_t stale = 0;
    std::size_t missing = 0;
    std::size_t dangling = 0;
    std::size_t pending_joins = 0;
    std::size_t in_flight = 0;
    bool converged = false;
  };
  std::vector<Barrier> barriers;

  /// Windowed time series (Scenario::sample_interval > 0): per-kind
  /// message deltas plus end-of-window gauges at fixed sim-time
  /// boundaries.  The per-kind window sums equal the end-of-run `messages`
  /// deltas exactly (the sampler is passive; tests/obs_test.cpp asserts
  /// the conservation).
  double sample_interval = 0.0;
  bool windows_truncated = false;
  std::vector<obs::Window> windows;

  [[nodiscard]] std::uint64_t messages_of(sim::MessageKind kind) const {
    return messages[static_cast<std::size_t>(kind)];
  }

  /// The unified report schema (DESIGN.md, "Scenario API").  Fully
  /// deterministic for a given scenario + seed.
  [[nodiscard]] Json to_json() const;
};

class Runner {
 public:
  /// Validates and takes ownership of the scenario; the harness is built
  /// but the population is not grown until run().
  explicit Runner(Scenario s);

  /// Execute the scenario once: populate, schedule the timeline, sequence
  /// barriers, drain, grade.  Callable once per Runner.
  Report run();

  /// Collect a causal trace of the run (obs::Tracer).  Tracing starts at
  /// the timeline origin (the populate phase is not traced, matching the
  /// Report's delta accounting); read the result from
  /// harness().harness().tracer() after run().  Call before run().
  void set_trace(bool on = true) { trace_ = on; }

  /// Arm the flight recorder with a per-node ring of `per_node_capacity`
  /// entries (obs::FlightRecorder); dumps via
  /// harness().harness().recorder().to_json() after run().
  void record_flight(std::size_t per_node_capacity = 64) {
    flight_capacity_ = per_node_capacity;
  }

  /// The underlying differential stack, for callers that want to inspect
  /// state after the run (examples, tests).
  [[nodiscard]] protocol::QueryHarness& harness() { return qh_; }

 private:
  Scenario scenario_;
  protocol::QueryHarness qh_;
  bool ran_ = false;
  bool trace_ = false;
  std::size_t flight_capacity_ = 0;
};

/// Convenience: build a Runner, run, return the report.
Report run_scenario(const Scenario& s);

// ---------------------------------------------------------------------------
// Sweep combinator: one scenario x a parameter grid.
// ---------------------------------------------------------------------------

/// Axes of a sweep; an empty axis keeps the base scenario's value.  Cells
/// run in population-major, then latency, then loss order (the order the
/// bench tables print in).
struct SweepGrid {
  std::vector<protocol::LatencyModel> latencies;
  std::vector<double> losses;
  std::vector<std::size_t> populations;
};

struct SweepCell {
  Scenario scenario;  ///< the base with this cell's overrides applied
  Report report;
};

/// Run `base` once per grid cell (latency x loss x population), applying
/// the overrides to a copy.  Replaces the hand-rolled latency x loss
/// loops the protocol / query benches and tests used to copy-paste.
std::vector<SweepCell> sweep(const Scenario& base, const SweepGrid& grid);

}  // namespace voronet::scenario
