// Shared pieces of voronet_bench: run options, the result
// record every workload fills, and the outside-in probes (clocks, /proc
// readers, percentiles) the workloads measure with.
//
// voronet_bench calls only the library's public entry points; every number
// below is taken from outside the layer it describes.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0x5eedULL;
  int seconds = 0;  ///< length of the measured window; 0 = the spec's
  bool trace = false;
};

/// A wall-clock budget that every blocking wait of a workload respects,
/// so a collapsed backend fails the run instead of hanging it.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : at_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds))) {}
  [[nodiscard]] double remaining() const {
    return std::chrono::duration<double>(at_ - Clock::now()).count();
  }
  [[nodiscard]] bool passed() const { return remaining() <= 0.0; }

 private:
  Clock::time_point at_;
};

/// Metrics and correctness verdicts of one run.
class Result {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  /// A correctness gate: a false `ok` fails the run (exit status 1).
  void check(bool ok, const std::string& what);
  /// Run-shape facts recorded beside the provenance (shard and worker
  /// counts, sample sizes).
  void fact(const std::string& key, double value) {
    facts_.emplace_back(key, value);
  }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const Metric* find(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] std::size_t checks() const { return checks_; }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& facts()
      const {
    return facts_;
  }

  std::uint64_t attempted = 0;  ///< operations the workload issued
  std::uint64_t failed = 0;     ///< rejected, unanswered or wrong ones

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, double>> facts_;
  std::size_t checks_ = 0;
};

// --- Probes ----------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of `v`; sorts `v`.  0 when empty.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);
/// Samples strictly beyond the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// VmRSS of a process (0 = this one), in bytes.
std::uint64_t rss_bytes(pid_t pid = 0);
/// CPU time a thread has run, in ns (/proc/<pid>/task/<tid>/schedstat).
std::uint64_t thread_cpu_ns(pid_t pid, pid_t tid);
/// Thread ids of a process.
std::vector<pid_t> thread_ids(pid_t pid);
/// CPU time of the calling thread, in ns.
std::uint64_t self_cpu_ns();

/// Online processors of this host.
unsigned host_cpus();

/// All processors' time from /proc/stat, in clock ticks: the total and
/// the part the hypervisor gave to other guests (steal).
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTicks host_ticks();

// --- Workloads ---------------------------------------------------------------

/// The served-query workloads: serve_open, serve_skewed, serve_socket_wire.
bool is_serve_workload(const std::string& name);
void run_serve_workload(const Options& options, Result& result);
/// overlay_lifecycle: growth, churn, message-level queries and routing on
/// the deterministic sim backend.
void run_lifecycle(const Options& options, Result& result);

/// Watchdog registry: when the run overruns its hard deadline (SIGALRM) or
/// is stopped (SIGTERM, SIGINT), the handler kills and reaps the shard
/// child and unlinks its sockets.
void watch_child(pid_t pid, const std::vector<std::string>& paths);
void unwatch_child();

}  // namespace vbench
