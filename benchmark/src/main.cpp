// voronet_bench: one run of one benchmark workload.
//
//   voronet_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//                 [--spec BENCHMARK.json] [--out DIR] [--untraced FILE]
//
// Prints one `workload metric value unit` line per metric, writes the
// whole run (provenance, facts, every metric, every check) to
// DIR/<workload>-seed<N>-trace<T>.json, and ends its standard output with
// one JSON line: {"correct", "attempted", "failed", "metrics"}.  The
// metrics of that line are the spec's end_to_end list with --trace 0 and
// its per_layer list with --trace 1.  The spec (BENCHMARK.json) is the
// one catalogue of metric names and units; a metric the workload does not
// produce, or produces under another unit, fails the run.
//
// --seconds defaults to the spec's run_seconds.
//
// Exit status: 0 when every correctness gate passed, 1 when one failed or
// the run was stopped, 2 on bad usage or a refused build (Debug or
// sanitizers).  Each workload checks its own deadline and, on a miss,
// reports the metrics it has.  A SIGALRM backstop ends a run that still
// overruns well inside 180 s -- and SIGTERM or SIGINT end any run -- after
// killing and reaping the shard child and unlinking its sockets; that
// result line has no metrics.
#include <sched.h>
#include <signal.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"

#ifndef VORONET_BENCH_BUILD_TYPE
#define VORONET_BENCH_BUILD_TYPE "unknown"
#endif

// Present only when UBSan's runtime is linked in.
extern "C" __attribute__((weak)) void __ubsan_handle_add_overflow();

namespace vbench {

namespace {

using voronet::Json;

/// Hard wall-clock cap of one run, inside the 180 s a run may take.
constexpr unsigned kHardDeadlineS = 170;

// --- Watchdog ----------------------------------------------------------------

volatile sig_atomic_t g_child = 0;
char g_paths[2][256] = {};

/// SIGALRM (the hard deadline), SIGTERM and SIGINT.
void on_fatal_signal(int) {
  const pid_t child = g_child;
  if (child > 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  for (const char* p : g_paths) {
    if (p[0] != '\0') ::unlink(p);
  }
  static const char kMsg[] =
      "voronet_bench: stopped by the hard deadline or a signal\n";
  static const char kLine[] =
      "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
      "{}}\n";
  (void)!::write(2, kMsg, sizeof kMsg - 1);
  (void)!::write(1, kLine, sizeof kLine - 1);
  ::_exit(1);
}

// --- Build refusal -----------------------------------------------------------

const char* refused_build() {
#if !defined(__OPTIMIZE__)
  return "an unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#else
  if (&__ubsan_handle_add_overflow != nullptr) return "a sanitizer build";
  if (std::strcmp(VORONET_BENCH_BUILD_TYPE, "Debug") == 0) {
    return "a Debug build";
  }
  return nullptr;
#endif
}

// --- Spec --------------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Spec {
  int run_seconds = 0;
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

Spec load_spec(const std::string& path) {
  const Json doc = voronet::read_json_file(path);
  Spec spec;
  spec.run_seconds = static_cast<int>(doc.at("run_seconds").as_int());
  const Json& w = doc.at("workloads");
  for (std::size_t i = 0; i < w.size(); ++i) {
    spec.workloads.push_back(w.item(i).at("name").as_string());
  }
  for (const auto& [key, list] :
       {std::pair{"end_to_end", &spec.end_to_end},
        std::pair{"per_layer", &spec.per_layer}}) {
    const Json& m = doc.at(key);
    for (std::size_t i = 0; i < m.size(); ++i) {
      list->push_back(MetricSpec{m.item(i).at("name").as_string(),
                                 m.item(i).at("unit").as_string()});
    }
  }
  return spec;
}

// --- Provenance --------------------------------------------------------------

std::string env_or(const char* key, const char* fallback) {
  const char* v = std::getenv(key);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Json provenance(const Options& o) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  utsname u{};
  ::uname(&u);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("g++ ") + __VERSION__;
#endif
  Json p = Json::object();
  p.set("git_sha", Json::string(env_or("VORONET_BENCH_GIT_SHA", "unknown")))
      .set("git_dirty",
           Json::string(env_or("VORONET_BENCH_GIT_DIRTY", "unknown")))
      .set("nproc", Json::integer(host_cpus()))
      .set("affinity_cpus", Json::integer(static_cast<unsigned>(affinity)))
      .set("cpu_model", Json::string(cpu_model()))
      .set("kernel", Json::string(std::string(u.sysname) + " " + u.release))
      .set("compiler", Json::string(compiler))
      .set("build_type", Json::string(VORONET_BENCH_BUILD_TYPE))
      .set("workload", Json::string(o.workload))
      .set("seed", Json::integer(o.seed))
      .set("seconds", Json::integer(static_cast<unsigned>(o.seconds)))
      .set("trace", Json::boolean(o.trace));
  return p;
}

// --- Output ------------------------------------------------------------------

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Overhead of this traced run against the untraced run's result file.
void print_overhead(const std::string& path, const Options& o,
                    const Spec& spec, const Result& result) {
  const Json doc = voronet::read_json_file(path);
  const Json& base = doc.at("end_to_end");
  for (const MetricSpec& m : spec.end_to_end) {
    const Result::Metric* traced = result.find(m.name);
    const Json* untraced = base.find(m.name);
    if (traced == nullptr || untraced == nullptr) continue;
    const double u = untraced->as_double();
    std::printf("%s overhead %s untraced=%.6g traced=%.6g (%+.2f%%)\n",
                o.workload.c_str(), m.name.c_str(), u, traced->value,
                u != 0.0 ? (traced->value / u - 1.0) * 100.0 : 0.0);
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "voronet_bench: %s\nusage: voronet_bench --workload W [--seed "
               "N] [--seconds S] [--trace 0|1] [--spec FILE] [--out DIR] "
               "[--untraced FILE]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  std::string spec_path = "BENCHMARK.json";
  std::string out_dir = "build-bench/results";
  std::string untraced;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--spec") {
        spec_path = value;
      } else if (flag == "--out") {
        out_dir = value;
      } else if (flag == "--untraced") {
        untraced = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (const char* why = refused_build()) {
    std::fprintf(stderr, "voronet_bench: refusing to measure %s\n", why);
    return 2;
  }
  const Spec spec = load_spec(spec_path);
  if (o.seconds == 0) o.seconds = spec.run_seconds;
  if (o.seconds < 1 || o.seconds > 60) return usage("--seconds must be 1..60");
  const bool listed = std::find(spec.workloads.begin(), spec.workloads.end(),
                                o.workload) != spec.workloads.end();
  if (!listed || !(is_serve_workload(o.workload) ||
                   o.workload == "overlay_lifecycle")) {
    return usage(("unknown workload '" + o.workload + "'").c_str());
  }

  for (const int sig : {SIGALRM, SIGTERM, SIGINT}) {
    ::signal(sig, on_fatal_signal);
  }
  ::alarm(kHardDeadlineS);
  Result result;
  const auto t0 = Clock::now();
  const HostTicks ticks0 = host_ticks();
  try {
    if (o.workload == "overlay_lifecycle") {
      run_lifecycle(o, result);
    } else {
      run_serve_workload(o, result);
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("workload aborted: ") + e.what());
    if (result.attempted == 0) result.attempted = 1;
    result.failed = std::max<std::uint64_t>(result.failed, 1);
  }
  const double wall = seconds_since(t0);
  // A validity check: wall timings of a run that lost more than a few
  // percent of the host's processors to other guests read slow.
  const HostTicks ticks1 = host_ticks();
  if (ticks1.total > ticks0.total) {
    result.fact("host_steal_share",
                static_cast<double>(ticks1.steal - ticks0.steal) /
                    static_cast<double>(ticks1.total - ticks0.total));
  }
  ::alarm(0);

  // Every produced metric must be in the catalogue, under its unit.
  const auto spec_of = [&](const std::string& name) -> const MetricSpec* {
    for (const auto* list : {&spec.end_to_end, &spec.per_layer}) {
      for (const MetricSpec& m : *list) {
        if (m.name == name) return &m;
      }
    }
    return nullptr;
  };
  for (const Result::Metric& m : result.metrics()) {
    const MetricSpec* s = spec_of(m.name);
    result.check(s != nullptr, "metric " + m.name + " is in " + spec_path);
    result.check(s == nullptr || s->unit == m.unit,
                 "metric " + m.name + " has unit " + m.unit);
  }
  const bool completed = result.correct();
  for (const MetricSpec& m : spec.end_to_end) {
    const Result::Metric* got = result.find(m.name);
    if (completed) {
      result.check(got != nullptr && got->value != 0.0,
                   "end-to-end metric " + m.name + " measured");
    }
  }

  // --- Human-readable lines -----------------------------------------------
  const char* tag = o.trace ? " (traced)" : "";
  for (const MetricSpec& m : spec.end_to_end) {
    if (const Result::Metric* got = result.find(m.name)) {
      std::printf("%s %s %s %s%s\n", o.workload.c_str(), m.name.c_str(),
                  number(got->value).c_str(), m.unit.c_str(), tag);
    }
  }
  // Per-layer metrics this workload does not exercise, or that only a
  // traced run measures, print as n/a (and as 0 in a traced result line).
  for (const MetricSpec& m : spec.per_layer) {
    const Result::Metric* got = result.find(m.name);
    std::printf("%s %s %s %s\n", o.workload.c_str(), m.name.c_str(),
                got != nullptr ? number(got->value).c_str() : "n/a",
                m.unit.c_str());
  }
  for (const auto& [key, value] : result.facts()) {
    std::printf("%s fact %s %s\n", o.workload.c_str(), key.c_str(),
                number(value).c_str());
  }
  std::printf("%s wall %.3f s, %zu checks, %zu failed\n", o.workload.c_str(),
              wall, result.checks(), result.failures().size());
  for (const std::string& f : result.failures()) {
    std::printf("%s FAILED CHECK: %s\n", o.workload.c_str(), f.c_str());
  }
  if (o.trace && !untraced.empty()) {
    print_overhead(untraced, o, spec, result);
  }

  // --- Result file ----------------------------------------------------------
  const auto section = [&](const std::vector<MetricSpec>& list,
                           bool zero_fill) {
    Json j = Json::object();
    for (const MetricSpec& m : list) {
      if (const Result::Metric* got = result.find(m.name)) {
        j.set(m.name, Json::number(got->value));
      } else if (zero_fill) {
        j.set(m.name, Json::number(0.0));
      }
    }
    return j;
  };
  Json doc = Json::object();
  Json facts = Json::object();
  for (const auto& [key, value] : result.facts()) {
    facts.set(key, Json::number(value));
  }
  Json failures = Json::array();
  for (const std::string& f : result.failures()) {
    failures.push(Json::string(f));
  }
  doc.set("provenance", provenance(o))
      .set("wall_s", Json::number(wall))
      .set("facts", std::move(facts))
      .set("correct", Json::boolean(result.correct()))
      .set("attempted", Json::integer(result.attempted))
      .set("failed", Json::integer(result.failed))
      .set("checks", Json::integer(result.checks()))
      .set("failed_checks", std::move(failures))
      .set("end_to_end", section(spec.end_to_end, false))
      .set("per_layer", section(spec.per_layer, o.trace));
  std::filesystem::create_directories(out_dir);
  const std::string file = out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  voronet::write_json_file(file, doc);
  std::printf("%s wrote %s\n", o.workload.c_str(), file.c_str());

  // --- The result line --------------------------------------------------------
  std::string line = std::string("{\"correct\": ") +
                     (result.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : o.trace ? spec.per_layer : spec.end_to_end) {
    const Result::Metric* got = result.find(m.name);
    if (got == nullptr && !o.trace) continue;
    line += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number(got != nullptr ? got->value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace

void watch_child(pid_t pid, const std::vector<std::string>& paths) {
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string p = i < paths.size() ? paths[i] : std::string();
    std::snprintf(g_paths[i], sizeof g_paths[i], "%s", p.c_str());
  }
  g_child = pid;
}

void unwatch_child() { g_child = 0; }

}  // namespace vbench

int main(int argc, char** argv) {
  try {
    return vbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "voronet_bench: %s\n", e.what());
    return 2;
  }
}
