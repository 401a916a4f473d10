#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench.hpp"

namespace vbench {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    failures_.push_back("metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

const Result::Metric* Result::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(rank, n);
}

namespace {

std::string proc_dir(pid_t pid) {
  return pid == 0 ? std::string("/proc/self")
                  : "/proc/" + std::to_string(pid);
}

}  // namespace

std::uint64_t rss_bytes(pid_t pid) {
  std::ifstream in(proc_dir(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      std::uint64_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

std::uint64_t thread_cpu_ns(pid_t pid, pid_t tid) {
  std::ifstream in(proc_dir(pid) + "/task/" + std::to_string(tid) +
                   "/schedstat");
  std::uint64_t ns = 0;
  in >> ns;
  return ns;
}

std::vector<pid_t> thread_ids(pid_t pid) {
  std::vector<pid_t> tids;
  const std::string dir = proc_dir(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return tids;
  while (const dirent* e = ::readdir(d)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) tids.push_back(tid);
  }
  ::closedir(d);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::uint64_t self_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

unsigned host_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

}  // namespace vbench
