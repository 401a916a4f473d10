// The served-query workloads.
//
// Each run forks one net::ServedShard process of 2,000 objects and drives
// it from this process through one net::ServeClient on one Unix-socket
// connection.  The client is one thread; the shard owns its
// driver thread plus one ThreadTransport actor or one SocketTransport
// poll thread.  A second actor made a 64-outstanding closed loop both
// slower and twice as noisy on a 4-core box: four busy threads on four
// cores, contending for the transport's one mutex.
//
//   serve_open         open loop, Poisson arrivals, serve::LoadConfig's
//                      default query mix: every spec unique, half of them
//                      near the hotspot that serve::run_open_loop draws
//                      from LoadConfig's default seed.  --seed draws the
//                      arrivals and the specs.  Latency is timed from
//                      each query's scheduled send.  At 200 q/s a host
//                      stall shorter than 1.28 s queues fewer queries
//                      than the shard admits (serve::ServeConfig's 256),
//                      so it delays answers without rejecting any.
//   serve_skewed       closed loop, 16 outstanding; a third of the radius
//                      queries are Zipf(1) draws from a catalogue of 64
//                      specs, so the result cache hits, and the rest are
//                      unique.  The third is an assumed mix, not one taken
//                      from traffic (benchmark/README.md says why not
//                      half).
//   serve_socket_wire  closed loop, 16 outstanding, unique uniform radius
//                      queries, with the overlay's own wire on
//                      TransportKind::kSocket.
//
// No workload saturates the shard: at a fifth to a third of its driver
// thread, latency is the wire chain plus a little queueing, and a slower
// host moves it by a few percent, not by tens.  Hypervisor steal still
// can (README.md, "Why some timings are per-layer").
//
// The shard is set up once per run: ServedShard paces its joins on the
// wall clock, so set-up time barely varies.  The shard child reports its
// memory after set-up and its transport / per-kind counter deltas after
// serve() returns through a pipe; the parent reads the child's per-thread
// CPU from /proc over the load window.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "geometry/predicates.hpp"
#include "net/serve_client.hpp"
#include "net/serve_loop.hpp"
#include "protocol/harness.hpp"
#include "serve/open_loop.hpp"
#include "workload/alias_sampler.hpp"

namespace vbench {

namespace {

using namespace voronet;

constexpr std::size_t kObjects = 2000;
constexpr unsigned kActorThreads = 1;
/// Answers still owed when the window closes must arrive within this.
constexpr double kDrainPatience = 20.0;
/// The window is cut into this many equal slices by due time, and each
/// end-to-end latency percentile is the median of its per-slice values:
/// a host stall of a few seconds moves one slice, not the run.  A slowdown
/// in most slices still moves the median.
constexpr std::size_t kSlices = 3;

enum class Loop { kOpen, kClosed };
enum class Mix { kLoadDefault, kSkewed, kUniform };

struct ServeWorkload {
  const char* name;
  protocol::TransportKind backend;
  Loop loop;
  double rate;              ///< open loop: Poisson arrivals per second
  std::size_t outstanding;  ///< closed loop: queries kept in flight
  Mix mix;
};

constexpr std::array<ServeWorkload, 3> kWorkloads{{
    {"serve_open", protocol::TransportKind::kThread, Loop::kOpen, 200.0, 0,
     Mix::kLoadDefault},
    {"serve_skewed", protocol::TransportKind::kThread, Loop::kClosed, 0.0, 16,
     Mix::kSkewed},
    {"serve_socket_wire", protocol::TransportKind::kSocket, Loop::kClosed, 0.0,
     16, Mix::kUniform},
}};

// --- Query streams -----------------------------------------------------------

struct Spec {
  bool range = false;
  Vec2 a, b;
  double tol = 0.0;
};

/// Draws the query specs of one workload from its seed.
class QueryStream {
 public:
  QueryStream(Mix mix, std::uint64_t seed) : mix_(mix), rng_(seed) {
    // The hotspot of LoadConfig's default mix: serve::run_open_loop draws
    // it first from LoadConfig::seed.
    Rng hot(load_.seed);
    hotspot_ = {hot.uniform(0.25, 0.75), hot.uniform(0.25, 0.75)};
    std::vector<double> zipf;
    for (std::size_t i = 0; i < kCatalogue; ++i) {
      catalogue_.push_back(uniform_radius());
      zipf.push_back(1.0 / static_cast<double>(i + 1));
    }
    popularity_ = std::make_unique<workload::AliasSampler>(zipf);
  }

  Spec next() {
    switch (mix_) {
      case Mix::kLoadDefault: {
        Spec s;
        const bool hot = rng_.chance(load_.hotspot_fraction);
        s.range = rng_.chance(load_.range_fraction);
        const Vec2 base =
            hot ? hotspot_ : Vec2{rng_.uniform(0.0, 1.0), rng_.uniform(0.0, 1.0)};
        s.a = {base.x + rng_.uniform(-0.02, 0.02),
               base.y + rng_.uniform(-0.02, 0.02)};
        if (s.range) {
          s.b = {s.a.x + rng_.uniform(-0.1, 0.1),
                 s.a.y + rng_.uniform(-0.1, 0.1)};
          s.tol = load_.range_tol;
        } else {
          s.b = s.a;
          s.tol = load_.radius;
        }
        return s;
      }
      case Mix::kSkewed:
        if (rng_.chance(kRepeatShare)) {
          return catalogue_[popularity_->sample(rng_)];
        }
        return uniform_radius();
      case Mix::kUniform:
        return uniform_radius();
    }
    return uniform_radius();
  }

 private:
  static constexpr std::size_t kCatalogue = 64;
  static constexpr double kRepeatShare = 1.0 / 3.0;

  Spec uniform_radius() {
    Spec s;
    s.a = s.b = {rng_.uniform(0.0, 1.0), rng_.uniform(0.0, 1.0)};
    s.tol = load_.radius;
    return s;
  }

  Mix mix_;
  Rng rng_;
  serve::LoadConfig load_;
  Vec2 hotspot_;
  std::vector<Spec> catalogue_;
  std::unique_ptr<workload::AliasSampler> popularity_;
};

// --- The shard child -----------------------------------------------------------

/// Sent once the shard is populated and listening.
struct ChildReady {
  std::uint64_t rss_before = 0;
  std::uint64_t rss_after = 0;
  std::uint64_t objects = 0;
  protocol::ProtocolHarness::MemoryBreakdown memory;
};

/// Transport and geometry counters of the shard; the child reports their
/// change from "listening" to "serve() returned".
struct Counters {
  protocol::NetworkStats net;
  std::array<std::uint64_t, sim::kMessageKindCount> messages{};
  std::array<std::uint64_t, sim::kMessageKindCount> wire_bytes{};
  geo::PredicateStats predicates;
};

Counters read_counters(protocol::ProtocolHarness& h) {
  Counters c;
  c.net = h.network().stats();
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    const auto kind = static_cast<sim::MessageKind>(k);
    c.messages[k] = h.network().metrics().messages(kind);
    c.wire_bytes[k] = h.network().metrics().wire_bytes(kind);
  }
  c.predicates = geo::predicate_stats();
  return c;
}

Counters counter_delta(const Counters& after, const Counters& before) {
  Counters d;
  d.net.sends = after.net.sends - before.net.sends;
  d.net.transmissions = after.net.transmissions - before.net.transmissions;
  d.net.duplicates = after.net.duplicates - before.net.duplicates;
  d.net.retransmits = after.net.retransmits - before.net.retransmits;
  d.net.wire_bytes = after.net.wire_bytes - before.net.wire_bytes;
  for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
    d.messages[k] = after.messages[k] - before.messages[k];
    d.wire_bytes[k] = after.wire_bytes[k] - before.wire_bytes[k];
  }
  d.predicates.orient_calls =
      after.predicates.orient_calls - before.predicates.orient_calls;
  d.predicates.orient_exact =
      after.predicates.orient_exact - before.predicates.orient_exact;
  d.predicates.incircle_calls =
      after.predicates.incircle_calls - before.predicates.incircle_calls;
  d.predicates.incircle_exact =
      after.predicates.incircle_exact - before.predicates.incircle_exact;
  return d;
}

void write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t put = ::write(fd, p, size);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) throw std::runtime_error("shard: status pipe write failed");
    p += put;
    size -= static_cast<std::size_t>(put);
  }
}

void read_all(int fd, void* data, std::size_t size, const Deadline& deadline,
              const char* what) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    if (deadline.passed()) {
      throw std::runtime_error(std::string("timed out waiting for ") + what);
    }
    pollfd pfd{fd, POLLIN, 0};
    const int timeout_ms = static_cast<int>(
        std::clamp(deadline.remaining() * 1000.0, 1.0, 100.0));
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (n <= 0) continue;
    const ssize_t got = ::read(fd, p, size);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      throw std::runtime_error(std::string("shard exited before ") + what);
    }
    p += got;
    size -= static_cast<std::size_t>(got);
  }
}

[[noreturn]] void shard_child(int fd, const net::ServedConfig& config) {
  int status = 0;
  try {
    ChildReady ready;
    ready.rss_before = rss_bytes();
    net::ServedShard shard(config);
    ready.rss_after = rss_bytes();
    ready.objects = shard.harness().node_count();
    ready.memory = shard.harness().memory_breakdown();
    const Counters before = read_counters(shard.harness());
    write_all(fd, &ready, sizeof ready);
    shard.serve();
    const Counters stats =
        counter_delta(read_counters(shard.harness()), before);
    write_all(fd, &stats, sizeof stats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "voronet_bench (shard child): %s\n", e.what());
    status = 1;
  }
  ::_exit(status);
}

/// One forked shard.  The destructor kills and reaps a child that is
/// still running and unlinks its sockets, so every exit path of a
/// workload -- including a client exception -- leaves nothing behind.
class ShardProcess {
 public:
  ShardProcess(const net::ServedConfig& config,
               std::vector<std::string> socket_paths)
      : paths_(std::move(socket_paths)) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      // Die with the parent, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      ::close(fds[0]);
      shard_child(fds[1], config);
    }
    ::close(fds[1]);
    fd_ = fds[0];
    watch_child(pid_, paths_);
  }

  ~ShardProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    unwatch_child();
    if (fd_ >= 0) ::close(fd_);
    for (const std::string& p : paths_) ::unlink(p.c_str());
  }

  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  ChildReady wait_ready(const Deadline& deadline) {
    ChildReady ready;
    read_all(fd_, &ready, sizeof ready, deadline, "the shard's ready report");
    return ready;
  }

  /// After the shutdown frame: collect the counter report and reap the
  /// child; returns false when it exited abnormally.
  bool finish(const Deadline& deadline, Counters& stats) {
    read_all(fd_, &stats, sizeof stats, deadline, "the shard's counters");
    while (!deadline.passed()) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(1000);
    }
    throw std::runtime_error("shard did not exit after shutdown");
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  std::vector<std::string> paths_;
};

/// CPU of the shard's driver thread (tid == pid) and of its other threads
/// (the transport's actors or poll thread).
struct ChildCpu {
  std::uint64_t driver_ns = 0;
  std::uint64_t wire_ns = 0;
};

ChildCpu child_cpu(pid_t pid) {
  ChildCpu c;
  for (const pid_t tid : thread_ids(pid)) {
    const std::uint64_t ns = thread_cpu_ns(pid, tid);
    (tid == pid ? c.driver_ns : c.wire_ns) += ns;
  }
  return c;
}

// --- Client-side bookkeeping ---------------------------------------------------

struct Query {
  double due = 0.0;   ///< scheduled send (open loop) or send (closed loop)
  double sent = 0.0;  ///< actual send
  double answered = -1.0;
  double server_latency = 0.0;
  bool rejected = false;
  bool cache_hit = false;
  int answers = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Outside-in codec timing: encode and decode the run's own answer frames.
void time_codec(const std::vector<net::ServeFrame>& frames, Result& result) {
  if (frames.empty()) return;
  std::vector<double> enc_ns, dec_ns;
  std::vector<std::uint8_t> buf;
  bool identical = true;
  for (int rep = 0; rep < 5; ++rep) {
    buf.clear();
    auto t0 = Clock::now();
    for (const net::ServeFrame& f : frames) net::encode_serve_frame(f, buf);
    enc_ns.push_back(seconds_since(t0) * 1e9 /
                     static_cast<double>(frames.size()));
    std::size_t off = 0;
    std::size_t i = 0;
    net::ServeFrame out;
    t0 = Clock::now();
    while (off < buf.size()) {
      std::size_t used = 0;
      if (net::decode_serve_frame(buf.data() + off, buf.size() - off, used,
                                  out) != net::DecodeStatus::kOk) {
        identical = false;
        break;
      }
      identical = identical && i < frames.size() && out.id == frames[i].id &&
                  out.matches == frames[i].matches;
      off += used;
      ++i;
    }
    dec_ns.push_back(seconds_since(t0) * 1e9 /
                     static_cast<double>(frames.size()));
    identical = identical && i == frames.size();
  }
  result.check(identical, "serve-wire codec round trip of the answer frames");
  result.set("net.serve_encode_ns", median(enc_ns), "ns");
  result.set("net.serve_decode_ns", median(dec_ns), "ns");
}

const ServeWorkload* find_workload(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

void run_serve_workload(const Options& options, Result& result) {
  const ServeWorkload* spec = find_workload(options.workload);
  if (spec == nullptr) throw std::runtime_error("unknown serve workload");
  const ServeWorkload& w = *spec;
  const double window = options.seconds;
  // Set-up, window, drain and report all fit inside the run's budget.
  const Deadline deadline(std::min(150.0, 60.0 + 2.0 * window));

  result.fact("shard_processes", 1);
  result.fact("shard_objects", kObjects);
  result.fact("transport_threads",
              w.backend == protocol::TransportKind::kThread ? kActorThreads : 1);
  result.fact("client_threads", 1);
  result.fact("client_connections", 1);
  if (w.loop == Loop::kOpen) {
    result.fact("offered_rate_qps", w.rate);
  } else {
    result.fact("outstanding", static_cast<double>(w.outstanding));
  }

  ::mkdir("build-bench", 0755);
  ::mkdir("build-bench/sock", 0755);
  const std::string sock_prefix =
      "build-bench/sock/" + std::to_string(::getpid()) + "-";

  // --- Set-up -----------------------------------------------------------------
  net::ServedConfig config;
  const std::string listen = sock_prefix + "serve.sock";
  const std::string wire = sock_prefix + "wire.sock";
  config.listen = "uds:" + listen;
  // The shard's objects are the same for every seed (ServedConfig's own
  // seed): --seed draws the traffic, so runs compare one data set under
  // different traffic.
  config.objects = kObjects;
  config.backend = w.backend;
  config.shards = kActorThreads;
  if (w.backend == protocol::TransportKind::kSocket) {
    config.transport_listen = "uds:" + wire;
  }
  const auto t0 = Clock::now();
  auto shard = std::make_unique<ShardProcess>(
      config, std::vector<std::string>{listen, wire});
  const ChildReady ready = shard->wait_ready(deadline);
  auto client =
      std::make_unique<net::ServeClient>(config.listen, deadline.remaining());
  result.set("setup_s", seconds_since(t0), "s");
  result.check(client->objects() == kObjects && ready.objects == kObjects,
               "shard populated to " + std::to_string(kObjects) + " objects");
  const double objects = static_cast<double>(kObjects);
  const double rss_per_node =
      static_cast<double>(ready.rss_after - ready.rss_before) / objects;
  result.set("rss_bytes_per_node", rss_per_node, "B");
  result.set("protocol.view_bytes_per_node",
             static_cast<double>(ready.memory.view_bytes) / objects, "B");
  result.set("protocol.slot_bytes_per_node",
             static_cast<double>(ready.memory.slot_bytes) / objects, "B");
  result.set("transport.bytes_per_node",
             static_cast<double>(ready.memory.transport_bytes) / objects, "B");
  result.set("voronet.overlay_bytes_per_node",
             rss_per_node - static_cast<double>(ready.memory.total()) / objects,
             "B");

  // --- Load -------------------------------------------------------------------
  const net::ServeFrame base = client->get_report(deadline.remaining());
  QueryStream stream(w.mix, options.seed ^ 0xf00dULL);
  std::vector<Query> queries;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::vector<net::ServeFrame> frames;  // traced: codec re-timing input
  std::uint64_t unknown_answers = 0;
  std::vector<double> submit_us;  // traced: per-call submit timing
  const auto start = Clock::now();
  client->set_answer_handler([&](const net::ServeFrame& f) {
    const auto it = by_id.find(f.id);
    if (it == by_id.end()) {
      ++unknown_answers;
      return;
    }
    Query& q = queries[it->second];
    if (++q.answers > 1) return;
    q.answered = seconds_since(start);
    q.server_latency = f.server_latency;
    q.rejected = f.rejected;
    q.cache_hit = f.cache_hit;
    if (options.trace) frames.push_back(f);
  });
  const auto submit = [&](double due) {
    const Spec s = stream.next();
    const double sent = seconds_since(start);
    const auto c0 = options.trace ? Clock::now() : Clock::time_point{};
    const std::uint64_t id = s.range ? client->submit_range(s.a, s.b, s.tol)
                                     : client->submit_radius(s.a, s.tol);
    if (options.trace) submit_us.push_back(seconds_since(c0) * 1e6);
    by_id.emplace(id, queries.size());
    queries.push_back(Query{due, sent});
  };

  const ChildCpu cpu0 = child_cpu(shard->pid());
  const std::uint64_t client_cpu0 = self_cpu_ns();
  if (w.loop == Loop::kOpen) {
    // Arrival instants are drawn up front and never wait for answers.
    Rng arrivals(options.seed ^ 0xa77ULL);
    for (double t = arrivals.exponential(w.rate); t < window;
         t += arrivals.exponential(w.rate)) {
      for (double wait = t - seconds_since(start); wait > 0.0;
           wait = t - seconds_since(start)) {
        client->poll_answers(std::min(wait, 0.05));
      }
      submit(t);
    }
    for (double rest = window - seconds_since(start); rest > 0.0;
         rest = window - seconds_since(start)) {
      client->poll_answers(std::min(rest, 0.05));
    }
  } else {
    while (seconds_since(start) < window) {
      while (client->outstanding() < w.outstanding) {
        submit(seconds_since(start));
      }
      client->poll_answers(std::min(0.005, window - seconds_since(start)));
    }
  }
  const double window_wall = seconds_since(start);
  const ChildCpu cpu1 = child_cpu(shard->pid());
  const std::uint64_t client_cpu1 = self_cpu_ns();

  const Deadline drain(std::min(kDrainPatience, deadline.remaining()));
  while (client->outstanding() > 0 && !drain.passed()) {
    client->poll_answers(0.05);
  }
  const bool drained = client->outstanding() == 0;
  result.check(drained, "every query answered within the drain patience");
  client->set_answer_handler(nullptr);
  // A shard that could not drain is not asked for its report: it is killed
  // and reaped, and the run reports the client-side metrics it has.
  net::ServeFrame fin;
  Counters stats;
  if (drained) {
    fin = client->get_report(deadline.remaining());
    client->shutdown_server();
    result.check(shard->finish(deadline, stats), "load shard exit");
  }
  client.reset();
  shard.reset();

  // --- Client-side gates and metrics -----------------------------------------
  std::uint64_t answered = 0, rejected = 0, missing = 0, duplicated = 0;
  std::uint64_t in_window = 0, cache_hits = 0;
  std::array<std::vector<double>, kSlices> latency_ms;
  std::vector<double> server_ms, boundary_ms, lag_ms;
  for (const Query& q : queries) {
    if (q.answers == 0) {
      ++missing;
      continue;
    }
    if (q.answers > 1) ++duplicated;
    ++answered;
    if (q.answered < window) ++in_window;
    if (q.rejected) {
      ++rejected;
      continue;
    }
    if (q.cache_hit) ++cache_hits;
    const auto slice = std::min(
        kSlices - 1, static_cast<std::size_t>(q.due / window * kSlices));
    latency_ms[slice].push_back((q.answered - q.due) * 1e3);
    server_ms.push_back(q.server_latency * 1e3);
    boundary_ms.push_back((q.answered - q.sent - q.server_latency) * 1e3);
    lag_ms.push_back((q.sent - q.due) * 1e3);
  }
  result.attempted = queries.size();
  result.failed = missing + duplicated + rejected + unknown_answers;
  result.check(duplicated == 0 && unknown_answers == 0,
               "exactly one answer per submitted id");
  result.check(rejected == 0, "no query rejected at admission");

  const double n_ans = static_cast<double>(answered);
  std::vector<double> p50s, p99s;
  std::size_t samples = 0;
  std::size_t beyond = server_ms.size();  // fewest beyond p99 in a slice
  for (std::vector<double>& s : latency_ms) {
    samples += s.size();
    beyond = std::min(beyond, samples_beyond(s.size(), 0.99));
    p50s.push_back(percentile(s, 0.50));
    p99s.push_back(percentile(s, 0.99));
  }
  result.set("latency_p50_ms", median(p50s), "ms");
  result.set("latency_p99_ms", median(p99s), "ms");
  result.fact("latency_samples", static_cast<double>(samples));
  result.fact("latency_slices", kSlices);
  result.fact("samples_beyond_p99", static_cast<double>(beyond));
  result.set("throughput_ops_per_s", static_cast<double>(in_window) / window,
             "1/s");
  result.set("net.boundary_p50_ms", percentile(boundary_ms, 0.50), "ms");
  result.set("net.gen_lag_p99_ms", percentile(lag_ms, 0.99), "ms");
  result.set("net.client_cpu_util",
             static_cast<double>(client_cpu1 - client_cpu0) * 1e-9 /
                 window_wall,
             "fraction");
  result.set("serve.server_p50_ms", percentile(server_ms, 0.50), "ms");
  result.set("serve.server_p99_ms", percentile(server_ms, 0.99), "ms");
  result.set("serve.cache_hit_ratio",
             ratio(static_cast<double>(cache_hits), n_ans), "fraction");
  result.set("serve.reject_ratio",
             ratio(static_cast<double>(rejected),
                   static_cast<double>(queries.size())),
             "fraction");
  const double ops_in_window = std::max(1.0, static_cast<double>(in_window));
  result.set("protocol.driver_cpu_us_per_op",
             static_cast<double>(cpu1.driver_ns - cpu0.driver_ns) * 1e-3 /
                 ops_in_window,
             "us");
  result.set("protocol.driver_util",
             static_cast<double>(cpu1.driver_ns - cpu0.driver_ns) * 1e-9 /
                 window_wall,
             "fraction");
  result.set("transport.wire_cpu_us_per_op",
             static_cast<double>(cpu1.wire_ns - cpu0.wire_ns) * 1e-3 /
                 ops_in_window,
             "us");
  if (options.trace) {
    result.set("net.submit_us", median(submit_us), "us");
    time_codec(frames, result);
  }
  if (!drained) return;

  // --- Shard-side gates and metrics ------------------------------------------
  result.check(fin.drained, "shard drained at the final report");
  result.check(fin.recall == 1.0 && fin.precision == 1.0,
               "graded recall == precision == 1");
  const std::uint64_t accepted = answered - rejected;
  result.check(fin.graded - base.graded == accepted,
               "graded == answered (" + std::to_string(fin.graded - base.graded) +
                   " vs " + std::to_string(accepted) + ")");
  result.check(fin.completed - base.completed == answered,
               "shard completions == answers");
  result.set("wire_bytes_per_op",
             ratio(static_cast<double>(fin.wire_bytes - base.wire_bytes),
                   n_ans),
             "B");
  result.set("serve.mean_batch",
             ratio(static_cast<double>(fin.batch_members - base.batch_members),
                   static_cast<double>(fin.batches - base.batches)),
             "count");
  const auto kind = [](sim::MessageKind k) { return static_cast<std::size_t>(k); };
  const std::uint64_t query_msgs =
      stats.messages[kind(sim::MessageKind::kQuery)] +
      stats.messages[kind(sim::MessageKind::kQueryForward)] +
      stats.messages[kind(sim::MessageKind::kQueryResult)] +
      stats.messages[kind(sim::MessageKind::kQueryAbort)];
  result.set("protocol.msgs_per_op",
             ratio(static_cast<double>(stats.net.sends), n_ans), "count");
  result.set("protocol.query_msgs_per_flood",
             ratio(static_cast<double>(query_msgs),
                   static_cast<double>(fin.batches - base.batches)),
             "count");
  result.set("transport.msgs_per_op",
             ratio(static_cast<double>(stats.net.transmissions), n_ans),
             "count");
  result.set("transport.ack_byte_share",
             ratio(static_cast<double>(
                       stats.wire_bytes[kind(sim::MessageKind::kAck)]),
                   static_cast<double>(stats.net.wire_bytes)),
             "fraction");
  result.set("transport.retransmits_per_op",
             ratio(static_cast<double>(stats.net.retransmits), n_ans),
             "count");
  result.set("transport.duplicates_per_op",
             ratio(static_cast<double>(stats.net.duplicates), n_ans), "count");
  const auto& pred = stats.predicates;
  result.set("geometry.exact_fallback_rate",
             ratio(static_cast<double>(pred.orient_exact + pred.incircle_exact),
                   static_cast<double>(pred.orient_calls + pred.incircle_calls)),
             "fraction");
}

}  // namespace vbench
