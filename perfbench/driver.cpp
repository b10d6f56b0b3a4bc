// svcbench: one run of one workload of the service benchmark (README.md).
//
//   svcbench --workload W --seed N --seconds S --trace 0|1 --run-dir D
//   svcbench --workload kv-durable-net --prepare --run-dir D
//
// Workloads (closed loop: each caller keeps kWindow scripts in flight and
// waits for their replies; the load comes from this one process):
//   kv-read-large   in-process, 2 client threads, 2 workers, one 4096-key
//                   OtbListMap, 90% get / 7.5% put / 2.5% erase, no WAL;
//   jobs-contended  in-process, 2 client threads, 2 workers, the
//                   JobScheduler scenario over 4096 seeded jobs;
//   kv-durable-net  the epoll front end over loopback: one forked client
//                   process, 4 connections, 1 net thread, 2 workers, group
//                   fsync WAL; 256-key map, 50% get / 37.5% put /
//                   12.5% erase.  --prepare writes the log the measured run
//                   recovers during its set-up.
//
// The run prints one JSON line: {"correct", "attempted", "failed",
// "metrics"}, with the end-to-end metrics when --trace 0 and the per-layer
// metrics when --trace 1.  The registry dump goes to <run-dir>/metrics.json
// for metrics_check --validate.  Any failure prints
// "svcbench: workload=W phase=P: reason" to stderr and exits 1.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "metrics/json.h"
#include "metrics/registry.h"
#include "otb/otb_list_map.h"
#include "otb/runtime.h"
#include "service/net.h"
#include "service/scenarios.h"
#include "service/service.h"
#include "service/wal.h"

namespace {

using otb::now_ns;
using otb::metrics::CounterId;
using otb::metrics::Phase;
using otb::metrics::SinkSnapshot;
using otb::service::Request;
using otb::service::ResponseFuture;
using otb::service::Service;
using otb::service::ServiceConfig;
using otb::service::SvcStatus;
using otb::service::Verb;
using perfbench::CheckLog;
using perfbench::Walk;

// ---- fixed workload shape (README.md "Workloads") ---------------------------

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;   // in-process client threads
constexpr unsigned kConns = 4;     // kv-durable-net connections
constexpr unsigned kWindow = 16;   // scripts in flight per client / connection
constexpr std::int64_t kReadLargeKeys = 4096;
constexpr std::int64_t kJobs = 4096;
constexpr std::size_t kHeldJobs = 4;  // a client releases once it holds this many
constexpr std::int64_t kNetKeys = 256;
constexpr std::uint64_t kPreparedRecords = 200000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  bool prepare = false;
  std::string run_dir;
};

const char* g_workload = "?";

[[noreturn]] void die(const char* phase, const std::string& reason) {
  std::fprintf(stderr, "svcbench: workload=%s phase=%s: %s\n", g_workload, phase,
               reason.c_str());
  std::exit(1);
}

std::uint64_t warmup_ns(unsigned seconds) {
  return std::min<std::uint64_t>(1'000'000'000ull, seconds * 250'000'000ull);
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- latency histogram -------------------------------------------------------

/// Log-linear histogram: exact below 256 ns, then 128 sub-buckets per power
/// of two (< 0.8% relative width).  Quantiles interpolate by rank inside the
/// bucket.  Trivially copyable, so the forked client ships it as bytes.
struct LatHist {
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxShift = 33;  // values up to ~2^41 ns
  static constexpr std::size_t kBuckets = (kMaxShift + 1) * kSub;

  std::array<std::uint64_t, kBuckets> buckets{};

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned s = static_cast<unsigned>(std::bit_width(v)) - kSubBits - 1;
    if (s >= kMaxShift) return kBuckets - 1;
    return (s + 1) * kSub + static_cast<std::size_t>((v >> s) - kSub);
  }

  void add(std::uint64_t v) { buckets[index(v)] += 1; }

  void merge(const LatHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const std::uint64_t b : buckets) n += b;
    return n;
  }

  /// q-quantile in nanoseconds (0 when empty).
  double quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    const double target = q * double(n);
    double cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = buckets[i];
      if (c == 0) continue;
      if (cum + double(c) > target || cum + double(c) >= double(n)) {
        const std::size_t g = i / kSub;
        double lo = double(i);
        double width = 1;
        if (g != 0) {
          const unsigned s = static_cast<unsigned>(g) - 1;
          lo = double((kSub + i % kSub) << s);
          width = double(std::uint64_t{1} << s);
        }
        return lo + (target - cum) / double(c) * width;
      }
      cum += double(c);
    }
    return 0;
  }
};

/// The measurement window cut into one-second slices: replies acknowledged
/// Ok, and their client-observed latencies, per slice.  The end-to-end
/// figures are medians over slices, so a stall of the shared host moves one
/// slice rather than the figure.
struct Slices {
  std::vector<std::uint64_t> ok;
  std::vector<LatHist> latency;

  explicit Slices(unsigned n) : ok(n), latency(n) {}

  /// Count a reply seen at `seen` (ns) whose request went out at `t0`.
  void add(std::uint64_t t_meas, std::uint64_t seen, std::uint64_t t0) {
    if (seen < t_meas) return;
    const std::uint64_t i = (seen - t_meas) / 1'000'000'000ull;
    if (i >= ok.size()) return;
    ok[i] += 1;
    latency[i].add(seen - t0);
  }

  void merge(const Slices& o) {
    for (std::size_t i = 0; i < ok.size() && i < o.ok.size(); ++i) {
      ok[i] += o.ok[i];
      latency[i].merge(o.latency[i]);
    }
  }

  static double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }
  double median_ok() const { return median({ok.begin(), ok.end()}); }
  /// Median over slices of each slice's q-quantile latency, in ns.
  double median_quantile(double q) const {
    std::vector<double> v;
    for (const LatHist& h : latency) v.push_back(h.quantile(q));
    return median(std::move(v));
  }
};

/// LatHist shared by several recording threads (relaxed atomic buckets).
class SharedLatHist {
 public:
  SharedLatHist() : buckets_(new std::atomic<std::uint64_t>[LatHist::kBuckets]) {
    for (std::size_t i = 0; i < LatHist::kBuckets; ++i) buckets_[i].store(0);
  }
  void add(std::uint64_t v) {
    buckets_[LatHist::index(v)].fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_ptr<LatHist> read() const {
    auto h = std::make_unique<LatHist>();
    for (std::size_t i = 0; i < LatHist::kBuckets; ++i) {
      h->buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return h;
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
};

/// q-quantile of a registry log2 histogram (bucket b >= 1 holds
/// [2^(b-1), 2^b)), interpolated by rank inside the bucket.
double log2_quantile(const std::array<std::uint64_t, otb::metrics::Histogram::kBuckets>& b,
                     double q) {
  std::uint64_t n = 0;
  for (const std::uint64_t c : b) n += c;
  if (n == 0) return 0;
  const double target = q * double(n);
  double cum = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] == 0) continue;
    if (cum + double(b[i]) > target || cum + double(b[i]) >= double(n)) {
      if (i == 0) return 0;
      const double lo = double(std::uint64_t{1} << (i - 1));
      return lo + (target - cum) / double(b[i]) * lo;
    }
    cum += double(b[i]);
  }
  return 0;
}

// ---- traced entry into the service layer ----------------------------------------

/// The benchmark's door into Service: forwards submit()/stop() (which is all
/// BasicNetServer needs of its service), and in a traced run times each
/// submit() call and each queued script from submit to completion through a
/// chained completion hook.  With tracing off it only forwards.
class TracedService {
 public:
  TracedService(Service& svc, bool trace) : svc_(svc), trace_(trace) {}
  TracedService(const TracedService&) = delete;
  TracedService& operator=(const TracedService&) = delete;

  ResponseFuture submit(Request req) {
    if (!trace_) return svc_.submit(std::move(req));
    const bool inline_read = read_only(req);
    const std::uint64_t t0 = now_ns();
    if (!inline_read) {
      auto* h = new Hook{req.on_complete, req.on_complete_arg, this, t0};
      req.on_complete = &Hook::fire;
      req.on_complete_arg = h;
    }
    ResponseFuture fut = svc_.submit(std::move(req));
    (inline_read ? inline_read_ : submit_).add(now_ns() - t0);
    return fut;
  }

  void stop() { svc_.stop(); }

  const SharedLatHist& inline_read() const { return inline_read_; }
  const SharedLatHist& submit_time() const { return submit_; }
  const SharedLatHist& queued() const { return queued_; }

 private:
  struct Hook {
    void (*orig)(void*);
    void* orig_arg;
    TracedService* owner;
    std::uint64_t t0;

    static void fire(void* arg) {
      auto* h = static_cast<Hook*>(arg);
      h->owner->queued_.add(now_ns() - h->t0);
      void (*orig)(void*) = h->orig;
      void* orig_arg = h->orig_arg;
      delete h;
      if (orig != nullptr) orig(orig_arg);
    }
  };

  /// Scripts Service::submit serves inline on the snapshot route (read
  /// verbs only, multi-versioning on); every target here supports it.
  static bool read_only(const Request& req) {
    if (otb::tx::mv_versions() == 0) return false;
    for (const otb::service::Step& s : req.steps) {
      if (s.verb != Verb::kGet && s.verb != Verb::kContains &&
          s.verb != Verb::kRange && s.verb != Verb::kMin) {
        return false;
      }
    }
    return true;
  }

  Service& svc_;
  const bool trace_;
  SharedLatHist inline_read_;
  SharedLatHist submit_;
  SharedLatHist queued_;
};

// ---- results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  CheckLog checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// What a workload measured, before it becomes end-to-end or per-layer
/// metrics.
struct Measured {
  std::uint64_t start_ns = 0;        // process start (main entry)
  std::uint64_t first_request_ns = 0;
  double peak_rss_mib = 0;
  std::unique_ptr<Slices> slices;
  std::unique_ptr<LatHist> future_wait = std::make_unique<LatHist>();
  std::unique_ptr<LatHist> sock_send = std::make_unique<LatHist>();
  std::unique_ptr<LatHist> sock_recv = std::make_unique<LatHist>();
  // TracedService's histograms, copied out once the service has stopped.
  std::unique_ptr<LatHist> inline_read, submit, queued;
  double replay_s = 0;
  std::uint64_t records_replayed = 0;
  otb::metrics::Snapshot registry;
};

void dump_registry(const Options& opt, const otb::metrics::Snapshot& snap) {
  const std::string path = opt.run_dir + "/metrics.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) die("check", "cannot write " + path);
  const std::string body = otb::metrics::to_json(snap);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0) die("check", "cannot write " + path);
}

SinkSnapshot domain(const otb::metrics::Snapshot& snap, const char* name) {
  const SinkSnapshot* s = snap.find(name);
  return s != nullptr ? *s : SinkSnapshot{};
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

void end_to_end(const Measured& m, Outcome& out) {
  out.metrics.push_back({"ok_per_s", m.slices->median_ok(), "1/s"});
  out.metrics.push_back({"p50_us", m.slices->median_quantile(0.50) / 1e3, "us"});
  out.metrics.push_back({"p99_us", m.slices->median_quantile(0.99) / 1e3, "us"});
  out.metrics.push_back(
      {"setup_s", double(m.first_request_ns - m.start_ns) / 1e9, "s"});
  out.metrics.push_back({"peak_rss_mib", m.peak_rss_mib, "MiB"});
}

void keep_traces(const TracedService& traced, Measured& m) {
  m.inline_read = traced.inline_read().read();
  m.submit = traced.submit_time().read();
  m.queued = traced.queued().read();
}

void per_layer(const Measured& m, Outcome& out) {
  const SinkSnapshot svc = domain(m.registry, "otb.service");
  const SinkSnapshot tx = domain(m.registry, "otb.tx");
  const SinkSnapshot net = domain(m.registry, "otb.service.net");
  const auto both = [&](CounterId id) {
    return double(svc.counter(id) + tx.counter(id));
  };
  const auto us = [](const LatHist& h, double q) { return h.quantile(q) / 1e3; };
  const auto add = [&](const char* name, double v, const char* unit) {
    out.metrics.push_back({name, v, unit});
  };

  // The traced run's own throughput: set against the untraced ok_per_s it
  // gives the tracing overhead.
  add("trace.ok_per_s", m.slices->median_ok(), "1/s");
  add("service.inline_read_us_p50", us(*m.inline_read, 0.5), "us");
  add("service.submit_us_p50", us(*m.submit, 0.5), "us");
  add("service.queued_us_p50", us(*m.queued, 0.5), "us");
  add("service.queued_us_p99", us(*m.queued, 0.99), "us");
  add("service.batch_size_mean",
      ratio(double(svc.batch_size.total), double(svc.batch_size.count)), "requests");
  add("service.guard_aborts", double(svc.counter(CounterId::kSvcGuardAborts)), "count");
  add("service.batch_splits", double(svc.counter(CounterId::kSvcBatchSplits)), "count");
  add("service.split_retries", double(svc.counter(CounterId::kSvcSplitRetries)), "count");
  add("client.future_wait_us_p50", us(*m.future_wait, 0.5), "us");

  const double commits = double(tx.counter(CounterId::kCommits));
  add("otb.attempts_per_commit", ratio(double(tx.counter(CounterId::kAttempts)), commits),
      "ratio");
  add("otb.semantic_conflicts",
      double(tx.aborts_for(otb::metrics::AbortReason::kSemanticConflict)), "count");
  add("otb.validation_us_per_commit",
      ratio(double(tx.phase(Phase::kValidation).total_ns) / 1e3, commits), "us");
  add("otb.commit_us_per_commit",
      ratio(double(tx.phase(Phase::kCommit).total_ns) / 1e3, commits), "us");
  const double fast = double(tx.counter(CounterId::kValidationsFast));
  add("otb.fast_validation_share",
      ratio(fast, fast + double(tx.counter(CounterId::kValidationsFull))), "ratio");
  add("otb.traversal_steps_per_op",
      ratio(double(tx.traversals.total_steps), double(tx.traversals.count)), "steps");
  const double hits = double(tx.counter(CounterId::kHintHitLocal) +
                             tx.counter(CounterId::kHintHitCached));
  add("otb.hint_hit_share",
      ratio(hits, hits + double(tx.counter(CounterId::kHintMiss))), "ratio");

  add("mv.snapshot_reads", both(CounterId::kMvSnapshotReads), "count");
  add("mv.version_misses", both(CounterId::kMvVersionMisses), "count");
  add("mv.chain_len_mean",
      ratio(double(svc.mv_chain_len.total + tx.mv_chain_len.total),
            double(svc.mv_chain_len.count + tx.mv_chain_len.count)),
      "entries");
  add("mv.versions_reclaimed", both(CounterId::kMvVersionsReclaimed), "count");

  add("fusion.fused_requests", double(svc.counter(CounterId::kSvcFused)), "count");
  add("fusion.unions", double(svc.counter(CounterId::kFusionUnions)), "count");
  // Every withdrawn donation escalates to the gated serial attempt
  // (service.h run_batch), so the withdrawal counter counts escalations.
  add("fusion.escalations", double(svc.counter(CounterId::kFusionFallbacks)), "count");

  const double appends = double(svc.counter(CounterId::kWalAppends));
  const otb::metrics::PhaseSnapshot& fsync = svc.phase(Phase::kWalFsync);
  const otb::metrics::PhaseSnapshot& service = svc.phase(Phase::kService);
  add("wal.appends", appends, "count");
  add("wal.fsync_us_p50", log2_quantile(fsync.log2_buckets, 0.5) / 1e3, "us");
  add("wal.fsyncs_per_append", ratio(double(svc.counter(CounterId::kWalFsyncs)), appends),
      "ratio");
  add("wal.bytes_per_write", ratio(double(svc.counter(CounterId::kWalBytes)), appends),
      "bytes");
  add("wal.fsync_share_of_service",
      ratio(ratio(double(fsync.total_ns), double(fsync.count)),
            ratio(double(service.total_ns), double(service.count))),
      "ratio");

  add("net.frames_in", double(net.counter(CounterId::kNetFramesIn)), "count");
  add("net.backpressure_pauses", double(net.counter(CounterId::kNetBackpressure)), "count");
  const double rtt_p50 = m.slices->median_quantile(0.5) / 1e3;
  add("net.overhead_us_p50",
      m.sock_send->count() != 0
          ? rtt_p50 - log2_quantile(service.log2_buckets, 0.5) / 1e3
          : 0,
      "us");
  add("net.client_send_us_p50", us(*m.sock_send, 0.5), "us");
  add("net.client_recv_us_p50", us(*m.sock_recv, 0.5), "us");

  add("recovery.replay_s", m.replay_s, "s");
  add("recovery.records_per_s", ratio(double(m.records_replayed), m.replay_s), "1/s");
}

// ---- in-process closed-loop client ---------------------------------------------

struct Window {
  std::uint64_t t_meas = 0;  // end of warm-up
  std::uint64_t t_end = 0;   // no submissions at or after this instant
};

struct ClientStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_submit_ns = 0;
  std::unique_ptr<Slices> slices;
  std::unique_ptr<LatHist> wait = std::make_unique<LatHist>();
};

/// Keep kWindow scripts in flight until the window closes, then drain.
/// `gen(req)` builds the next script and returns its descriptor;
/// `done(op, fut)` sees every completion.  A reply counts as seen when this
/// loop observes it.  The loop looks for finished replies after every
/// submit, because a read-only script runs inline inside submit() and keeps
/// this thread from observing anything else meanwhile.
template <typename Op, typename Gen, typename Done>
void run_client(TracedService& svc, const Window& win, bool trace, Gen&& gen,
                Done&& done, ClientStats& st) {
  struct Slot {
    ResponseFuture fut;
    std::uint64_t t0 = 0;
    Op op{};
    bool busy = false;
  };
  std::array<Slot, kWindow> slots;
  std::size_t busy = 0;
  const auto retire = [&](Slot& s, std::uint64_t seen) {
    if (s.fut.status() != SvcStatus::kOk) {
      ++st.failed;
    } else {
      st.slices->add(win.t_meas, seen, s.t0);
    }
    done(s.op, s.fut);
    s.fut = ResponseFuture{};
    s.busy = false;
    --busy;
  };
  for (;;) {
    Slot* free = nullptr;
    for (Slot& s : slots) {
      if (s.busy && s.fut.done()) retire(s, now_ns());
      if (!s.busy) free = &s;
    }
    if (free != nullptr && now_ns() < win.t_end) {
      Request req;
      free->op = gen(req);
      free->t0 = now_ns();
      if (st.first_submit_ns == 0) st.first_submit_ns = free->t0;
      free->fut = svc.submit(std::move(req));
      free->busy = true;
      ++busy;
      ++st.attempted;
      continue;
    }
    if (busy == 0) return;
    // Window full, or closed with replies outstanding: block on the oldest.
    Slot* oldest = nullptr;
    for (Slot& s : slots) {
      if (s.busy && (oldest == nullptr || s.t0 < oldest->t0)) oldest = &s;
    }
    const std::uint64_t w0 = now_ns();
    oldest->fut.wait();
    const std::uint64_t seen = now_ns();
    if (trace) st.wait->add(seen - w0);
    retire(*oldest, seen);
  }
}

/// Start `kClients` threads running `body(c, stats)` over one measurement
/// window; fold their stats into `m`.
template <typename Body>
void drive_clients(const Options& opt, Body&& body, Measured& m, Outcome& out) {
  std::vector<ClientStats> stats(kClients);
  for (ClientStats& s : stats) s.slices = std::make_unique<Slices>(opt.seconds);
  std::atomic<bool> go{false};
  Window win;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      char name[16];
      std::snprintf(name, sizeof(name), "bench/c%u", c);
      otb::set_this_thread_name(name);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(c, win, stats[c]);
    });
  }
  const std::uint64_t t0 = now_ns();
  win.t_meas = t0 + warmup_ns(opt.seconds);
  win.t_end = win.t_meas + std::uint64_t{opt.seconds} * 1'000'000'000ull;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  m.slices = std::make_unique<Slices>(opt.seconds);
  m.first_request_ns = ~std::uint64_t{0};
  for (const ClientStats& s : stats) {
    out.attempted += s.attempted;
    out.failed += s.failed;
    m.slices->merge(*s.slices);
    m.future_wait->merge(*s.wait);
    m.first_request_ns = std::min(m.first_request_ns, s.first_submit_ns);
  }
}

ServiceConfig base_config() {
  ServiceConfig cfg;  // the program's defaults, bar the worker count
  cfg.workers = kWorkers;
  return cfg;
}

// ---- kv workloads ----------------------------------------------------------------

struct KvOp {
  Verb verb = Verb::kGet;
  std::int64_t key = 0;
};

/// Per-client reply tallies for the conservation check.
struct KvTally {
  std::vector<std::int64_t> inserts, erases;
  std::uint64_t bad_values = 0;

  explicit KvTally(std::int64_t keys)
      : inserts(static_cast<std::size_t>(keys)), erases(static_cast<std::size_t>(keys)) {}

  void account(Verb verb, std::int64_t key, bool ok, std::int64_t value) {
    if (!ok) return;
    const auto k = static_cast<std::size_t>(key);
    if (verb == Verb::kPut) inserts[k] += 1;
    if (verb == Verb::kErase) erases[k] += 1;
    if (verb == Verb::kGet && !perfbench::value_valid(key, value)) ++bad_values;
  }

  void merge(const KvTally& o) {
    for (std::size_t k = 0; k < inserts.size(); ++k) {
      inserts[k] += o.inserts[k];
      erases[k] += o.erases[k];
    }
    bad_values += o.bad_values;
  }

  /// The kv output checks: values read back, then per-key conservation
  /// against a quiescent walk of the map.
  void check(const std::vector<std::uint8_t>& initial, const Walk& final_walk,
             CheckLog& log) const {
    if (bad_values != 0) {
      log.fail(std::to_string(bad_values) +
               " get replies returned a value no writer of that key produced");
    }
    perfbench::check_kv_conservation(initial, inserts, erases, final_walk, log);
  }
};

/// One kv script: `read_permille` gets, then puts and erases 3:1.
KvOp next_kv(otb::Xorshift& rng, std::int64_t keys, unsigned read_permille) {
  const std::uint64_t pick = rng.next_bounded(1000);
  KvOp op;
  op.key = static_cast<std::int64_t>(rng.next_bounded(static_cast<std::uint64_t>(keys)));
  const std::uint64_t writes = 1000 - read_permille;
  if (pick < read_permille) {
    op.verb = Verb::kGet;
  } else if (pick < read_permille + writes * 3 / 4) {
    op.verb = Verb::kPut;
  } else {
    op.verb = Verb::kErase;
  }
  return op;
}

Request kv_request(const KvOp& op, std::int64_t nonce) {
  switch (op.verb) {
    case Verb::kPut:
      return Request{otb::service::map_put(op.key, perfbench::encode_value(op.key, nonce))};
    case Verb::kErase:
      return Request{otb::service::map_erase(op.key)};
    default:
      return Request{otb::service::map_get(op.key)};
  }
}

std::vector<std::uint8_t> presence(const Walk& walk, std::int64_t keys) {
  std::vector<std::uint8_t> p(static_cast<std::size_t>(keys), 0);
  for (const auto& [k, v] : walk) {
    if (k >= 0 && k < keys) p[static_cast<std::size_t>(k)] = 1;
  }
  return p;
}

void seed_even_keys(otb::tx::OtbListMap& map, std::int64_t keys) {
  for (std::int64_t k = 0; k < keys; k += 2) map.put_seq(k, perfbench::encode_value(k, 0));
}

void run_kv_read_large(const Options& opt, Measured& m, Outcome& out) {
  otb::tx::OtbListMap map;
  seed_even_keys(map, kReadLargeKeys);
  const std::vector<std::uint8_t> initial = presence(map.snapshot_unsafe(), kReadLargeKeys);
  Service svc(otb::service::Targets::standard(&map), base_config());
  TracedService traced(svc, opt.trace);
  otb::metrics::Registry::global().reset();
  svc.start();
  std::vector<KvTally> tallies(kClients, KvTally(kReadLargeKeys));
  drive_clients(
      opt,
      [&](unsigned c, const Window& win, ClientStats& st) {
        otb::Xorshift rng{opt.seed * 1000003 + c + 1};
        std::int64_t nonce = std::int64_t{c} << 16;
        KvTally& tally = tallies[c];
        run_client<KvOp>(
            traced, win, opt.trace,
            [&](Request& req) {
              const KvOp op = next_kv(rng, kReadLargeKeys, 900);
              req = kv_request(op, ++nonce);
              return op;
            },
            [&](const KvOp& op, const ResponseFuture& fut) {
              if (fut.status() == SvcStatus::kOk) {
                tally.account(op.verb, op.key, fut.ok(), fut.value());
              }
            },
            st);
      },
      m, out);
  svc.stop();
  m.peak_rss_mib = peak_rss_mib();
  m.registry = otb::metrics::Registry::global().snapshot();
  keep_traces(traced, m);

  KvTally total(kReadLargeKeys);
  for (const KvTally& t : tallies) total.merge(t);
  total.check(initial, map.snapshot_unsafe(), out.checks);
}

// ---- jobs-contended --------------------------------------------------------------

struct JobOp {
  bool claim = true;
  std::int64_t job = 0;
};

void run_jobs_contended(const Options& opt, Measured& m, Outcome& out) {
  otb::service::scenarios::JobScheduler sched;
  for (std::int64_t j = 1; j <= kJobs; ++j) sched.seed_job(j);
  Service svc(sched.targets(), base_config());
  TracedService traced(svc, opt.trace);
  otb::metrics::Registry::global().reset();
  svc.start();

  struct JobTally {
    std::deque<std::int64_t> held;  // claimed, release not yet issued
    std::uint64_t claims_ok = 0, releases_ok = 0, bad = 0;
  };
  std::vector<JobTally> tallies(kClients);
  drive_clients(
      opt,
      [&](unsigned c, const Window& win, ClientStats& st) {
        JobTally& tally = tallies[c];
        run_client<JobOp>(
            traced, win, opt.trace,
            [&](Request& req) {
              JobOp op;
              if (tally.held.size() >= kHeldJobs) {
                op.claim = false;
                op.job = tally.held.front();
                tally.held.pop_front();
                req = sched.release(op.job);
              } else {
                req = sched.claim(static_cast<std::int64_t>(c));
              }
              return op;
            },
            [&](const JobOp& op, const ResponseFuture& fut) {
              if (fut.status() != SvcStatus::kOk) return;
              if (op.claim) {
                if (!fut.ok()) return;  // empty ready queue: guard abort
                tally.claims_ok += 1;
                tally.held.push_back(fut.step(0).value);
              } else if (fut.ok()) {
                tally.releases_ok += 1;
              } else {
                tally.bad += 1;  // this client held the job: release must succeed
              }
            },
            st);
      },
      m, out);
  svc.stop();
  m.peak_rss_mib = peak_rss_mib();
  m.registry = otb::metrics::Registry::global().snapshot();
  keep_traces(traced, m);

  std::uint64_t claims = 0, releases = 0, bad = 0;
  std::vector<std::vector<std::int64_t>> held(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    claims += tallies[c].claims_ok;
    releases += tallies[c].releases_ok;
    bad += tallies[c].bad;
    held[c].assign(tallies[c].held.begin(), tallies[c].held.end());
  }
  if (bad != 0) {
    out.checks.fail(std::to_string(bad) + " releases of held jobs were refused");
  }
  const Walk leases = sched.leases().snapshot_unsafe();
  const std::vector<std::int64_t> queue =
      otb::service::scenarios::drain_pq_unsafe(sched.free_queue());
  perfbench::check_jobs(kJobs, queue, leases, claims, releases, held, out.checks);
}

// ---- kv-durable-net --------------------------------------------------------------

std::string wal_dir(const Options& opt) { return opt.run_dir + "/wal"; }

/// The record the prepared log holds at stamp i (1-based): a put, so every
/// record takes effect on replay whatever came before it.
otb::service::WalOp prepared_op(std::uint64_t i) {
  const auto key = static_cast<std::int64_t>((i * 37) % kNetKeys);
  return otb::service::WalOp{0, Verb::kPut, key,
                             perfbench::encode_value(key, static_cast<std::int64_t>(i))};
}

/// The map the prepared log describes (even keys seeded, then every put).
Walk prepared_model() {
  std::vector<std::int64_t> value(static_cast<std::size_t>(kNetKeys), -1);
  for (std::int64_t k = 0; k < kNetKeys; k += 2) {
    value[static_cast<std::size_t>(k)] = perfbench::encode_value(k, 0);
  }
  for (std::uint64_t i = 1; i <= kPreparedRecords; ++i) {
    const otb::service::WalOp op = prepared_op(i);
    value[static_cast<std::size_t>(op.key)] = op.value;
  }
  Walk w;
  for (std::int64_t k = 0; k < kNetKeys; ++k) {
    if (value[static_cast<std::size_t>(k)] >= 0) w.emplace_back(k, value[static_cast<std::size_t>(k)]);
  }
  return w;
}

/// Write the log a previous run of the service would have left: one record
/// per stamp, alternating between the two worker shards, fsynced on close.
int prepare_log(const Options& opt) {
  otb::service::Wal wal(otb::service::WalOptions{wal_dir(opt), otb::service::WalFsync::kGroup,
                                                 kWorkers, nullptr});
  std::string err;
  if (!wal.open_for_append(&err)) die("setup", "cannot create the WAL: " + err);
  for (std::uint64_t i = 1; i <= kPreparedRecords; ++i) {
    const otb::service::WalOp op = prepared_op(i);
    wal.append(static_cast<unsigned>(i % kWorkers), i, &op, 1);
  }
  wal.close_all();
  return 0;
}

/// What the forked client reports back through a file: this block as plain
/// bytes, then its Slices and its KvTally (see write_report).
struct NetReport {
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t frames_sent = 0, replies = 0;
  std::uint64_t first_send_ns = 0;
  LatHist send, recv;
  char error[160] = {};
};

bool write_report(const std::string& path, const NetReport& rep, const Slices& slices,
                  const KvTally& tally) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(&rep, sizeof(rep), 1, f) == 1;
  for (std::size_t i = 0; ok && i < slices.ok.size(); ++i) {
    ok = std::fwrite(&slices.ok[i], sizeof(std::uint64_t), 1, f) == 1 &&
         std::fwrite(&slices.latency[i], sizeof(LatHist), 1, f) == 1;
  }
  const std::size_t keys = tally.inserts.size();
  ok = ok && std::fwrite(tally.inserts.data(), sizeof(std::int64_t), keys, f) == keys &&
       std::fwrite(tally.erases.data(), sizeof(std::int64_t), keys, f) == keys &&
       std::fwrite(&tally.bad_values, sizeof(tally.bad_values), 1, f) == 1;
  return std::fclose(f) == 0 && ok;
}

bool read_report(const std::string& path, NetReport& rep, Slices& slices, KvTally& tally) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  bool ok = std::fread(&rep, sizeof(rep), 1, f) == 1;
  for (std::size_t i = 0; ok && i < slices.ok.size(); ++i) {
    ok = std::fread(&slices.ok[i], sizeof(std::uint64_t), 1, f) == 1 &&
         std::fread(&slices.latency[i], sizeof(LatHist), 1, f) == 1;
  }
  const std::size_t keys = tally.inserts.size();
  ok = ok && std::fread(tally.inserts.data(), sizeof(std::int64_t), keys, f) == keys &&
       std::fread(tally.erases.data(), sizeof(std::int64_t), keys, f) == keys &&
       std::fread(&tally.bad_values, sizeof(tally.bad_values), 1, f) == 1;
  std::fclose(f);
  return ok;
}

void encode_v2(std::vector<std::uint8_t>& out, const Request& req, std::uint64_t id) {
  namespace wire = otb::service::wire;
  wire::put<std::uint32_t>(out, static_cast<std::uint32_t>(
                                    otb::service::kNetWireV2HeaderLen +
                                    req.steps.size() * otb::service::kNetWireStepLen));
  wire::put<std::uint8_t>(out, otb::service::kNetWireV2);
  wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(req.steps.size()));
  wire::put<std::uint32_t>(out, 0);  // no deadline
  wire::put<std::uint64_t>(out, id);
  for (const otb::service::Step& s : req.steps) {
    wire::put<std::uint8_t>(out, s.structure);
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.verb));
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>((s.required ? 1u : 0u) |
                                                           (s.has_expect ? 2u : 0u)));
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.key_from));
    wire::put<std::uint8_t>(out, static_cast<std::uint8_t>(s.value_from));
    wire::put<std::int64_t>(out, s.key);
    wire::put<std::int64_t>(out, s.value);
    wire::put<std::int64_t>(out, s.expect);
  }
}

/// The forked client: kConns nonblocking loopback connections, each keeping
/// kWindow v2 frames in flight, driven by one poll() loop.  Waits for the
/// parent's go byte (service started) before the first frame.
void net_client(const Options& opt, std::uint16_t port, int go_fd, NetReport& rep,
                Slices& slices, KvTally& tally) {
  const auto fail = [&](const std::string& why) {
    std::snprintf(rep.error, sizeof(rep.error), "%s", why.c_str());
  };
  struct Sent {
    std::uint64_t id, t0;
    KvOp op;
  };
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out, in;
    std::size_t out_off = 0;
    std::deque<Sent> inflight;
  };
  std::vector<Conn> conns(kConns);
  for (Conn& c : conns) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return fail(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  char go = 0;
  ssize_t got = 0;
  do {
    got = ::read(go_fd, &go, 1);
  } while (got < 0 && errno == EINTR);
  if (got != 1) return fail("server never signalled it was serving");

  otb::Xorshift rng{opt.seed * 7919 + 17};
  std::int64_t nonce = 0;
  std::uint64_t next_id = 1;
  const std::uint64_t t0 = now_ns();
  rep.first_send_ns = t0;
  const std::uint64_t t_meas = t0 + warmup_ns(opt.seconds);
  const std::uint64_t t_end = t_meas + std::uint64_t{opt.seconds} * 1'000'000'000ull;

  const auto flush = [&](Conn& c) -> bool {
    while (c.out_off < c.out.size()) {
      const std::uint64_t s0 = opt.trace ? now_ns() : 0;
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (opt.trace) rep.send.add(now_ns() - s0);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
    c.out.clear();
    c.out_off = 0;
    return true;
  };
  const auto drain = [&](Conn& c) -> bool {
    std::uint8_t buf[16384];
    for (;;) {
      const std::uint64_t r0 = opt.trace ? now_ns() : 0;
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (opt.trace) rep.recv.add(now_ns() - r0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // EOF or error: the server hung up
    }
    namespace wire = otb::service::wire;
    std::size_t off = 0;
    const std::uint64_t seen = now_ns();
    while (c.in.size() - off >= 4) {
      const std::uint32_t len = wire::get<std::uint32_t>(c.in.data() + off);
      if (c.in.size() - off < 4 + std::size_t{len}) break;
      const std::uint8_t* p = c.in.data() + off + 4;
      // v2 reply: ver | id | status | ok | nsteps | nsteps x (ran, ok, value)
      if (len < 12 || p[0] != otb::service::kNetWireV2 || c.inflight.empty()) return false;
      const Sent s = c.inflight.front();
      c.inflight.pop_front();
      if (wire::get<std::uint64_t>(p + 1) != s.id) return false;
      rep.replies += 1;
      const auto status = static_cast<SvcStatus>(p[9]);
      if (status != SvcStatus::kOk) {
        rep.failed += 1;
      } else {
        slices.add(t_meas, seen, s.t0);
        if (p[11] != 1 || len < 22) return false;
        tally.account(s.op.verb, s.op.key, p[13] != 0, wire::get<std::int64_t>(p + 14));
      }
      off += 4 + len;
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  };

  std::vector<pollfd> fds(kConns);
  for (;;) {
    const std::uint64_t now = now_ns();
    const bool submitting = now < t_end;
    bool idle = true;
    for (Conn& c : conns) {
      while (submitting && c.inflight.size() < kWindow) {
        const KvOp op = next_kv(rng, kNetKeys, 500);
        encode_v2(c.out, kv_request(op, ++nonce), next_id);
        c.inflight.push_back(Sent{next_id, now_ns(), op});
        ++next_id;
        rep.frames_sent += 1;
        rep.attempted += 1;
      }
      if (!flush(c)) return fail(std::string("send: ") + std::strerror(errno));
      if (!c.inflight.empty()) idle = false;
    }
    if (idle && !submitting) break;
    if (now > t_end + 30'000'000'000ull) return fail("replies stopped arriving");
    for (std::size_t i = 0; i < kConns; ++i) {
      fds[i] = pollfd{conns[i].fd,
                      static_cast<short>(POLLIN | (conns[i].out_off < conns[i].out.size()
                                                       ? POLLOUT
                                                       : 0)),
                      0};
    }
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
      return fail(std::string("poll: ") + std::strerror(errno));
    }
    for (std::size_t i = 0; i < kConns; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !drain(conns[i])) {
        return fail("server closed the connection or sent a malformed reply");
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);
}

/// Kills and reaps the forked client on every path out of the server side.
struct ChildGuard {
  pid_t pid = -1;
  ChildGuard() = default;
  ChildGuard(const ChildGuard&) = delete;
  ChildGuard& operator=(const ChildGuard&) = delete;
  ~ChildGuard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

bool write_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void run_kv_durable_net(const Options& opt, Measured& m, Outcome& out) {
  const auto seed = [](otb::tx::OtbListMap& map) {
    return [&map] { seed_even_keys(map, kNetKeys); };
  };
  otb::tx::OtbListMap map;
  ServiceConfig cfg = base_config();
  cfg.wal_dir = wal_dir(opt);
  cfg.wal_fsync = otb::service::WalFsync::kGroup;
  auto svc = std::make_unique<Service>(otb::service::Targets::standard(&map), cfg);
  const std::uint64_t r0 = now_ns();
  const otb::service::RecoveryReport rep = svc->recover(seed(map));
  m.replay_s = double(now_ns() - r0) / 1e9;
  m.records_replayed = rep.records_replayed;
  if (!rep.ok() || rep.records_replayed != kPreparedRecords) {
    die("setup", "recovery of the prepared log: status " +
                     std::string(otb::service::to_string(rep.status)) + ", " +
                     std::to_string(rep.records_replayed) + " records, " + rep.detail);
  }
  const Walk model = prepared_model();
  perfbench::check_recovered(model, map.snapshot_unsafe(), out.checks);
  const std::vector<std::uint8_t> initial = presence(model, kNetKeys);

  TracedService traced(*svc, opt.trace);
  otb::service::BasicNetServer<TracedService> server(traced, 0,
                                                     otb::service::NetServerConfig{});
  if (!server.listening()) die("setup", "cannot bind a loopback port");
  const std::string report_path = opt.run_dir + "/client.bin";
  int go[2];
  if (::pipe(go) != 0) die("setup", std::string("pipe: ") + std::strerror(errno));
  // Fork before any service thread exists (a child of a threaded process
  // could inherit a held lock).
  ChildGuard child;
  child.pid = ::fork();
  if (child.pid < 0) die("setup", std::string("fork: ") + std::strerror(errno));
  if (child.pid == 0) {
    ::close(go[1]);
    auto report = std::make_unique<NetReport>();
    Slices slices(opt.seconds);
    KvTally tally(kNetKeys);
    net_client(opt, server.bound_port(), go[0], *report, slices, tally);
    ::_exit(write_report(report_path, *report, slices, tally) ? 0 : 1);
  }
  ::close(go[0]);
  otb::metrics::Registry::global().reset();
  svc->start();
  std::thread serving([&] { server.run(); });
  const char byte = 1;
  const bool signalled = write_all(go[1], &byte, 1);
  ::close(go[1]);
  int status = 0;
  if (signalled) {
    while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    child.pid = -1;
  }
  server.request_stop();
  serving.join();  // run() drains and stops the service
  m.peak_rss_mib = peak_rss_mib();
  m.registry = otb::metrics::Registry::global().snapshot();
  keep_traces(traced, m);
  if (!signalled) {
    ::kill(child.pid, SIGKILL);
    ::waitpid(child.pid, nullptr, 0);
    child.pid = -1;
    die("measure", "could not signal the client to start");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    die("measure", "the client process failed (wait status " + std::to_string(status) + ")");
  }
  auto report = std::make_unique<NetReport>();
  m.slices = std::make_unique<Slices>(opt.seconds);
  KvTally tally(kNetKeys);
  if (!read_report(report_path, *report, *m.slices, tally)) {
    die("measure", "the client left no report");
  }
  if (report->error[0] != '\0') die("measure", std::string("client: ") + report->error);

  out.attempted = report->attempted;
  out.failed = report->failed + (report->frames_sent - report->replies);
  m.first_request_ns = report->first_send_ns;
  m.sock_send->merge(report->send);
  m.sock_recv->merge(report->recv);

  perfbench::check_frames(domain(m.registry, "otb.service.net").counter(CounterId::kNetFramesIn),
                          report->frames_sent, report->replies, out.checks);
  const Walk live = map.snapshot_unsafe();
  tally.check(initial, live, out.checks);

  // Destroy the stopped service, then rebuild the map from the log alone.
  svc.reset();
  otb::tx::OtbListMap recovered;
  const otb::service::RecoveryReport again = otb::service::recover_into(
      wal_dir(opt), otb::service::Targets::standard(&recovered), seed(recovered));
  if (!again.ok()) {
    out.checks.fail("recovery after the run failed: " +
                    std::string(otb::service::to_string(again.status)) + " " + again.detail);
  }
  perfbench::check_recovered(live, recovered.snapshot_unsafe(), out.checks);
}

// ---- main ----------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("setup", "missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--run-dir") opt.run_dir = value();
    else if (a == "--prepare") opt.prepare = true;
    else die("setup", "unknown argument " + a);
  }
  if (opt.run_dir.empty()) die("setup", "--run-dir is required");
  if (opt.seconds == 0) die("setup", "--seconds must be at least 1");
  return opt;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              out.checks.ok() ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                out.metrics[i].name.c_str(), out.metrics[i].value, out.metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Measured m;
  m.start_ns = now_ns();
  const Options opt = parse(argc, argv);
  g_workload = opt.workload.c_str();
  if (opt.prepare) {
    if (opt.workload != "kv-durable-net") die("setup", "--prepare is for kv-durable-net");
    return prepare_log(opt);
  }
  if (opt.trace) otb::tx::set_collect_timing(true);
  Outcome out;
  if (opt.workload == "kv-read-large") {
    run_kv_read_large(opt, m, out);
  } else if (opt.workload == "jobs-contended") {
    run_jobs_contended(opt, m, out);
  } else if (opt.workload == "kv-durable-net") {
    run_kv_durable_net(opt, m, out);
  } else {
    die("setup", "unknown workload '" + opt.workload + "'");
  }
  dump_registry(opt, m.registry);
  if (out.attempted == 0) die("measure", "no script was attempted");
  if (opt.trace) {
    per_layer(m, out);
  } else {
    end_to_end(m, out);
  }
  for (const std::string& f : out.checks.failures) {
    std::fprintf(stderr, "svcbench: workload=%s phase=check: %s\n", g_workload, f.c_str());
  }
  print_result(out);
  return 0;
}
