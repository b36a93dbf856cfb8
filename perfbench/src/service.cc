// Open-loop service: one generator (the calling thread) submits `simulate`
// requests to an in-process SimulationService with four threads at a fixed
// rate, whatever the replies do. Keys are (workload, sparse config
// override, level, iterations) tuples drawn with seeded, skewed popularity;
// most are at kSwiftSimMemory with a tail of Basic and Detailed. Latency
// is timed from each request's due time, so a stall counts against every
// request scheduled behind it. Every reply's cycles must equal a one-shot
// RunSimulation of the same key with memo off.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>

#include "bench.h"
#include "config/ini.h"
#include "config/presets.h"
#include "stats.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/simulator.h"
#include "trace/fingerprint.h"
#include "workloads/workload.h"

namespace perfbench {

using swiftsim::SimLevel;
namespace svc = swiftsim::service;

namespace {

const char* const kServiceApps[] = {"BFS", "NW", "HOTSPOT", "GEMM"};
const char* const kOverrides[] = {"", "[dram]\nlatency = 160\n",
                                  "[core]\nsched_policy = lrr\n"};

/// Requests per second: about 70% of what the service sustains on this mix
/// at the commit that introduced the benchmark. There, on a 4-core x86
/// host, a request kept a lane busy for 39 ms on average (a coalesced
/// follower costs none), so four lanes sustain about 100 requests/s.
constexpr double kRatePerS = 70.0;

/// Request classes with fixed shares. Within a class, key popularity is
/// Zipf over a fixed catalogue order, so the seed changes which requests
/// are drawn but not how skewed the mix is. The median falls inside the
/// memo-replayed eight-launch class, where per-request fixed costs
/// (fingerprinting, trace assembly) dominate; the 95th percentile falls
/// inside the cycle-accurate tail, which is always simulated.
struct Class {
  SimLevel level;
  unsigned iterations;
  std::size_t num_apps;       // the first num_apps of kServiceApps
  std::size_t num_overrides;  // the first num_overrides of kOverrides
  double share;
};
constexpr Class kClasses[] = {
    {SimLevel::kSwiftSimMemory, 8, 4, 3, 0.80},
    {SimLevel::kSwiftSimMemory, 1, 4, 3, 0.10},
    {SimLevel::kSwiftSimBasic, 1, 1, 1, 0.06},
    {SimLevel::kDetailed, 1, 1, 1, 0.04},
};
/// Zipf exponent of key popularity within a class.
constexpr double kZipfS = 1.0;
/// How long to wait for replies after the last send before counting the
/// missing ones as failed.
constexpr double kDrainTimeoutS = 60.0;
/// Enough requests for a 95th percentile with ten samples beyond it.
const std::size_t kMinRequests = SamplesNeeded(0.95);

struct Key {
  std::size_t app_index = 0;  // into kServiceApps
  std::size_t override_index = 0;
  SimLevel level = SimLevel::kSwiftSimMemory;
  unsigned iterations = 1;

  const char* workload() const { return kServiceApps[app_index]; }
  bool operator<(const Key& o) const {
    return std::tie(app_index, override_index, level, iterations) <
           std::tie(o.app_index, o.override_index, o.level, o.iterations);
  }
  std::string Label() const {
    return std::string(workload()) + "/o" + std::to_string(override_index) +
           "/" + LevelTag(level) + "/x" + std::to_string(iterations);
  }
};

/// Keys of one class in popularity order, with their Zipf weights.
struct ClassKeys {
  std::vector<Key> keys;
  std::discrete_distribution<std::size_t> pick;
};

ClassKeys MakeClass(const Class& c) {
  ClassKeys out;
  for (std::size_t o = 0; o < c.num_overrides; ++o) {
    for (std::size_t a = 0; a < c.num_apps; ++a) {
      out.keys.push_back({a, o, c.level, c.iterations});
    }
  }
  std::vector<double> w;
  for (std::size_t r = 0; r < out.keys.size(); ++r) {
    w.push_back(1.0 / std::pow(static_cast<double>(r + 1), kZipfS));
  }
  out.pick = std::discrete_distribution<std::size_t>(w.begin(), w.end());
  return out;
}

/// The request stream: one key per request, drawn from the seed.
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : rng_(seed ^ 0x5e41ce5eedULL) {
    std::vector<double> shares;
    for (const Class& c : kClasses) {
      classes_.push_back(MakeClass(c));
      shares.push_back(c.share);
    }
    pick_class_ = std::discrete_distribution<std::size_t>(shares.begin(),
                                                          shares.end());
  }

  Key Next() {
    ClassKeys& ck = classes_[pick_class_(rng_)];
    return ck.keys[ck.pick(rng_)];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<ClassKeys> classes_;
  std::discrete_distribution<std::size_t> pick_class_;
};

double ToMs(double seconds) { return seconds * 1e3; }

/// One request as sent, and its outcome.
struct Sent {
  Key key;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  double admit_us = 0;
  bool answered = false;  // false: refused, or no reply before the drain
  std::int64_t done = 0;
  svc::Response response;
};

class Service : public Phase {
 public:
  Service(Run& run, Inputs& in, double window_s)
      : run_(run), service_(*in.service), window_s_(window_s),
        schedule_(run.seed) {}

  void Step() override { Window(window_s_, Tracer::kNone); }

  void Report() override {
    TopUp(Tracer::kNone);
    const Summary s = Summarize();
    run_.Set("svc_p50_ms", Pct(s.latency, 0.50, "latency"), "ms");
    run_.Set("svc_p95_ms", Pct(s.latency, 0.95, "latency"), "ms");
  }

  void Traced() override {
    ScopedSpan phase(run_.tracer, "phase.service");
    const svc::ServiceStats before = service_.stats();
    // The same windows as a timed run of the declared length.
    for (int r = 0; r < kRounds; ++r) Window(window_s_, phase.id());
    TopUp(phase.id());
    const svc::ServiceStats after = service_.stats();
    const Summary s = Summarize();
    const std::uint64_t app_hits = after.app_cache_hits - before.app_cache_hits;
    const std::uint64_t app_all =
        app_hits + after.app_cache_misses - before.app_cache_misses;
    std::vector<double> admit;
    for (const Sent& r : sent_) admit.push_back(r.admit_us);
    run_.Set("svc.admit_us", Median(admit), "us");
    run_.Set("svc.queue_ms.p50", Pct(s.queue, 0.50, "queue"), "ms");
    run_.Set("svc.queue_ms.p95", Pct(s.queue, 0.95, "queue"), "ms");
    run_.Set("svc.sim_ms.p50", Pct(s.sim, 0.50, "sim"), "ms");
    run_.Set("svc.sim_ms.p95", Pct(s.sim, 0.95, "sim"), "ms");
    run_.Set("svc.other_ms.p50", Pct(s.other, 0.50, "other"), "ms");
    run_.Set("svc.other_ms.p95", Pct(s.other, 0.95, "other"), "ms");
    run_.Set("svc.coalesced", static_cast<double>(s.coalesced), "count");
    run_.Set("svc.app_cache_hit_ratio",
             app_all == 0 ? 0.0
                          : static_cast<double>(app_hits) /
                                static_cast<double>(app_all),
             "ratio");
    run_.Set("svc.repeat_share", s.repeat_share, "ratio");
    run_.Set("svc.rejected",
             static_cast<double>(after.rejected - before.rejected), "count");
    run_.Set("loadgen.late_p95_ms", Pct(s.late, 0.95, "late"), "ms");
    run_.Add("memo.hits", static_cast<double>(s.memo_hits), "count");
    run_.Add("memo.misses", static_cast<double>(s.memo_misses), "count");
    run_.Add("memo.cycles_avoided", static_cast<double>(s.memo_avoided),
             "cycles");
  }

 private:
  struct Summary {
    std::vector<double> latency, late, queue, sim, other;
    std::size_t coalesced = 0;
    double repeat_share = 0;
    std::uint64_t memo_hits = 0, memo_misses = 0, memo_avoided = 0;
  };

  /// Short runs top up to the sample count the 95th percentile needs.
  void TopUp(Tracer::Id parent) {
    if (sent_.size() < kMinRequests) {
      Window(static_cast<double>(kMinRequests - sent_.size()) / kRatePerS,
             parent);
    }
  }

  /// Sends requests open-loop for `seconds`, then waits for their replies.
  /// Each window starts from cold memo and profile caches; the service's
  /// own built-trace cache stays warm across windows.
  void Window(double seconds, Tracer::Id parent) {
    swiftsim::MemoCache::Global().Clear();
    swiftsim::ProfileCache::Global().Clear();
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(seconds * kRatePerS)));
    // Reply slots shared with the callbacks, which outlive this call if
    // the drain times out.
    struct Replies {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t pending = 0;
      std::vector<Sent> slots;
    };
    auto replies = std::make_shared<Replies>();
    replies->slots.resize(n);
    replies->pending = n;
    Tracer* tracer = parent == Tracer::kNone ? nullptr : run_.tracer;
    const std::int64_t start = NowNs() + 1000000;  // first send in 1 ms
    for (std::size_t i = 0; i < n; ++i) {
      const Key key = schedule_.Next();
      const std::int64_t due = DueNs(start, i, kRatePerS);
      std::this_thread::sleep_until(
          SteadyClock::time_point(std::chrono::nanoseconds(due)));
      svc::JobRequest job;
      job.id = "r" + std::to_string(sent_.size() + i);
      job.workload = key.workload();
      job.scale = kServiceScale;
      job.seed = run_.seed;
      job.iterations = key.iterations;
      job.level = key.level;
      job.preset = run_.workload;
      job.config_ini = kOverrides[key.override_index];
      svc::Response rejection;
      const std::int64_t sent = NowNs();
      const bool admitted = service_.Submit(
          job,
          [replies, i, tracer, parent, sent, id = job.id](
              const svc::Response& r) {
            const std::int64_t now = NowNs();
            if (tracer) tracer->Record("request", sent, now, parent, id);
            std::lock_guard<std::mutex> lock(replies->mu);
            Sent& slot = replies->slots[i];
            slot.response = r;
            slot.done = now;
            slot.answered = true;
            --replies->pending;
            replies->cv.notify_all();
          },
          &rejection);
      const double admit_us = static_cast<double>(NowNs() - sent) * 1e-3;
      std::lock_guard<std::mutex> lock(replies->mu);
      Sent& slot = replies->slots[i];
      slot.key = key;
      slot.due = due;
      slot.sent = sent;
      slot.admit_us = admit_us;
      if (!admitted) {
        slot.response = rejection;
        --replies->pending;
      }
    }
    std::unique_lock<std::mutex> lock(replies->mu);
    replies->cv.wait_for(lock, std::chrono::duration<double>(kDrainTimeoutS),
                         [&] { return replies->pending == 0; });
    for (const Sent& slot : replies->slots) sent_.push_back(slot);
  }

  /// Checks every reply against a one-shot reference and collects the
  /// latency samples.
  Summary Summarize() {
    Summary s;
    std::map<Key, bool> seen;
    std::size_t repeats = 0;
    for (const Sent& r : sent_) {
      const Key& k = r.key;
      if (seen[k]) ++repeats;
      seen[k] = true;
      ++run_.attempted;
      s.late.push_back(ToMs(static_cast<double>(r.sent - r.due) * 1e-9));
      if (!r.answered || !r.response.ok) {
        // Refused, timed-out, failed and unanswered requests miss every
        // latency limit.
        ++run_.failed;
        s.latency.push_back(std::numeric_limits<double>::max());
        continue;
      }
      const svc::Response& resp = r.response;
      s.latency.push_back(ToMs(LatencyFromDue(r.due, r.done)));
      s.queue.push_back(ToMs(resp.queue_seconds));
      s.sim.push_back(ToMs(resp.sim_seconds));
      s.other.push_back(
          ToMs(resp.wall_seconds - resp.queue_seconds - resp.sim_seconds));
      run_.Check(resp.cycles == Reference(k),
                 "service reply " + resp.id + " (" + k.Label() + ") has " +
                     std::to_string(resp.cycles) + " cycles, one-shot run " +
                     std::to_string(Reference(k)));
      if (resp.coalesced) {
        ++s.coalesced;
      } else {
        s.memo_hits += resp.memo_hits;
        s.memo_misses += resp.memo_misses;
        s.memo_avoided += resp.memo_cycles_avoided;
      }
    }
    s.repeat_share =
        static_cast<double>(repeats) / static_cast<double>(sent_.size());
    std::printf("service: %zu requests at %.0f/s, %zu distinct keys, repeat "
                "share %.3f, %llu failed\n",
                sent_.size(), kRatePerS, seen.size(), s.repeat_share,
                static_cast<unsigned long long>(run_.failed));
    return s;
  }

  /// One-shot cycles of `k` with memo off, so the reference shares no
  /// state with the service.
  swiftsim::Cycle Reference(const Key& k) {
    const auto it = reference_.find(k);
    if (it != reference_.end()) return it->second;
    swiftsim::Application app =
        swiftsim::BuildWorkload(k.workload(), {kServiceScale, run_.seed});
    if (k.iterations > 1) app = swiftsim::RepeatLaunches(app, k.iterations);
    if (run_.traced()) {
      ScopedSpan span(run_.tracer, "FingerprintApplication", Tracer::kNone,
                      k.Label());
      swiftsim::FingerprintApplication(app);
    }
    swiftsim::GpuConfig cfg = swiftsim::PresetByName(run_.workload);
    if (k.override_index != 0) {
      cfg = swiftsim::GpuConfig::FromIni(
          swiftsim::IniFile::ParseString(kOverrides[k.override_index]), cfg);
    }
    cfg.memo.enabled = false;
    const swiftsim::Cycle c =
        swiftsim::RunSimulation(app, cfg, k.level).total_cycles;
    reference_[k] = c;
    return c;
  }

  /// Tail percentile that must exist: the run sends enough requests.
  double Pct(const std::vector<double>& v, double q, const char* what) {
    const std::optional<double> p = TailPercentile(v, q);
    run_.Check(p.has_value(), std::string("too few samples for ") + what);
    return p.value_or(0.0);
  }

  Run& run_;
  svc::SimulationService& service_;
  double window_s_;
  Schedule schedule_;
  std::vector<Sent> sent_;
  std::map<Key, swiftsim::Cycle> reference_;
};

}  // namespace

std::unique_ptr<Phase> MakeService(Run& run, Inputs& in, double window_s) {
  return std::make_unique<Service>(run, in, window_s);
}

}  // namespace perfbench
