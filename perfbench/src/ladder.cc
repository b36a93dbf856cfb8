// Fidelity ladder (the paper's Fig. 4 experiment): six apps as serial
// one-shot RunSimulation calls at kDetailed, kSwiftSimBasic and
// kSwiftSimMemory, with kSilicon as the untimed accuracy reference.
//
// The traced run re-drives each app through a copy of GpuModel::RunKernel's
// loop built from the public shard-driver calls, charging every stretch
// between two clock reads to one layer, and accepts the result only if its
// cycles and full metrics map equal RunSimulation's with memo off.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "analytical/cache_prepass.h"
#include "bench.h"
#include "sim/gpu_model.h"
#include "stats.h"
#include "swiftsim/memo_cache.h"
#include "swiftsim/simulator.h"

namespace perfbench {

using swiftsim::Application;
using swiftsim::Cycle;
using swiftsim::GpuConfig;
using swiftsim::GpuModel;
using swiftsim::SimLevel;

namespace {

constexpr SimLevel kLevels[] = {SimLevel::kDetailed, SimLevel::kSwiftSimBasic,
                                SimLevel::kSwiftSimMemory};

using Snapshot = std::map<std::string, std::uint64_t>;

/// Sum of counters named <prefix><digits><suffix>, e.g. sm12.l1.hits.
std::uint64_t SumIndexed(const Snapshot& m, const std::string& prefix,
                         const std::string& suffix) {
  std::uint64_t sum = 0;
  for (const auto& [key, value] : m) {
    if (key.size() <= prefix.size() + suffix.size()) continue;
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    if (key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string mid =
        key.substr(prefix.size(), key.size() - prefix.size() - suffix.size());
    if (std::all_of(mid.begin(), mid.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
      sum += value;
    }
  }
  return sum;
}

std::uint64_t Get(const Snapshot& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Host time of the traced loop, split by layer (nanoseconds).
struct LayerTimes {
  std::int64_t sm = 0;        // TickSmRange: issue, scoreboard, LD/ST, L1
  std::int64_t mem = 0;       // TickSharedMemory: NoC, L2, DRAM
  std::int64_t calendar = 0;  // KernelDone/MemQuiescent, wake calendar,
                              // FastForward
  std::int64_t dispatch = 0;  // BeginKernel, AssignPendingCtas
  std::int64_t prepass = 0;   // BuildMemProfile
  std::int64_t wall = 0;      // whole app run, model construction included
};

struct TracedApp {
  Cycle cycles = 0;
  Snapshot metrics;
};

/// One app through a copy of GpuModel::RunKernel's loop. Every stretch
/// between two consecutive clock reads is charged to exactly one layer, so
/// the layers partition the kernel loops' wall time.
TracedApp RunTracedApp(const Application& app, const GpuConfig& cfg,
                       SimLevel level, LayerTimes& lt, Tracer* tracer,
                       Tracer::Id parent) {
  const std::int64_t begin = NowNs();
  const swiftsim::ModelSelection sel = swiftsim::SelectionFor(level);
  std::unique_ptr<const swiftsim::MemProfile> profile;
  if (sel.mem == swiftsim::MemModelKind::kAnalytical) {
    const std::int64_t a = NowNs();
    profile = std::make_unique<const swiftsim::MemProfile>(
        swiftsim::BuildMemProfile(app, cfg));
    const std::int64_t b = NowNs();
    lt.prepass += b - a;
    tracer->Record("BuildMemProfile", a, b, parent);
  }
  GpuModel model(cfg, sel, profile.get());
  const bool mem_ca = sel.mem == swiftsim::MemModelKind::kCycleAccurate;
  const bool never_jump = sel.alu == swiftsim::AluModelKind::kCycleAccurate;
  const bool skip = never_jump && cfg.cycle_skip;
  const unsigned num_sms = cfg.num_sms;

  for (const auto& kernel : app.kernels) {
    const std::int64_t k0 = NowNs();
    std::int64_t t = k0;
    auto charge = [&t](std::int64_t& layer) {
      const std::int64_t now_ns = NowNs();
      layer += now_ns - t;
      t = now_ns;
    };
    model.BeginKernel(*kernel);
    Cycle now = model.now();
    charge(lt.dispatch);
    for (;;) {
      const bool done = model.KernelDone();
      charge(lt.calendar);
      if (done) break;
      model.AssignPendingCtas();
      charge(lt.dispatch);
      const bool progressed = model.TickSmRange(0, num_sms, now);
      charge(lt.sm);
      bool mem_busy = false;
      if (mem_ca) {
        model.TickSharedMemory(now);
        charge(lt.mem);
        mem_busy = !model.MemQuiescent();
      }
      if (model.WatchdogEnabled()) model.WatchdogPoll(now);
      if (skip) {
        if (!progressed) {
          if (model.KernelDone()) {
            ++now;
            charge(lt.calendar);
            break;
          }
          Cycle wake = model.MinNextWake();
          if (mem_ca) wake = std::min(wake, model.MemNextEventAfter(now));
          if (wake == swiftsim::kNever) model.ThrowWedged(now);
          if (wake > now + 1) {
            model.FastForward(wake - now - 1);
            now = wake;
            charge(lt.calendar);
            continue;
          }
        }
        ++now;
        charge(lt.calendar);
        continue;
      }
      if (never_jump || progressed || mem_busy) {
        ++now;
        charge(lt.calendar);
        continue;
      }
      const Cycle wake = model.MinNextWake();
      if (wake == swiftsim::kNever) {
        if (!model.KernelDone()) model.ThrowWedged(now);
        charge(lt.calendar);
        break;
      }
      now = std::max(now + 1, wake);
      charge(lt.calendar);
    }
    model.SyncClock(now);
    tracer->Record("kernel", k0, NowNs(), parent);
  }
  TracedApp out;
  out.cycles = model.now();
  out.metrics = model.metrics().Snapshot();
  lt.wall += NowNs() - begin;
  return out;
}

double ErrPct(Cycle predicted, Cycle silicon) {
  return 100.0 * std::fabs(static_cast<double>(predicted) /
                               static_cast<double>(silicon) -
                           1.0);
}

/// Simulated counts of the kDetailed runs, summed over the suite, which
/// took `cycles` cycles in all.
void ReportDetailedCounts(Run& run, const std::vector<Snapshot>& snaps,
                          std::uint64_t cycles) {
  std::uint64_t issued = 0, stalls = 0, l1_hits = 0, l1_acc = 0,
                bank_conflicts = 0, inject_stalls = 0, l2_hits = 0,
                l2_acc = 0, dram_reads = 0, dram_writes = 0, row_hits = 0,
                skipped = 0;
  for (const Snapshot& m : snaps) {
    issued += SumIndexed(m, "sm", ".issued_instrs");
    stalls += SumIndexed(m, "sm", ".stall_cycles");
    l1_hits += SumIndexed(m, "sm", ".l1.hits");
    l1_acc += SumIndexed(m, "sm", ".l1.accesses");
    bank_conflicts += SumIndexed(m, "sm", ".l1.bank_conflicts");
    inject_stalls += Get(m, "noc.req.inject_stalls");
    l2_hits += SumIndexed(m, "l2.", ".hits");
    l2_acc += SumIndexed(m, "l2.", ".accesses");
    dram_reads += SumIndexed(m, "dram.", ".reads");
    dram_writes += SumIndexed(m, "dram.", ".writes");
    row_hits += SumIndexed(m, "dram.", ".row_hits");
    skipped += Get(m, "driver.cycles_skipped");
  }
  run.Set("core.issued_instrs", static_cast<double>(issued), "count");
  run.Set("core.stall_cycles", static_cast<double>(stalls), "cycles");
  run.Set("l1.hit_ratio", Ratio(l1_hits, l1_acc), "ratio");
  run.Set("l1.bank_conflicts", static_cast<double>(bank_conflicts), "count");
  run.Set("noc.inject_stalls", static_cast<double>(inject_stalls), "count");
  run.Set("l2.hit_ratio", Ratio(l2_hits, l2_acc), "ratio");
  run.Set("dram.reads", static_cast<double>(dram_reads), "count");
  run.Set("dram.row_hit_ratio", Ratio(row_hits, dram_reads + dram_writes),
          "ratio");
  run.Set("sim.cycles_skipped", static_cast<double>(skipped), "cycles");
  run.Set("sim.skip_share", Ratio(skipped, cycles), "ratio");
}

constexpr std::size_t kNumLevels = std::size(kLevels);
/// Runs per app and level in one pass: the memory level takes a tenth of
/// the others' time, so it gets more samples against host noise.
constexpr int kRepsPerPass[kNumLevels] = {1, 1, 3};

class Ladder : public Phase {
 public:
  Ladder(Run& run, const Inputs& in)
      : run_(run),
        in_(in),
        walls_(kNumLevels, std::vector<std::vector<double>>(in.ladder.size())),
        cycles_(kNumLevels, std::vector<Cycle>(in.ladder.size())),
        instrs_(kNumLevels, std::vector<std::uint64_t>(in.ladder.size())) {
    // Accuracy reference: the in-repo silicon oracle, untimed.
    for (const Application& app : in.ladder) {
      silicon_.push_back(
          swiftsim::RunSimulation(app, run.gpu, SimLevel::kSilicon)
              .total_cycles);
      ++run.attempted;
    }
  }

  void Step() override;
  void Report() override;
  void Traced() override;

 private:
  /// One timed RunSimulation of app i at level l.
  void Sample(std::size_t i, std::size_t l);

  Run& run_;
  const Inputs& in_;
  std::vector<Cycle> silicon_;
  // walls_[level][app] over all runs; cycles and instructions from the
  // first.
  std::vector<std::vector<std::vector<double>>> walls_;
  std::vector<std::vector<Cycle>> cycles_;
  std::vector<std::vector<std::uint64_t>> instrs_;
  std::size_t passes_ = 0;
};

void Ladder::Step() {
  for (std::size_t i = 0; i < in_.ladder.size(); ++i) {
    for (std::size_t l = 0; l < kNumLevels; ++l) {
      for (int rep = 0; rep < kRepsPerPass[l]; ++rep) Sample(i, l);
    }
  }
  ++passes_;
}

void Ladder::Sample(std::size_t i, std::size_t l) {
  // Every run starts cold, so the memory level measures simulation (and
  // its pre-pass), not replay of an earlier run.
  swiftsim::MemoCache::Global().Clear();
  swiftsim::ProfileCache::Global().Clear();
  const std::int64_t a = NowNs();
  const swiftsim::SimResult r =
      swiftsim::RunSimulation(in_.ladder[i], run_.gpu, kLevels[l]);
  walls_[l][i].push_back(static_cast<double>(NowNs() - a) * 1e-9);
  ++run_.attempted;
  if (walls_[l][i].size() == 1) {
    cycles_[l][i] = r.total_cycles;
    instrs_[l][i] = r.instructions;
  } else {
    run_.Check(r.total_cycles == cycles_[l][i],
               std::string(LevelTag(kLevels[l])) + " cycles of " +
                   in_.ladder[i].name + " changed between runs");
  }
}

void Ladder::Report() {
  static const char* kKips[] = {"detailed_kips", "basic_kips", "memory_kips"};
  static const char* kErr[] = {"err_detailed_pct", "err_basic_pct",
                               "err_memory_pct"};
  for (std::size_t l = 0; l < kNumLevels; ++l) {
    double wall = 0, instr = 0, err = 0;
    for (std::size_t i = 0; i < in_.ladder.size(); ++i) {
      wall += Median(walls_[l][i]);
      instr += static_cast<double>(instrs_[l][i]);
      err += ErrPct(cycles_[l][i], silicon_[i]);
    }
    run_.Set(kKips[l], instr / wall / 1e3, "kinstr/s");
    run_.Set(kErr[l], err / static_cast<double>(in_.ladder.size()), "%");
  }
  std::printf("ladder: %zu passes; err_* are vs the in-repo kSilicon oracle, "
              "not real hardware\n",
              passes_);
}

void Ladder::Traced() {
  GpuConfig cfg = run_.gpu;
  cfg.memo.enabled = false;  // the identity reference simulates every launch
  ScopedSpan phase(run_.tracer, "phase.ladder");
  double untraced_wall = 0, traced_wall = 0, prepass_s = 0;
  double sm_s = 0, mem_s = 0, calendar_s = 0, dispatch_s = 0;
  std::uint64_t detailed_cycles = 0;
  std::vector<Snapshot> detailed;
  for (SimLevel level : kLevels) {
    const std::string tag = LevelTag(level);
    LayerTimes lt;
    std::uint64_t cycles_total = 0;
    for (std::size_t i = 0; i < in_.ladder.size(); ++i) {
      const Application& app = in_.ladder[i];
      // Alternate which of the pair runs first so warm host caches favour
      // neither side of the overhead comparison.
      swiftsim::SimResult ref;
      TracedApp traced;
      auto reference = [&] {
        const std::int64_t a = NowNs();
        ref = swiftsim::RunSimulation(app, cfg, level);
        untraced_wall += static_cast<double>(NowNs() - a) * 1e-9;
      };
      auto trace = [&] {
        ScopedSpan span(run_.tracer, "ladder." + tag, phase.id(), app.name);
        traced = RunTracedApp(app, cfg, level, lt, run_.tracer, span.id());
      };
      if (i % 2 == 0) {
        reference();
        trace();
      } else {
        trace();
        reference();
      }
      run_.attempted += 2;
      run_.Check(traced.cycles == ref.total_cycles,
                 "traced " + tag + " run of " + app.name + " took " +
                     std::to_string(traced.cycles) +
                     " cycles, RunSimulation " +
                     std::to_string(ref.total_cycles));
      run_.Check(traced.metrics == ref.metrics,
                 "traced " + tag + " run of " + app.name +
                     " disagrees with RunSimulation on its metrics map");
      cycles_total += ref.total_cycles;
      if (level == SimLevel::kDetailed) detailed.push_back(ref.metrics);
    }
    const double wall = static_cast<double>(lt.wall) * 1e-9;
    const double accounted =
        static_cast<double>(lt.sm + lt.mem + lt.calendar + lt.dispatch +
                            lt.prepass) *
        1e-9;
    traced_wall += wall;
    sm_s += static_cast<double>(lt.sm) * 1e-9;
    mem_s += static_cast<double>(lt.mem) * 1e-9;
    calendar_s += static_cast<double>(lt.calendar) * 1e-9;
    dispatch_s += static_cast<double>(lt.dispatch) * 1e-9;
    prepass_s += static_cast<double>(lt.prepass) * 1e-9;
    run_.Set("sim.accounted_pct." + tag, 100.0 * accounted / wall, "%");
    run_.Set("sim.sm_tick_s." + tag, static_cast<double>(lt.sm) * 1e-9, "s");
    run_.Set("sim.cycles_total." + tag, static_cast<double>(cycles_total),
             "cycles");
    if (level == SimLevel::kDetailed) detailed_cycles = cycles_total;
  }
  std::uint64_t silicon_total = 0;
  for (Cycle c : silicon_) silicon_total += c;
  run_.Set("sim.cycles_total.silicon", static_cast<double>(silicon_total),
           "cycles");
  run_.Set("sim.sm_tick_s", sm_s, "s");
  run_.Set("sim.mem_tick_s", mem_s, "s");
  run_.Set("sim.calendar_s", calendar_s, "s");
  run_.Set("sim.dispatch_s", dispatch_s, "s");
  run_.Set("prepass.s", prepass_s, "s");
  run_.Set("trace.overhead_pct", 100.0 * (traced_wall / untraced_wall - 1.0),
           "%");
  ReportDetailedCounts(run_, detailed, detailed_cycles);
}

}  // namespace

const char* LevelTag(SimLevel level) {
  switch (level) {
    case SimLevel::kSilicon:
      return "silicon";
    case SimLevel::kDetailed:
      return "detailed";
    case SimLevel::kSwiftSimBasic:
      return "basic";
    case SimLevel::kSwiftSimMemory:
      return "memory";
  }
  return "?";
}

std::unique_ptr<Phase> MakeLadder(Run& run, const Inputs& in) {
  return std::make_unique<Ladder>(run, in);
}

}  // namespace perfbench
