// DSE sweep: dse::RunSweep over BFS and SSSP on the 64-point grid with
// four worker threads, each sweep starting from cold memo and profile
// caches. Exercises successive halving, screen-rung dedup, pre-pass
// sharing and app-parallel lanes.
#include <string>

#include "bench.h"
#include "stats.h"
#include "swiftsim/dse_engine.h"
#include "swiftsim/memo_cache.h"

namespace perfbench {

namespace {

/// The decisions a sweep must reproduce exactly: per point, the rung
/// cycles, whether it was promoted and whether it is on the frontier.
std::string Decisions(const swiftsim::dse::SweepReport& rep) {
  std::string out;
  for (const swiftsim::dse::PointOutcome& p : rep.points) {
    out += std::to_string(p.screen_cycles) + "/" +
           std::to_string(p.final_cycles) + (p.promoted ? "P" : "-") +
           (p.frontier ? "F" : "-") + ";";
  }
  return out;
}

swiftsim::dse::SweepReport Sweep(Run& run, const Inputs& in, Tracer* tracer,
                                 Tracer::Id parent, double* wall_s) {
  swiftsim::MemoCache::Global().Clear();
  swiftsim::ProfileCache::Global().Clear();
  swiftsim::dse::DseOptions opt;
  opt.threads = kThreads;
  opt.refine_rung = false;
  ScopedSpan span(tracer, "RunSweep", parent);
  const std::int64_t a = NowNs();
  swiftsim::dse::SweepReport rep =
      swiftsim::dse::RunSweep(in.dse, in.dse_points, opt);
  *wall_s = static_cast<double>(NowNs() - a) * 1e-9;
  ++run.attempted;
  return rep;
}

class Dse : public Phase {
 public:
  Dse(Run& run, const Inputs& in) : run_(run), in_(in) {}

  void Step() override {
    double wall = 0;
    const swiftsim::dse::SweepReport rep =
        Sweep(run_, in_, nullptr, Tracer::kNone, &wall);
    walls_.push_back(wall);
    CheckDecisions(rep, "sweep " + std::to_string(walls_.size()));
  }

  void Report() override {
    run_.Set("dse_points_per_s",
             static_cast<double>(in_.dse_points.size()) / Median(walls_),
             "points/s");
  }

  void Traced() override {
    ScopedSpan phase(run_.tracer, "phase.dse");
    Step();  // untraced; its decisions are the reference
    double wall = 0;
    const swiftsim::dse::SweepReport rep =
        Sweep(run_, in_, run_.tracer, phase.id(), &wall);
    CheckDecisions(rep, "the traced sweep");
    double screen_s = 0, final_s = 0;
    std::uint64_t avoided = 0;
    for (const swiftsim::dse::PointOutcome& p : rep.points) {
      screen_s += p.screen_wall;
      final_s += p.final_wall;
      avoided += p.memo_cycles_avoided;
    }
    run_.Set("dse.screen_sims", static_cast<double>(rep.screen_sims), "count");
    run_.Set("dse.screen_deduped", static_cast<double>(rep.screen_deduped),
             "count");
    run_.Set("dse.promoted", static_cast<double>(rep.promoted), "count");
    run_.Set("dse.screen_s", screen_s, "s");
    run_.Set("dse.final_s", final_s, "s");
    run_.Set("prepass.built", static_cast<double>(rep.prepass_built),
             "count");
    run_.Set("prepass.shared", static_cast<double>(rep.prepass_shared),
             "count");
    run_.Add("memo.hits", static_cast<double>(rep.memo_hits), "count");
    run_.Add("memo.misses", static_cast<double>(rep.memo_misses), "count");
    run_.Add("memo.cycles_avoided", static_cast<double>(avoided), "cycles");
  }

 private:
  /// Every sweep must reproduce the first one's decisions exactly.
  void CheckDecisions(const swiftsim::dse::SweepReport& rep,
                      const std::string& which) {
    const std::string d = Decisions(rep);
    if (first_.empty()) first_ = d;
    run_.Check(d == first_, "DSE " + which +
                                " disagrees with the first sweep on promoted "
                                "points or the Pareto frontier");
    for (const swiftsim::dse::PointOutcome& p : rep.points) {
      run_.Check(p.promoted || !p.retired_by.empty(),
                 "DSE point " + std::to_string(p.index) +
                     " retired without a recorded bound");
    }
  }

  Run& run_;
  const Inputs& in_;
  std::vector<double> walls_;
  std::string first_;
};

}  // namespace

std::unique_ptr<Phase> MakeDse(Run& run, const Inputs& in) {
  return std::make_unique<Dse>(run, in);
}

}  // namespace perfbench
