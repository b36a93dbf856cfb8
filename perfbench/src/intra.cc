// Intra-app parallel simulation: SM and GEMM at full scale, each alone
// through RunAppsParallel(..., kDetailed, 4). With one app and four
// threads the auto policy hands all four workers to the task-graph
// driver, so this phase times the user path to that driver. A serial
// RunSimulation of each app is the identity reference.
#include <string>

#include "bench.h"
#include "stats.h"
#include "swiftsim/parallel.h"
#include "swiftsim/simulator.h"

namespace perfbench {

using swiftsim::Application;
using swiftsim::SimLevel;

namespace {

std::uint64_t MetricOr0(const swiftsim::SimResult& r, const std::string& k) {
  const auto it = r.metrics.find(k);
  return it == r.metrics.end() ? 0 : it->second;
}

/// Samples per app per round.
constexpr int kRepsPerStep = 2;

class Intra : public Phase {
 public:
  Intra(Run& run, const Inputs& in)
      : run_(run), in_(in), walls_(in.intra.size()), instrs_(in.intra.size()) {
    // The identity references; the traced run also reports their time.
    for (const Application& app : in.intra) {
      batches_.push_back({app});
      ScopedSpan span(run.tracer, "RunSimulation.serial", Tracer::kNone,
                      app.name);
      const std::int64_t a = NowNs();
      serial_cycles_.push_back(
          swiftsim::RunSimulation(app, run.gpu, SimLevel::kDetailed)
              .total_cycles);
      serial_s_ += static_cast<double>(NowNs() - a) * 1e-9;
      ++run.attempted;
    }
  }

  void Step() override {
    for (int rep = 0; rep < kRepsPerStep; ++rep) {
      for (std::size_t i = 0; i < batches_.size(); ++i) {
        Sample(i, nullptr, Tracer::kNone);
      }
    }
  }

  void Report() override {
    run_.Set("intra4_kips", Kips(), "kinstr/s");
  }

  void Traced() override {
    ScopedSpan phase(run_.tracer, "phase.intra");
    double wall = 0;
    std::uint64_t rounds = 0, steals = 0;
    for (std::size_t i = 0; i < batches_.size(); ++i) {
      const swiftsim::SimResult r = Sample(i, run_.tracer, phase.id());
      wall += walls_[i].back();
      rounds += MetricOr0(r, "driver.tg_rounds");
      steals += MetricOr0(r, "driver.tg_steals");
    }
    run_.Set("intra.serial_s", serial_s_, "s");
    run_.Set("intra.wall_s", wall, "s");
    run_.Set("intra.speedup", serial_s_ / wall, "x");
    run_.Set("intra.tg_rounds", static_cast<double>(rounds), "count");
    run_.Set("intra.tg_steals", static_cast<double>(steals), "count");
  }

 private:
  /// One timed 4-worker run of app i, under a span when `tracer` is set.
  swiftsim::SimResult Sample(std::size_t i, Tracer* tracer,
                             Tracer::Id parent) {
    const std::int64_t a = NowNs();
    swiftsim::ParallelBatchResult b;
    {
      ScopedSpan span(tracer, "RunAppsParallel", parent, in_.intra[i].name);
      b = swiftsim::RunAppsParallel(batches_[i], run_.gpu, SimLevel::kDetailed,
                                    kThreads);
    }
    walls_[i].push_back(static_cast<double>(NowNs() - a) * 1e-9);
    ++run_.attempted;
    swiftsim::SimResult r = std::move(b.results.at(0));
    instrs_[i] = r.instructions;
    run_.Check(r.total_cycles == serial_cycles_[i],
               in_.intra[i].name + ": " + std::to_string(kThreads) +
                   "-worker run took " + std::to_string(r.total_cycles) +
                   " cycles, serial " + std::to_string(serial_cycles_[i]));
    return r;
  }

  double Kips() const {
    double wall = 0, instr = 0;
    for (std::size_t i = 0; i < walls_.size(); ++i) {
      wall += Median(walls_[i]);
      instr += static_cast<double>(instrs_[i]);
    }
    return instr / wall / 1e3;
  }

  Run& run_;
  const Inputs& in_;
  std::vector<std::vector<Application>> batches_;
  std::vector<swiftsim::Cycle> serial_cycles_;
  double serial_s_ = 0;
  std::vector<std::vector<double>> walls_;
  std::vector<std::uint64_t> instrs_;
};

}  // namespace

std::unique_ptr<Phase> MakeIntra(Run& run, const Inputs& in) {
  return std::make_unique<Intra>(run, in);
}

}  // namespace perfbench
