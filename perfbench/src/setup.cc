// Set-up: trace generation for every phase, the DSE grid, thread-pool
// start and service construction. main() repeats it and reports the
// median as setup_s, so work moved into trace build shows up there.
#include "bench.h"
#include "common/thread_pool.h"
#include "config/sweep_spec.h"
#include "trace/fingerprint.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

/// Compute-bound, streaming and irregular apps (the Fig. 4 mix); BFS and
/// PAGERANK have the long idle spans where cycle skipping acts.
const char* const kLadderApps[] = {"GEMM",     "SM",      "BFS",
                                   "PAGERANK", "HOTSPOT", "NW"};
/// The two apps the intra-app task-graph driver is measured on.
const char* const kIntraApps[] = {"SM", "GEMM"};
/// Irregular apps whose iterative launches exercise memo and pre-pass
/// sharing across DSE points.
const char* const kDseApps[] = {"BFS", "SSSP"};
constexpr std::size_t kDsePoints = 64;

/// The DSE grid: scheduler policy, cache geometry and replacement, chip
/// shape and DRAM timing (216 combinations, thinned to 64 points).
swiftsim::SweepSpec DseSpec() {
  swiftsim::SweepSpec spec;
  spec.AddAxis("core.sched_policy", {"gto", "lrr", "two_level"});
  spec.AddAxis("l1.size_bytes", {"32768", "65536", "131072"});
  spec.AddAxis("l1.replacement", {"lru", "fifo", "random"});
  spec.AddAxis("l2.size_bytes", {"131072", "262144"});
  spec.AddAxis("gpu.num_sms", {"34", "68"});
  spec.AddAxis("dram.latency", {"160", "227"});
  return spec;
}

}  // namespace

void BuildInputs(Run& run, Inputs* in) {
  Tracer* tr = run.tracer;
  ScopedSpan phase(tr, "phase.setup");
  auto build = [&](const char* name, double scale) {
    swiftsim::Application app;
    {
      ScopedSpan span(tr, "BuildWorkload", phase.id(), name);
      app = swiftsim::BuildWorkload(name, {scale, run.seed});
    }
    if (tr != nullptr) {
      ScopedSpan span(tr, "FingerprintApplication", phase.id(), name);
      swiftsim::FingerprintApplication(app);
    }
    return app;
  };
  for (const char* name : kLadderApps) {
    in->ladder.push_back(build(name, kLadderScale));
  }
  for (const char* name : kIntraApps) {
    in->intra.push_back(build(name, kIntraScale));
  }
  for (const char* name : kDseApps) in->dse.push_back(build(name, kDseScale));
  in->dse_points = DseSpec().ExpandCapped(run.gpu, kDsePoints).points;

  swiftsim::ThreadPool::Shared().EnsureWorkers(kThreads);
  swiftsim::service::ServiceOptions opt;
  opt.threads = kThreads;  // trace_cache_dir stays empty: no on-disk cache
  in->service = std::make_unique<swiftsim::service::SimulationService>(opt);
}

}  // namespace perfbench
