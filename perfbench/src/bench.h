// Shared state of one benchmark run and the four phases every workload
// runs: the fidelity ladder, intra-app parallel simulation, the DSE sweep
// and the open-loop service. A workload fixes the simulated GPU; the
// phases and their apps are the same for every workload, so every
// end-to-end metric is measured on every workload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/gpu_config.h"
#include "config/sweep_spec.h"
#include "sim/model_select.h"
#include "swiftsim/service.h"
#include "trace/kernel.h"
#include "tracer.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

/// One benchmark process: options, collected metrics, operation counts
/// and correctness failures.
struct Run {
  std::string workload;  // GPU preset name
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;  // non-null only in the traced run
  swiftsim::GpuConfig gpu;

  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  bool traced() const { return tracer != nullptr; }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Add(const std::string& name, double delta, const std::string& unit) {
    Metric& m = metrics[name];
    m.value += delta;
    m.unit = unit;
  }
  /// Records a correctness failure unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Everything set-up builds; the phases only read it (the service is
/// driven, not rebuilt).
struct Inputs {
  std::vector<swiftsim::Application> ladder;
  std::vector<swiftsim::Application> intra;
  std::vector<swiftsim::Application> dse;
  std::vector<swiftsim::SweepPoint> dse_points;
  std::unique_ptr<swiftsim::service::SimulationService> service;
};

/// Worker budget of every parallel phase (the benchmark host has 4 cores).
inline constexpr unsigned kThreads = 4;
/// Rounds a timed run is sized for: each service window is the service's
/// share of --seconds over kRounds, and the traced run sends kRounds
/// windows.
inline constexpr int kRounds = 3;

/// Workload scales: the paper-figure scale for the ladder, full size for
/// the intra-app driver, and the existing DSE and service bench sizes.
inline constexpr double kLadderScale = 0.35;
inline constexpr double kIntraScale = 1.0;
inline constexpr double kDseScale = 0.1;
inline constexpr double kServiceScale = 0.05;

const char* LevelTag(swiftsim::SimLevel level);

/// Builds every input of the run; records BuildWorkload and
/// FingerprintApplication spans when traced.
void BuildInputs(Run& run, Inputs* in);

/// One phase of a run. The timed run calls Step() once per round and
/// rounds through all phases until --seconds is spent, so every phase
/// samples the whole run rather than one stretch of it (host speed drifts
/// over tens of seconds). The traced run calls Traced() once instead.
class Phase {
 public:
  virtual ~Phase() = default;
  /// One timed sample; checks its outputs.
  virtual void Step() = 0;
  /// Sets the phase's end-to-end metrics from all samples.
  virtual void Report() = 0;
  /// The traced run of the phase; sets its per-layer metrics.
  virtual void Traced() = 0;
};

/// Constructors run the phase's untimed references.
std::unique_ptr<Phase> MakeLadder(Run& run, const Inputs& in);
std::unique_ptr<Phase> MakeIntra(Run& run, const Inputs& in);
std::unique_ptr<Phase> MakeDse(Run& run, const Inputs& in);
/// Each Step() sends requests open-loop for `window_s` seconds.
std::unique_ptr<Phase> MakeService(Run& run, Inputs& in, double window_s);

}  // namespace perfbench
