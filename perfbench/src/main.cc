// swiftbench: the Swift-Sim benchmark. One process runs one workload
// (a simulated GPU preset) through four phases: the fidelity ladder,
// intra-app parallel simulation, the DSE sweep and the open-loop service.
//
//   swiftbench --workload <preset> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <path>] [--git-sha <sha>] [--git-dirty <0|1>]
//              [--source-digest <hex>]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 is the separate traced run: spans around the calls into each
// layer, the per-layer metrics derived from them, and a Chrome trace-event
// file at --trace-out. The last stdout line is the result object; a failed
// correctness check exits 1 after printing it, and bad usage or an
// exception exits 2 without a result.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "config/presets.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Share of --seconds the service's open-loop windows take; the other
/// phases take fixed-size steps (a ladder pass, two intra-app samples per
/// app, one sweep).
constexpr double kServiceShare = 0.28;
/// Set-up repetitions whose median is setup_s.
constexpr int kSetupReps = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string git_sha = "unknown";
  bool git_dirty = false;
  std::string source_digest = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "swiftbench: %s\nusage: swiftbench --workload <preset> --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--git-sha <sha>] [--git-dirty <0|1>] "
               "[--source-digest <hex>]\n",
               why.c_str());
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        o.trace = std::stoi(v);
      } else if (flag == "--trace-out") {
        o.trace_out = v;
      } else if (flag == "--git-sha") {
        o.git_sha = v;
      } else if (flag == "--git-dirty") {
        o.git_dirty = v == "1";
      } else if (flag == "--source-digest") {
        o.source_digest = v;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value '" + v + "' for " + flag);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  if (o.trace != 0 && o.trace != 1) Usage("--trace must be 0 or 1");
  return o;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string HostJson(const Options& o) {
  swiftsim::JsonWriter w;
  w.BeginObject();
  w.Key("nproc").Uint(std::thread::hardware_concurrency());
  w.Key("cpu").String(CpuModel());
#if defined(__clang__)
  w.Key("compiler").String(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.Key("compiler").String(std::string("gcc ") + __VERSION__);
#else
  w.Key("compiler").String("unknown");
#endif
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("git_sha").String(o.git_sha);
  w.Key("git_dirty").Bool(o.git_dirty);
  w.Key("source_digest").String(o.source_digest);
  w.Key("workload").String(o.workload);
  w.Key("seed").Uint(o.seed);
  w.Key("seconds").Double(o.seconds);
  w.Key("trace").Bool(o.trace == 1);
  w.EndObject();
  return w.str();
}

double PeakRssMb() {
  struct rusage ru = {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ReportTraceLayers(Run& run, const Inputs& in) {
  run.Set("trace.build_s", run.tracer->SelfSeconds("BuildWorkload"), "s");
  run.Set("trace.fingerprint_s",
          run.tracer->SelfSeconds("FingerprintApplication"), "s");
  std::uint64_t bytes = 0, instrs = 0;
  for (const swiftsim::Application& app : in.ladder) {
    for (const auto& kernel : app.kernels) bytes += kernel->TraceBytes();
    instrs += app.TotalInstrs();
  }
  run.Set("trace.bytes_per_instr",
          static_cast<double>(bytes) / static_cast<double>(instrs), "B");
}

int Main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  Tracer tracer;
  Run run;
  run.workload = opt.workload;
  run.seed = opt.seed;
  run.tracer = opt.trace == 1 ? &tracer : nullptr;
  run.gpu = swiftsim::PresetByName(opt.workload);

  // Set-up, repeated; the last repetition's inputs are the ones used. The
  // traced run sets up once, with spans.
  Inputs in;
  std::vector<double> setup;
  for (int rep = 0; rep < (run.traced() ? 1 : kSetupReps); ++rep) {
    in = Inputs{};
    const std::int64_t a = NowNs();
    BuildInputs(run, &in);
    setup.push_back(static_cast<double>(NowNs() - a) * 1e-9);
  }

  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(MakeLadder(run, in));
  phases.push_back(MakeIntra(run, in));
  phases.push_back(MakeDse(run, in));
  phases.push_back(
      MakeService(run, in, opt.seconds * kServiceShare / kRounds));
  if (run.traced()) {
    for (auto& p : phases) p->Traced();
  } else {
    // Rounds through every phase until --seconds is spent, stopping at the
    // round boundary nearest to it.
    const std::int64_t start = NowNs();
    const auto budget_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
    std::int64_t round_ns = 0;
    do {
      const std::int64_t r0 = NowNs();
      for (auto& p : phases) p->Step();
      round_ns = NowNs() - r0;
    } while (NowNs() - start + round_ns / 2 < budget_ns);
    for (auto& p : phases) p->Report();
  }
  in.service->Stop();

  const std::string host = HostJson(opt);
  if (run.traced()) {
    ReportTraceLayers(run, in);
    if (!opt.trace_out.empty() &&
        !tracer.WriteChromeJson(opt.trace_out, host)) {
      run.Check(false, "cannot write trace file " + opt.trace_out);
    }
  } else {
    run.Set("setup_s", Median(setup), "s");
    run.Set("peak_rss_mb", PeakRssMb(), "MB");
  }

  for (const auto& [name, m] : run.metrics) {
    run.Check(std::isfinite(m.value), name + " is not a finite number");
  }
  for (const std::string& e : run.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  swiftsim::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(run.errors.empty());
  w.Key("attempted").Uint(run.attempted);
  w.Key("failed").Uint(run.failed);
  w.Key("metrics").BeginObject();
  for (const auto& [name, m] : run.metrics) {
    // Every digit as measured (JsonWriter::Double keeps nine).
    char value[40];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    w.Key(name).BeginObject();
    w.Key("value").Raw(value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("host: %s\n%s\n", host.c_str(), w.str().c_str());
  std::fflush(stdout);
  return run.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swiftbench: %s\n", e.what());
    return 2;
  }
}
