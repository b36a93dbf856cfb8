// In-memory span recorder for the traced run. Spans are kept in memory
// (name, start, end, parent span, request id) and written once at exit as
// Chrome trace-event JSON. Per-layer self time is each span's duration
// minus the part its child spans cover (stats.h SelfTime).
//
// A null Tracer* means "untraced": ScopedSpan is then a no-op, so the
// end-to-end run takes no clock reads on behalf of tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the process-wide time base of every
/// span and every open-loop due time).
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0;

  struct Span {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = -1;  // -1 while open
    Id parent = kNone;
    std::string req;  // request id; "" outside the service
    std::uint32_t tid = 0;
  };

  /// Opens a span starting now; returns its id.
  Id Begin(const std::string& name, Id parent = kNone,
           const std::string& req = "");
  /// Closes span `id` now.
  void End(Id id);
  /// Records an already-measured span.
  Id Record(const std::string& name, std::int64_t start, std::int64_t end,
            Id parent = kNone, const std::string& req = "");

  /// Sum over closed spans named `name` of their self time, in seconds.
  double SelfSeconds(const std::string& name) const;
  /// Self time in seconds of every span name.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Writes every closed span as a Chrome trace-event "X" event, with
  /// `metadata_json` (an already-serialized object) under "metadata".
  /// Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata_json) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // span id = index + 1
};

/// RAII span; does nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             Tracer::Id parent = Tracer::kNone, const std::string& req = "")
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, req) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  Tracer::Id id() const { return id_; }

 private:
  Tracer* tracer_;
  Tracer::Id id_;
};

}  // namespace perfbench
