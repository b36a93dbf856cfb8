// The benchmark's own arithmetic: medians, tail percentiles that refuse
// to report a tail they have not sampled, span self time, and open-loop
// latency measured from each request's due time. Kept free of simulator
// types so the self-test exercises it in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes).
/// Throws std::invalid_argument on an empty input.
double Median(std::vector<double> v);

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. Returns nullopt unless at least `min_beyond`
/// samples lie strictly after the selected rank, so a tail percentile is
/// never read off a handful of samples. `q` is in (0, 1].
std::optional<double> TailPercentile(std::vector<double> v, double q,
                                     std::size_t min_beyond = 10);

/// Smallest sample count for which TailPercentile(q, min_beyond) exists.
std::size_t SamplesNeeded(double q, std::size_t min_beyond = 10);

/// A closed time interval [start, end] in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of a span: its duration minus the part of it covered by the
/// union of its children's intervals. Children may nest, overlap each
/// other, or stick out of the parent; only the covered part inside the
/// parent is subtracted, and each instant is subtracted once.
std::int64_t SelfTime(const Interval& parent, std::vector<Interval> children);

/// Due time of request `i` of an open-loop schedule that sends at a fixed
/// `rate_per_s` from `start_ns`. The schedule never waits for replies.
std::int64_t DueNs(std::int64_t start_ns, std::size_t i, double rate_per_s);

/// Open-loop latency: completion time minus the time the request was due
/// to be sent, so a stall in the generator or the system is charged to
/// every request scheduled behind it. Returns seconds.
double LatencyFromDue(std::int64_t due_ns, std::int64_t done_ns);

}  // namespace perfbench
