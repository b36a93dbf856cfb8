#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// 1-based nearest rank of quantile q over n samples.
std::size_t NearestRank(double q, std::size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::max<std::size_t>(1, static_cast<std::size_t>(r));
}

}  // namespace

std::optional<double> TailPercentile(std::vector<double> v, double q,
                                     std::size_t min_beyond) {
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("q not in (0, 1]");
  if (v.empty()) return std::nullopt;
  const std::size_t rank = NearestRank(q, v.size());
  if (v.size() - rank < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

std::size_t SamplesNeeded(double q, std::size_t min_beyond) {
  std::size_t n = 1;
  while (n - NearestRank(q, n) < min_beyond) ++n;
  return n;
}

std::int64_t SelfTime(const Interval& parent, std::vector<Interval> children) {
  std::int64_t covered = 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  // Sweep the clipped children in start order, merging overlaps so each
  // covered instant counts once.
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    const std::int64_t s = std::max(c.start, parent.start);
    const std::int64_t e = std::min(c.end, parent.end);
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end - parent.start) - covered;
}

std::int64_t DueNs(std::int64_t start_ns, std::size_t i, double rate_per_s) {
  return start_ns +
         static_cast<std::int64_t>(std::llround(static_cast<double>(i) * 1e9 /
                                                rate_per_s));
}

double LatencyFromDue(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) * 1e-9;
}

}  // namespace perfbench
