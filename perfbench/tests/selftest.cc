// Tests of the benchmark's own arithmetic: tail percentiles that need ten
// samples beyond them, span self time under nested and overlapping
// children, and open-loop latency measured from the due time.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

std::vector<double> Shuffled(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(TailPercentile, NeedsTenSamplesBeyondTheRank) {
  EXPECT_EQ(SamplesNeeded(0.95), 200u);
  EXPECT_EQ(SamplesNeeded(0.50), 20u);
  EXPECT_FALSE(TailPercentile(Shuffled(199), 0.95).has_value());
  ASSERT_TRUE(TailPercentile(Shuffled(200), 0.95).has_value());
  // Nearest rank 190 of 1..200: ten samples (191..200) lie beyond it.
  EXPECT_EQ(*TailPercentile(Shuffled(200), 0.95), 190.0);
  EXPECT_FALSE(TailPercentile(Shuffled(19), 0.50).has_value());
  EXPECT_EQ(*TailPercentile(Shuffled(20), 0.50), 10.0);
  EXPECT_EQ(*TailPercentile(Shuffled(1000), 0.99), 990.0);
}

TEST(TailPercentile, RejectsBadQuantile) {
  EXPECT_THROW(TailPercentile({1, 2, 3}, 0.0), std::invalid_argument);
  EXPECT_THROW(TailPercentile({1, 2, 3}, 1.5), std::invalid_argument);
  EXPECT_FALSE(TailPercentile({}, 0.5).has_value());
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(Median({}), std::invalid_argument);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent) {
  const Interval parent{0, 100};
  EXPECT_EQ(SelfTime(parent, {}), 100);
  // Overlapping siblings cover [10, 40] once.
  EXPECT_EQ(SelfTime(parent, {{10, 30}, {20, 40}}), 70);
  // A child nested inside another covers nothing extra.
  EXPECT_EQ(SelfTime(parent, {{45, 70}, {50, 60}}), 75);
  // Only the part inside the parent counts; a disjoint child counts 0.
  EXPECT_EQ(SelfTime(parent, {{90, 120}, {150, 160}, {-20, 5}}), 85);
  // All together, in any order.
  EXPECT_EQ(SelfTime(parent, {{150, 160}, {50, 60}, {20, 40}, {90, 120},
                              {45, 70}, {10, 30}}),
            100 - 30 - 25 - 10);
  // Children covering everything leave no self time.
  EXPECT_EQ(SelfTime(parent, {{0, 60}, {50, 100}}), 0);
}

TEST(SelfTime, TracerAggregatesByName) {
  Tracer t;
  const Tracer::Id root = t.Record("phase", 0, 1000000000);
  t.Record("child", 100000000, 400000000, root);
  t.Record("child", 300000000, 500000000, root);  // overlaps the first
  const Tracer::Id nested = t.Record("outer", 600000000, 900000000, root);
  t.Record("inner", 700000000, 800000000, nested);
  const auto self = t.SelfSecondsByName();
  // 1 s minus the union [0.1, 0.5] + [0.6, 0.9].
  EXPECT_NEAR(self.at("phase"), 0.3, 1e-12);
  EXPECT_NEAR(self.at("child"), 0.5, 1e-12);
  EXPECT_NEAR(self.at("outer"), 0.2, 1e-12);
  EXPECT_NEAR(self.at("inner"), 0.1, 1e-12);
}

TEST(OpenLoop, LatencyFromDueChargesAStallToEveryRequestBehindIt) {
  // 100 requests/s; the consumer stalls for the first 200 ms, then serves
  // one request per millisecond in arrival order.
  constexpr double kRate = 100.0;
  constexpr std::int64_t kMs = 1000000;
  EXPECT_EQ(DueNs(0, 3, kRate), 30 * kMs);
  std::int64_t free_at = 200 * kMs;
  std::vector<double> from_due, from_service_start;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::int64_t due = DueNs(0, i, kRate);
    const std::int64_t begin = std::max(free_at, due);
    const std::int64_t done = begin + kMs;
    free_at = done;
    from_due.push_back(LatencyFromDue(due, done));
    from_service_start.push_back(LatencyFromDue(begin, done));
  }
  // The first request waited out the whole stall.
  EXPECT_NEAR(from_due[0], 0.201, 1e-12);
  // Every request due during the stall is charged its remaining part.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_GE(from_due[i], 0.2 - 0.01 * static_cast<double>(i));
  }
  // After the backlog drains, latency is the 1 ms service time.
  EXPECT_NEAR(from_due.back(), 0.001, 1e-12);
  // Timing from when the consumer took the request hides the stall.
  EXPECT_NEAR(*std::max_element(from_service_start.begin(),
                                from_service_start.end()),
              0.001, 1e-12);
  EXPECT_NEAR(*TailPercentile(from_due, 0.5), 0.021, 1e-9);
}

}  // namespace
}  // namespace perfbench
