/**
 * @file test_common.cc
 * Unit and property tests for src/common: units, checks, RNG, math
 * helpers, Pareto utilities, and table rendering.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include <algorithm>
#include <limits>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/histogram.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/math_util.h"
#include "common/pareto.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"
#include "tests/testing/test_support.h"

namespace rago {
namespace {

TEST(Units, DecimalAndBinaryMultipliers) {
  EXPECT_DOUBLE_EQ(kKilo, 1e3);
  EXPECT_DOUBLE_EQ(kGiga, 1e9);
  EXPECT_DOUBLE_EQ(kTera, 1e12);
  EXPECT_DOUBLE_EQ(kKiB, 1024.0);
  EXPECT_DOUBLE_EQ(kGiB, 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(kTiB, 1024.0 * kGiB);
}

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(ToMillis(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(ToMicros(0.001), 1000.0);
}

TEST(Histogram, PercentilesUseNearestRankConvention) {
  // The convention the serving DES has always used for p99:
  // sorted[(size_t)(p * (n - 1))]. Insertion order must not matter.
  Histogram hist;
  for (double v : {5.0, 1.0, 4.0, 2.0, 3.0}) {
    hist.Add(v);
  }
  EXPECT_EQ(hist.count(), 5);
  EXPECT_DOUBLE_EQ(hist.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), 4.0);  // floor(0.99 * 4) = 3.
  EXPECT_DOUBLE_EQ(hist.Percentile(1.0), 5.0);
  // Adding after a percentile query re-sorts correctly.
  hist.Add(0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.Mean(), 2.5);
}

TEST(Histogram, EmptyAndInvalidQueries) {
  const Histogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
  Histogram hist;
  hist.Add(1.0);
  EXPECT_THROW(hist.Percentile(-0.1), rago::ConfigError);
  EXPECT_THROW(hist.Percentile(1.5), rago::ConfigError);
}

TEST(Check, RequireThrowsConfigError) {
  EXPECT_THROW(RAGO_REQUIRE(false, "bad config"), ConfigError);
  EXPECT_NO_THROW(RAGO_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsInternalErrorWithLocation) {
  try {
    RAGO_CHECK(false, "invariant broken");
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("invariant broken"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cc"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoundedCoversRangeWithoutBias) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBoundedRejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.NextBounded(0), InternalError);
}

using RngSeeded = rago::testing::SeededTest;

TEST_F(RngSeeded, GaussianMomentsApproximatelyStandard) {
  Rng& rng = this->rng();
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 5), 2);
  EXPECT_EQ(CeilDiv(11, 5), 3);
  EXPECT_EQ(CeilDiv(1, 128), 1);
  EXPECT_EQ(CeilDiv(0, 3), 0);
}

TEST(MathUtil, PowerOfTwoPredicates) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(-4));
  EXPECT_FALSE(IsPowerOfTwo(48));
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo(3), 4);
  EXPECT_EQ(NextPowerOfTwo(64), 64);
  EXPECT_EQ(NextPowerOfTwo(65), 128);
}

TEST(MathUtil, PowersOfTwoInRange) {
  const auto powers = PowersOfTwoInRange(4, 32);
  EXPECT_EQ(powers, (std::vector<int64_t>{4, 8, 16, 32}));
  EXPECT_TRUE(PowersOfTwoInRange(9, 8).empty());
}

TEST(MathUtil, LogSpaceEndpointsAndMonotonicity) {
  const auto values = LogSpace(1.0, 1000.0, 4);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_NEAR(values.front(), 1.0, 1e-9);
  EXPECT_NEAR(values.back(), 1000.0, 1e-6);
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_GT(values[i], values[i - 1]);
  }
}

TEST(MathUtil, RelDiff) {
  EXPECT_NEAR(RelDiff(100.0, 110.0), 10.0 / 110.0, 1e-12);
  EXPECT_DOUBLE_EQ(RelDiff(0.0, 0.0), 0.0);
}

TEST(Pareto, DominanceSemantics) {
  ParetoPoint<int> fast_slow{1.0, 10.0, 0};
  ParetoPoint<int> slow_fast{2.0, 20.0, 0};
  ParetoPoint<int> dominated{2.5, 9.0, 0};
  EXPECT_FALSE(Dominates(fast_slow, slow_fast));
  EXPECT_FALSE(Dominates(slow_fast, fast_slow));
  EXPECT_TRUE(Dominates(fast_slow, dominated));
  EXPECT_TRUE(Dominates(slow_fast, dominated));
  EXPECT_FALSE(Dominates(dominated, dominated));  // No self-dominance.
}

TEST(Pareto, FrontierDropsDominatedKeepsRest) {
  std::vector<ParetoPoint<int>> points = {
      {1.0, 10.0, 1}, {2.0, 20.0, 2}, {1.5, 5.0, 3}, {3.0, 19.0, 4}};
  const auto frontier = ParetoFrontier(points);
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(frontier[0].payload, 1);
  EXPECT_EQ(frontier[1].payload, 2);
  EXPECT_TRUE(IsParetoFrontier(frontier));
}

TEST(Pareto, FrontierSortedByLatency) {
  std::vector<ParetoPoint<int>> points = {
      {5.0, 50.0, 0}, {1.0, 10.0, 0}, {3.0, 30.0, 0}};
  const auto frontier = ParetoFrontier(points);
  ASSERT_EQ(frontier.size(), 3u);
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].latency, frontier[i - 1].latency);
    EXPECT_GT(frontier[i].throughput, frontier[i - 1].throughput);
  }
}

TEST(Pareto, EmptyAndSingleton) {
  std::vector<ParetoPoint<int>> empty;
  EXPECT_TRUE(ParetoFrontier(empty).empty());
  std::vector<ParetoPoint<int>> one = {{1.0, 1.0, 7}};
  const auto frontier = ParetoFrontier(one);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0].payload, 7);
}

/// Property: for random point clouds, the frontier (a) contains no
/// dominated pair and (b) every dropped point is dominated by some
/// frontier point.
class ParetoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParetoPropertyTest, FrontierIsSoundAndComplete) {
  Rng rng(GetParam());
  std::vector<ParetoPoint<size_t>> points;
  const size_t n = 100 + rng.NextBounded(200);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.NextUniform(0.0, 1.0), rng.NextUniform(0.0, 1.0),
                      i});
  }
  const auto frontier = ParetoFrontier(points);
  EXPECT_TRUE(IsParetoFrontier(frontier));
  // Completeness: every input point is dominated by or equal to some
  // frontier point.
  for (const auto& point : points) {
    bool covered = false;
    for (const auto& front : frontier) {
      if (front.payload == point.payload ||
          Dominates(front, point)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "point " << point.payload << " not covered";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(OnlinePareto, AcceptsAndRejectsCorrectly) {
  OnlineParetoFront<int> front;
  EXPECT_TRUE(front.Offer(1.0, 10.0, 1));
  EXPECT_TRUE(front.Offer(2.0, 20.0, 2));      // Better throughput.
  EXPECT_FALSE(front.Offer(2.5, 15.0, 3));     // Dominated by (2, 20).
  EXPECT_FALSE(front.WouldAccept(3.0, 20.0));  // Dominated (tie tput).
  EXPECT_TRUE(front.WouldAccept(0.5, 1.0));    // New low-latency point.
  EXPECT_EQ(front.size(), 2u);
}

TEST(OnlinePareto, EvictsDominatedPredecessors) {
  OnlineParetoFront<int> front;
  front.Offer(1.0, 10.0, 1);
  front.Offer(2.0, 20.0, 2);
  front.Offer(3.0, 30.0, 3);
  // A point that dominates the first two.
  EXPECT_TRUE(front.Offer(0.5, 25.0, 4));
  const auto points = front.Take();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].payload, 4);
  EXPECT_EQ(points[1].payload, 3);
}

TEST(OnlinePareto, IdenticalLatencyKeepsBetterThroughput) {
  OnlineParetoFront<int> front;
  front.Offer(1.0, 10.0, 1);
  EXPECT_TRUE(front.Offer(1.0, 15.0, 2));   // Replaces at same latency.
  EXPECT_FALSE(front.Offer(1.0, 12.0, 3));  // Worse at same latency.
  const auto points = front.Take();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].payload, 2);
}

/// Property: streaming points through OnlineParetoFront yields exactly
/// the frontier the batch algorithm computes.
class OnlineParetoPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(OnlineParetoPropertyTest, MatchesBatchFrontier) {
  Rng rng(GetParam());
  std::vector<ParetoPoint<size_t>> points;
  OnlineParetoFront<size_t> front;
  const size_t n = 200 + rng.NextBounded(200);
  for (size_t i = 0; i < n; ++i) {
    // Discrete grid so exact duplicates occur.
    const double latency = 0.1 * static_cast<double>(rng.NextBounded(20));
    const double throughput =
        0.1 * static_cast<double>(rng.NextBounded(20));
    points.push_back({latency, throughput, i});
    if (front.WouldAccept(latency, throughput)) {
      front.Offer(latency, throughput, i);
    }
  }
  const auto batch = ParetoFrontier(points);
  const auto online = front.Take();
  ASSERT_EQ(online.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(online[i].latency, batch[i].latency);
    EXPECT_DOUBLE_EQ(online[i].throughput, batch[i].throughput);
  }
  EXPECT_TRUE(IsParetoFrontier(online));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineParetoPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(OnlinePareto, AllTiesKeepPayloadOrderIndependently) {
  // Regression for the parallel-merge duplicate bug: points equal on
  // BOTH objectives used to keep whichever was offered first, so a
  // concurrent merge could report a different duplicate per run. The
  // payload tie-break must pick the smallest payload for every offer
  // permutation.
  std::vector<int> payloads = {4, 1, 3, 2};
  std::sort(payloads.begin(), payloads.end());
  do {
    OnlineParetoFront<int> front;
    for (int payload : payloads) {
      EXPECT_TRUE(front.WouldAccept(1.0, 10.0));
      front.Offer(1.0, 10.0, payload);
    }
    const auto points = front.Take();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].payload, 1) << "offer order leaked into the tie";
  } while (std::next_permutation(payloads.begin(), payloads.end()));
}

TEST(OnlinePareto, TieBreakDoesNotDisturbDominance) {
  OnlineParetoFront<int> front;
  front.Offer(1.0, 10.0, 5);
  front.Offer(1.0, 10.0, 2);   // Tie: payload 2 survives.
  front.Offer(2.0, 20.0, 9);   // Independent frontier point.
  EXPECT_FALSE(front.Offer(1.5, 10.0, 1));  // Dominated, despite payload 1.
  const auto points = front.Take();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].payload, 2);
  EXPECT_EQ(points[1].payload, 9);
}

TEST(OnlinePareto, MergeIsPartitionAndOrderIndependent) {
  // The optimizer merges per-task partial frontiers; any split of the
  // offer stream over any number of fronts, merged in any order, must
  // produce identical points and payloads.
  Rng rng(99);
  std::vector<ParetoPoint<size_t>> stream;
  for (size_t i = 0; i < 300; ++i) {
    stream.push_back({0.1 * static_cast<double>(rng.NextBounded(12)),
                      0.1 * static_cast<double>(rng.NextBounded(12)), i});
  }
  OnlineParetoFront<size_t> serial;
  for (const auto& p : stream) {
    serial.Offer(p.latency, p.throughput, p.payload);
  }
  const auto expected = serial.Take();

  for (size_t parts : {2u, 3u, 7u}) {
    std::vector<OnlineParetoFront<size_t>> partial(parts);
    for (size_t i = 0; i < stream.size(); ++i) {
      partial[i % parts].Offer(stream[i].latency, stream[i].throughput,
                               stream[i].payload);
    }
    // Merge back-to-front to stress order independence.
    OnlineParetoFront<size_t> merged;
    for (size_t p = parts; p-- > 0;) {
      merged.Merge(std::move(partial[p]));
    }
    const auto actual = merged.Take();
    ASSERT_EQ(actual.size(), expected.size()) << parts << " parts";
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].latency, expected[i].latency);
      EXPECT_EQ(actual[i].throughput, expected[i].throughput);
      EXPECT_EQ(actual[i].payload, expected[i].payload);
    }
  }
}

/// Minimal JSON well-formedness scan: balanced containers outside
/// strings and none of the bare non-finite tokens JSON forbids.
void ExpectParseableJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  std::string outside_strings;  // Structure + literals, strings elided.
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    outside_strings += c;
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  for (const char* token : {"nan", "inf"}) {
    EXPECT_EQ(outside_strings.find(token), std::string::npos)
        << "bare non-finite token in: " << json;
  }
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  // Infeasible schedules carry latency = inf; `--json` output must stay
  // valid JSON (which has no inf/nan literals) by emitting null.
  JsonWriter json;
  json.BeginObject()
      .Key("inf").Number(std::numeric_limits<double>::infinity())
      .Key("neg_inf").Number(-std::numeric_limits<double>::infinity())
      .Key("nan").Number(std::numeric_limits<double>::quiet_NaN())
      .Key("finite").Number(1.5)
      .Key("mixed").BeginArray()
          .Number(std::numeric_limits<double>::quiet_NaN())
          .Number(2.0)
      .EndArray()
      .EndObject();
  EXPECT_EQ(json.str(),
            "{\"inf\":null,\"neg_inf\":null,\"nan\":null,"
            "\"finite\":1.5,\"mixed\":[null,2]}");
  ExpectParseableJson(json.str());
}

TEST(JsonWriter, RoundTripStaysParseable) {
  JsonWriter json;
  json.BeginObject()
      .Key("name").String("fig\"15\"\n")
      .Key("values").BeginArray();
  for (double v : {1e-9, 3.14159, 1e308,
                   std::numeric_limits<double>::infinity()}) {
    json.Number(v);
  }
  json.EndArray()
      .Key("count").Int(42)
      .Key("ok").Bool(true)
      .EndObject();
  ExpectParseableJson(json.str());
  EXPECT_NE(json.str().find("null"), std::string::npos);
}

TEST(Table, RendersAlignedColumnsWithHeader) {
  TextTable table("Title");
  table.SetHeader({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"long-name", "2.5"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| long-name"), std::string::npos);
}

TEST(Table, CsvOutput) {
  TextTable table;
  table.SetHeader({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsSignificantDigits) {
  EXPECT_EQ(TextTable::Num(3.14159, 3), "3.14");
  EXPECT_EQ(TextTable::Num(1234.5, 5), "1234.5");
}

// ---------------------------------------------------------------------------
// Streaming histograms (common/metrics.h)
// ---------------------------------------------------------------------------

TEST(StreamingHistogram, QuantilesAgreeWithExactWithinOneBinRatio) {
  // The bin midpoint convention bounds the quantile error by one bin
  // ratio, 10^(1/kBinsPerDecade); p=0/p=1 are exact (clamped to the
  // tracked extremes).
  Rng rng(29);
  Histogram exact;
  StreamingHistogram streaming;
  const double bin_ratio =
      std::pow(10.0, 1.0 / StreamingHistogram::kBinsPerDecade);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~5 decades inside the regular bin range.
    const double value = std::pow(10.0, rng.NextUniform(-4.0, 1.0));
    exact.Add(value);
    streaming.Add(value);
  }
  EXPECT_EQ(streaming.count(), 20000);
  EXPECT_EQ(streaming.underflow(), 0);
  EXPECT_EQ(streaming.overflow(), 0);
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double approx = streaming.Quantile(p);
    const double truth = exact.Percentile(p);
    EXPECT_LE(approx, truth * bin_ratio) << "p=" << p;
    EXPECT_GE(approx, truth / bin_ratio) << "p=" << p;
  }
  // Mean and extremes are tracked exactly, not from bins.
  EXPECT_DOUBLE_EQ(streaming.Mean(), exact.Mean());
}

TEST(StreamingHistogram, MergeIsAssociativeAndCommutative) {
  Rng rng(31);
  std::vector<std::vector<double>> parts(3);
  for (size_t part = 0; part < parts.size(); ++part) {
    for (int i = 0; i < 500; ++i) {
      parts[part].push_back(std::pow(10.0, rng.NextUniform(-5.0, 3.0)));
    }
  }
  auto fill = [&parts](std::initializer_list<int> order) {
    StreamingHistogram merged;
    for (int part : order) {
      StreamingHistogram h;
      for (double v : parts[static_cast<size_t>(part)]) {
        h.Add(v);
      }
      merged.Merge(h);
    }
    return merged;
  };
  const StreamingHistogram abc = fill({0, 1, 2});
  const StreamingHistogram cba = fill({2, 1, 0});
  const StreamingHistogram bca = fill({1, 2, 0});
  ASSERT_EQ(abc.count(), 1500);
  for (const StreamingHistogram* other : {&cba, &bca}) {
    EXPECT_EQ(abc.count(), other->count());
    EXPECT_DOUBLE_EQ(abc.Min(), other->Min());
    EXPECT_DOUBLE_EQ(abc.Max(), other->Max());
    ASSERT_EQ(abc.num_bins(), other->num_bins());
    for (size_t bin = 0; bin < abc.num_bins(); ++bin) {
      EXPECT_EQ(abc.bin_count(bin), other->bin_count(bin)) << bin;
    }
    for (double p : {0.25, 0.5, 0.99}) {
      EXPECT_DOUBLE_EQ(abc.Quantile(p), other->Quantile(p));
    }
  }
}

TEST(StreamingHistogram, UnderflowOverflowAndNonFiniteLandInEdgeBins) {
  StreamingHistogram hist;
  const double min = StreamingHistogram::kMinValue;
  const double max = StreamingHistogram::kMaxValue;
  hist.Add(0.0);                // Below kMinValue.
  hist.Add(-3.0);               // Negative.
  hist.Add(std::nan(""));       // NaN: fails every range check.
  hist.Add(max);                // At the upper edge: overflow.
  hist.Add(max * 10.0);
  hist.Add(min);                // First regular bin.
  EXPECT_EQ(hist.count(), 6);
  EXPECT_EQ(hist.underflow(), 3);
  EXPECT_EQ(hist.overflow(), 2);
  // Quantiles stay inside the exactly-tracked extremes even when edge
  // bins hold samples.
  EXPECT_GE(hist.Quantile(0.5), hist.Min());
  EXPECT_LE(hist.Quantile(0.5), hist.Max());
}

TEST(StreamingHistogram, ZeroSampleEdgeCases) {
  const StreamingHistogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);
  EXPECT_EQ(empty.Min(), 0.0);
  EXPECT_EQ(empty.Max(), 0.0);
  EXPECT_EQ(empty.underflow(), 0);
  EXPECT_EQ(empty.overflow(), 0);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateIsStableAndFindIsConst) {
  MetricsRegistry registry;
  registry.GetCounter("requests").Inc(3);
  registry.GetCounter("requests").Inc(2);
  registry.GetGauge("qps").Set(41.5);
  registry.GetHistogram("ttft").Add(0.25);
  EXPECT_EQ(registry.size(), 3u);
  ASSERT_NE(registry.FindCounter("requests"), nullptr);
  EXPECT_EQ(registry.FindCounter("requests")->value(), 5);
  EXPECT_EQ(registry.FindGauge("qps")->value(), 41.5);
  EXPECT_EQ(registry.FindHistogram("ttft")->count(), 1);
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindGauge("absent"), nullptr);
  EXPECT_EQ(registry.FindHistogram("absent"), nullptr);
  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsRegistry, CounterRejectsNegativeIncrements) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.GetCounter("c").Inc(-1), ConfigError);
}

TEST(MetricsRegistry, JsonEmissionIsNameSortedAndParseable) {
  // Two registries filled in opposite orders must emit byte-identical
  // documents — the determinism contract for telemetry export.
  MetricsRegistry forward;
  forward.GetCounter("a").Inc(1);
  forward.GetCounter("b").Inc(2);
  forward.GetGauge("g").Set(3.0);
  forward.GetHistogram("h").Add(0.5);
  MetricsRegistry backward;
  backward.GetHistogram("h").Add(0.5);
  backward.GetGauge("g").Set(3.0);
  backward.GetCounter("b").Inc(2);
  backward.GetCounter("a").Inc(1);

  auto emit = [](const MetricsRegistry& registry) {
    JsonWriter json;
    registry.WriteJson(json);
    return json.str();
  };
  const std::string doc = emit(forward);
  EXPECT_EQ(doc, emit(backward));

  const JsonValue parsed = JsonValue::Parse(doc);
  EXPECT_EQ(parsed.At("counters").At("a").AsInt(), 1);
  EXPECT_EQ(parsed.At("counters").At("b").AsInt(), 2);
  EXPECT_EQ(parsed.At("gauges").At("g").AsNumber(), 3.0);
  const JsonValue& hist = parsed.At("histograms").At("h");
  EXPECT_EQ(hist.At("count").AsInt(), 1);
  EXPECT_EQ(hist.At("min").AsNumber(), 0.5);
  EXPECT_EQ(hist.At("max").AsNumber(), 0.5);
}

// ---------------------------------------------------------------------------
// JSON reader + the shared bench envelope
// ---------------------------------------------------------------------------

TEST(JsonReader, BenchEnvelopeRoundTripsThroughParser) {
  JsonWriter json = bench::StartBenchJson("round_trip");
  json.Key("rows").Int(42);
  json.Key("ratio").Number(2.5);
  json.Key("ok").Bool(true);
  json.Key("results").BeginArray();
  json.BeginObject().Key("x").Number(1.5).EndObject();
  json.BeginObject().Key("x").Number(-3.25).EndObject();
  json.EndArray();
  bench::FinishBenchJson(json, "");  // Empty path: no file written.

  const JsonValue doc = JsonValue::Parse(json.str());
  EXPECT_EQ(doc.At("schema_version").AsInt(), bench::kBenchJsonSchemaVersion);
  EXPECT_EQ(doc.At("bench").AsString(), "round_trip");
  EXPECT_EQ(doc.At("rows").AsInt(), 42);
  EXPECT_EQ(doc.At("ratio").AsNumber(), 2.5);
  EXPECT_TRUE(doc.At("ok").AsBool());
  const JsonValue& results = doc.At("results");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results.Items()[0].At("x").AsNumber(), 1.5);
  EXPECT_EQ(results.Items()[1].At("x").AsNumber(), -3.25);
  // Members preserve document order: the envelope keys lead.
  EXPECT_EQ(doc.Members()[0].first, "schema_version");
  EXPECT_EQ(doc.Members()[1].first, "bench");
  EXPECT_EQ(doc.Find("absent"), nullptr);
  EXPECT_THROW(doc.At("absent"), ConfigError);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::Parse(""), ConfigError);
  EXPECT_THROW(JsonValue::Parse("{"), ConfigError);
  EXPECT_THROW(JsonValue::Parse("{} trailing"), ConfigError);
  EXPECT_THROW(JsonValue::Parse("{\"a\":1,\"a\":2}"), ConfigError);
  EXPECT_THROW(JsonValue::Parse("[1,]"), ConfigError);
  EXPECT_THROW(JsonValue::Parse("{\"a\" 1}"), ConfigError);
  EXPECT_THROW(JsonValue::Parse("nul"), ConfigError);
}

TEST(JsonReader, NonFiniteWriterOutputParsesAsNull) {
  // json_writer emits non-finite doubles as null (pinned elsewhere);
  // the reader must accept that round-trip.
  JsonWriter json;
  json.BeginObject();
  json.Key("inf").Number(std::numeric_limits<double>::infinity());
  json.Key("nan").Number(std::nan(""));
  json.EndObject();
  const JsonValue doc = JsonValue::Parse(json.str());
  EXPECT_TRUE(doc.At("inf").is_null());
  EXPECT_TRUE(doc.At("nan").is_null());
}

}  // namespace
}  // namespace rago
