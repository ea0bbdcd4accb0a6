// Unit tests: feature schema (Tables 4/5), extraction windows, equal-
// frequency discretization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "features/discretize.h"
#include "features/extract.h"
#include "features/schema.h"
#include "sim/rng.h"

namespace xfa {
namespace {

TEST(Schema, PaperFeatureCounts) {
  const FeatureSchema schema = FeatureSchema::standard();
  // (6 types x 4 directions - 2 excluded) x 3 periods x 2 stats = 132.
  EXPECT_EQ(schema.traffic_specs().size(), 132u);
  // + time + velocity + 5 route-event counts + total change + avg length.
  EXPECT_EQ(schema.size(), 141u);
  // Time is excluded from classification.
  EXPECT_EQ(schema.classifiable_columns().size(), 140u);
}

TEST(Schema, ExcludesDataForwardedAndDropped) {
  const FeatureSchema schema = FeatureSchema::standard();
  for (const TrafficFeatureSpec& spec : schema.traffic_specs()) {
    if (spec.type == AuditPacketType::Data) {
      EXPECT_NE(spec.dir, FlowDirection::Forwarded);
      EXPECT_NE(spec.dir, FlowDirection::Dropped);
    }
  }
}

TEST(Schema, NamesAreUnique) {
  const FeatureSchema schema = FeatureSchema::standard();
  std::set<std::string> names(schema.names().begin(), schema.names().end());
  EXPECT_EQ(names.size(), schema.size());
}

TEST(Schema, PaperEncodingExample) {
  // "<2,0,0,1>": stddev of inter-packet intervals of received RREQs / 5 s.
  TrafficFeatureSpec spec;
  spec.type = AuditPacketType::RouteRequest;
  spec.dir = FlowDirection::Received;
  spec.period = 5.0;
  spec.stat = TrafficStat::IatStdDev;
  EXPECT_EQ(spec.encode(), "<2,0,0,1>");
}

TEST(Schema, RestrictedPeriods) {
  const FeatureSchema schema = FeatureSchema::with_periods({5.0});
  EXPECT_EQ(schema.traffic_specs().size(), 44u);  // 22 streams x 1 period x 2
}

TEST(WindowStats, CountInWindow) {
  const std::vector<SimTime> times = {1, 2, 3, 7, 8, 20};
  EXPECT_EQ(count_in_window(times, 5.0, 5.0), 3u);   // (0,5]: 1,2,3
  EXPECT_EQ(count_in_window(times, 8.0, 5.0), 2u);   // (3,8]: 7,8
  EXPECT_EQ(count_in_window(times, 20.0, 5.0), 1u);  // (15,20]: 20
  EXPECT_EQ(count_in_window(times, 100.0, 5.0), 0u);
  EXPECT_EQ(count_in_window(times, 20.0, 100.0), 6u);
}

TEST(WindowStats, IatStdDevBasics) {
  // Evenly spaced events: stddev of intervals = 0.
  const std::vector<SimTime> even = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(iat_stddev_in_window(even, 5.0, 5.0), 0.0);
  // Fewer than two intervals: 0 by convention.
  const std::vector<SimTime> sparse = {1, 4};
  EXPECT_DOUBLE_EQ(iat_stddev_in_window(sparse, 5.0, 5.0), 0.0);
  // Intervals {1, 3}: mean 2, population stddev 1.
  const std::vector<SimTime> uneven = {1, 2, 5};
  EXPECT_DOUBLE_EQ(iat_stddev_in_window(uneven, 5.0, 5.0), 1.0);
}

TEST(WindowStats, WindowBoundariesAreHalfOpen) {
  const std::vector<SimTime> times = {5.0, 10.0};
  // (5, 10]: only the event at 10.
  EXPECT_EQ(count_in_window(times, 10.0, 5.0), 1u);
}

TEST(Extractor, ProducesOneRowPerSample) {
  const FeatureSchema schema = FeatureSchema::standard();
  FeatureExtractor extractor(schema, 5.0);
  AuditLog audit;
  SampledNodeState state;
  const std::size_t samples = extractor.sample_count(100.0);
  EXPECT_EQ(samples, 20u);
  state.velocity.assign(samples, 1.5);
  state.average_route_len.assign(samples, 2.5);
  const RawTrace trace = extractor.extract(audit, state, 100.0);
  ASSERT_EQ(trace.size(), 20u);
  EXPECT_DOUBLE_EQ(trace.times.front(), 5.0);
  EXPECT_DOUBLE_EQ(trace.times.back(), 100.0);
  EXPECT_EQ(trace.rows.front().size(), schema.size());
  EXPECT_DOUBLE_EQ(trace.rows[0][schema.velocity_column()], 1.5);
  EXPECT_DOUBLE_EQ(trace.rows[0][schema.average_route_length_column()], 2.5);
}

TEST(Extractor, CountsPacketsInCorrectWindows) {
  const FeatureSchema schema = FeatureSchema::standard();
  FeatureExtractor extractor(schema, 5.0);
  AuditLog audit;
  // 3 data packets sent in the first window, 1 in the second.
  audit.record_packet(1.0, AuditPacketType::Data, FlowDirection::Sent);
  audit.record_packet(2.0, AuditPacketType::Data, FlowDirection::Sent);
  audit.record_packet(4.5, AuditPacketType::Data, FlowDirection::Sent);
  audit.record_packet(7.0, AuditPacketType::Data, FlowDirection::Sent);
  SampledNodeState state;
  state.velocity.assign(2, 0);
  state.average_route_len.assign(2, 0);
  const RawTrace trace = extractor.extract(audit, state, 10.0);

  // Find the data/sent/5s/count column.
  std::size_t column = schema.traffic_base_column();
  for (const TrafficFeatureSpec& spec : schema.traffic_specs()) {
    if (spec.type == AuditPacketType::Data &&
        spec.dir == FlowDirection::Sent && spec.period == 5.0 &&
        spec.stat == TrafficStat::Count)
      break;
    ++column;
  }
  EXPECT_DOUBLE_EQ(trace.rows[0][column], 3.0);
  EXPECT_DOUBLE_EQ(trace.rows[1][column], 1.0);
}

TEST(Extractor, RouteEventCountsAndTotalChange) {
  const FeatureSchema schema = FeatureSchema::standard();
  FeatureExtractor extractor(schema, 5.0);
  AuditLog audit;
  audit.record_route_event(1.0, RouteEventKind::Add);
  audit.record_route_event(2.0, RouteEventKind::Add);
  audit.record_route_event(3.0, RouteEventKind::Remove);
  audit.record_route_event(8.0, RouteEventKind::Find);
  SampledNodeState state;
  state.velocity.assign(2, 0);
  state.average_route_len.assign(2, 0);
  const RawTrace trace = extractor.extract(audit, state, 10.0);
  EXPECT_DOUBLE_EQ(
      trace.rows[0][schema.route_event_column(RouteEventKind::Add)], 2.0);
  EXPECT_DOUBLE_EQ(
      trace.rows[0][schema.route_event_column(RouteEventKind::Remove)], 1.0);
  EXPECT_DOUBLE_EQ(trace.rows[0][schema.total_route_change_column()], 3.0);
  EXPECT_DOUBLE_EQ(
      trace.rows[1][schema.route_event_column(RouteEventKind::Find)], 1.0);
  EXPECT_DOUBLE_EQ(trace.rows[1][schema.total_route_change_column()], 0.0);
}

TEST(Extractor, ControlPacketsAppearInRouteAllColumns) {
  const FeatureSchema schema = FeatureSchema::standard();
  FeatureExtractor extractor(schema, 5.0);
  AuditLog audit;
  audit.record_packet(1.0, AuditPacketType::RouteRequest,
                      FlowDirection::Received);
  audit.record_packet(2.0, AuditPacketType::RouteReply,
                      FlowDirection::Received);
  SampledNodeState state;
  state.velocity.assign(1, 0);
  state.average_route_len.assign(1, 0);
  const RawTrace trace = extractor.extract(audit, state, 5.0);

  const auto column_of = [&](AuditPacketType type, FlowDirection dir) {
    std::size_t column = schema.traffic_base_column();
    for (const TrafficFeatureSpec& spec : schema.traffic_specs()) {
      if (spec.type == type && spec.dir == dir && spec.period == 5.0 &&
          spec.stat == TrafficStat::Count)
        return column;
      ++column;
    }
    return std::size_t{0};
  };
  EXPECT_DOUBLE_EQ(
      trace.rows[0][column_of(AuditPacketType::RouteAll,
                              FlowDirection::Received)],
      2.0);
  EXPECT_DOUBLE_EQ(
      trace.rows[0][column_of(AuditPacketType::RouteRequest,
                              FlowDirection::Received)],
      1.0);
}

TEST(Extractor, LongPeriodWindowsSpanMultipleSamples) {
  const FeatureSchema schema = FeatureSchema::standard();
  FeatureExtractor extractor(schema, 5.0);
  AuditLog audit;
  // One packet at t=2: it stays inside the trailing 60s window for all
  // twelve 5-second samples.
  audit.record_packet(2.0, AuditPacketType::Data, FlowDirection::Sent);
  SampledNodeState state;
  const std::size_t samples = extractor.sample_count(60.0);
  state.velocity.assign(samples, 0);
  state.average_route_len.assign(samples, 0);
  const RawTrace trace = extractor.extract(audit, state, 60.0);

  std::size_t column = schema.traffic_base_column();
  for (const TrafficFeatureSpec& spec : schema.traffic_specs()) {
    if (spec.type == AuditPacketType::Data &&
        spec.dir == FlowDirection::Sent && spec.period == 60.0 &&
        spec.stat == TrafficStat::Count)
      break;
    ++column;
  }
  for (std::size_t i = 0; i < samples; ++i)
    EXPECT_DOUBLE_EQ(trace.rows[i][column], 1.0) << "sample " << i;
}

TEST(Discretizer, EqualFrequencyOnUniformData) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 100; ++i)
    rows.push_back({static_cast<double>(i)});
  EqualFrequencyDiscretizer discretizer(5, /*min_relative_gap=*/0);
  discretizer.fit(rows);
  EXPECT_EQ(discretizer.cardinality(0), 5);
  // Buckets should be roughly equally populated.
  std::vector<int> counts(5, 0);
  for (const auto& row : rows)
    ++counts[static_cast<std::size_t>(
        discretizer.transform_value(0, row[0]))];
  for (const int c : counts) {
    EXPECT_GE(c, 15);
    EXPECT_LE(c, 25);
  }
}

TEST(Discretizer, ConstantColumnCollapsesToOneBucket) {
  std::vector<std::vector<double>> rows(50, {3.14});
  EqualFrequencyDiscretizer discretizer(5);
  discretizer.fit(rows);
  EXPECT_EQ(discretizer.cardinality(0), 1);
  EXPECT_EQ(discretizer.transform_value(0, 3.14), 0);
  EXPECT_EQ(discretizer.transform_value(0, 100.0), 0);
}

TEST(Discretizer, MostlyZeroColumn) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 90; ++i) rows.push_back({0.0});
  for (int i = 0; i < 10; ++i) rows.push_back({5.0 + i});
  EqualFrequencyDiscretizer discretizer(5, 0);
  discretizer.fit(rows);
  // Zeros all land in bucket 0; large values in a higher bucket.
  EXPECT_EQ(discretizer.transform_value(0, 0.0), 0);
  EXPECT_GT(discretizer.transform_value(0, 12.0), 0);
}

TEST(Discretizer, MinRelativeGapCollapsesTightClusters) {
  // Values clustered at 2.0 +- 2%: quantile cuts would be noise.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 100; ++i)
    rows.push_back({2.0 + 0.04 * (i % 11 - 5) / 5.0});
  EqualFrequencyDiscretizer tight(5, /*min_relative_gap=*/0.25);
  tight.fit(rows);
  EXPECT_LE(tight.cardinality(0), 2);
  EqualFrequencyDiscretizer loose(5, 0.0);
  loose.fit(rows);
  EXPECT_GE(loose.cardinality(0), 3);
}

TEST(Discretizer, TransformTraceKeepsShape) {
  RawTrace trace;
  trace.times = {5, 10, 15};
  trace.rows = {{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  trace.labels = {0, 0, 1};
  EqualFrequencyDiscretizer discretizer(3, 0);
  discretizer.fit(trace.rows);
  const DiscreteTrace discrete = discretizer.transform(trace);
  EXPECT_EQ(discrete.size(), 3u);
  EXPECT_EQ(discrete.columns(), 2u);
  EXPECT_EQ(discrete.labels, trace.labels);
  for (const auto& row : discrete.rows)
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_GE(row[c], 0);
      EXPECT_LT(row[c], discrete.cardinality[c]);
    }
}

TEST(Discretizer, MonotoneMapping) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 200; ++i)
    rows.push_back({static_cast<double>(i % 37)});
  EqualFrequencyDiscretizer discretizer(5, 0);
  discretizer.fit(rows);
  int last = -1;
  for (double v = -5; v < 45; v += 0.5) {
    const int bucket = discretizer.transform_value(0, v);
    EXPECT_GE(bucket, last);
    last = bucket;
  }
}

// Property sweep over bucket counts.
class DiscretizerParamTest : public ::testing::TestWithParam<int> {};

TEST_P(DiscretizerParamTest, CardinalityNeverExceedsRequested) {
  const int buckets = GetParam();
  std::vector<std::vector<double>> rows;
  Rng rng(13);
  for (int i = 0; i < 300; ++i)
    rows.push_back({rng.uniform(0, 100), rng.exponential(3.0),
                    static_cast<double>(rng.uniform_int(4))});
  EqualFrequencyDiscretizer discretizer(buckets, 0);
  discretizer.fit(rows);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_GE(discretizer.cardinality(c), 1);
    EXPECT_LE(discretizer.cardinality(c), buckets);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DiscretizerParamTest,
                         ::testing::Values(2, 3, 5, 8, 16));

// -- Branchless transform vs a lower_bound reference ------------------------

/// The per-column cut points: each column's row prefix of the flat table,
/// without the +inf padding the transform searches past.
std::vector<std::vector<double>> fitted_cuts(
    const EqualFrequencyDiscretizer& discretizer) {
  std::vector<std::vector<double>> cuts(discretizer.columns());
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const std::span<const double> column = discretizer.cuts(c);
    cuts[c].assign(column.begin(), column.end());
  }
  return cuts;
}

int lower_bound_bucket(const std::vector<double>& cuts, double value) {
  return static_cast<int>(std::lower_bound(cuts.begin(), cuts.end(), value) -
                          cuts.begin());
}

/// Every cut, its neighbours, NaN, both infinities, signed zeros, the
/// extremes of double and values below the minimum and above the maximum.
std::vector<double> probes(const std::vector<double>& cuts) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> out = {std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             kInf,
                             -kInf,
                             0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::lowest(),
                             std::numeric_limits<double>::max(),
                             -1e6,
                             1e6};
  for (const double cut : cuts) {
    out.push_back(cut);
    out.push_back(std::nextafter(cut, -kInf));
    out.push_back(std::nextafter(cut, kInf));
  }
  return out;
}

void expect_matches_lower_bound(const EqualFrequencyDiscretizer& discretizer) {
  const std::vector<std::vector<double>> cuts = fitted_cuts(discretizer);
  ASSERT_EQ(cuts.size(), discretizer.columns());
  std::size_t widest = 0;
  for (const std::vector<double>& column : cuts)
    widest = std::max(widest, probes(column).size());
  // One trace whose column c walks column c's probes (cycled), scored by
  // transform_value, transform and transform_rows alike.
  RawTrace trace;
  for (std::size_t r = 0; r < widest; ++r) {
    std::vector<double> row(cuts.size());
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      const std::vector<double> column = probes(cuts[c]);
      row[c] = column[r % column.size()];
    }
    trace.times.push_back(static_cast<double>(r));
    trace.rows.push_back(std::move(row));
    trace.labels.push_back(0);
  }
  const DiscreteTrace rows = discretizer.transform(trace);
  std::vector<std::int32_t> columns(trace.rows.size() * cuts.size());
  discretizer.transform_rows(trace, 0, trace.rows.size(), columns.data(),
                             trace.rows.size());
  // A block from the middle of the trace lands at its own offsets.
  constexpr std::size_t kFirst = 3, kCount = 5, kStride = 8;
  std::vector<std::int32_t> block(kStride * cuts.size(), -1);
  discretizer.transform_rows(trace, kFirst, kCount, block.data(), kStride);
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    for (std::size_t r = 0; r < kStride; ++r) {
      EXPECT_EQ(block[c * kStride + r],
                r < kCount ? columns[c * trace.rows.size() + kFirst + r] : -1);
    }
  }
  for (std::size_t r = 0; r < trace.rows.size(); ++r) {
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      const double value = trace.rows[r][c];
      const int want = lower_bound_bucket(cuts[c], value);
      EXPECT_EQ(discretizer.transform_value(c, value), want)
          << "column " << c << " value " << value;
      EXPECT_EQ(rows.rows[r][c], want) << "column " << c << " value " << value;
      EXPECT_EQ(columns[c * trace.rows.size() + r], want)
          << "column " << c << " value " << value;
    }
  }
}

TEST(DiscretizerBranchless, MatchesLowerBoundOnEdgeValues) {
  // Column 0 spreads over four cuts, column 1 is constant (zero cuts),
  // column 2 is mostly zero (one cut at the minimum), column 3 has two.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({static_cast<double>(i % 97) - 40.0, 3.5,
                    i % 10 == 0 ? 8.0 : 0.0, i % 3 == 0 ? -2.0 : 1e3});
  }
  EqualFrequencyDiscretizer discretizer(5, 0);
  discretizer.fit(rows);
  const std::vector<std::vector<double>> cuts = fitted_cuts(discretizer);
  ASSERT_EQ(cuts.size(), 4u);
  EXPECT_EQ(cuts[0].size(), 4u);
  EXPECT_TRUE(cuts[1].empty());
  EXPECT_EQ(cuts[2].size(), 1u);
  expect_matches_lower_bound(discretizer);
}

TEST(DiscretizerBranchless, AllConstantColumnsMapToBucketZero) {
  EqualFrequencyDiscretizer discretizer(5, 0);
  discretizer.fit({{1.0, -7.0}, {1.0, -7.0}, {1.0, -7.0}});
  EXPECT_EQ(discretizer.cardinality(0), 1);
  EXPECT_EQ(discretizer.cardinality(1), 1);
  expect_matches_lower_bound(discretizer);
}

TEST(DiscretizerBranchless, WidthAndColumnChecksStay) {
  EqualFrequencyDiscretizer discretizer(5, 0);
  discretizer.fit({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  RawTrace narrow;
  narrow.times = {1.0};
  narrow.rows = {{1.0}};
  narrow.labels = {0};
  EXPECT_DEATH(discretizer.transform(narrow), "XFA_CHECK");
  std::int32_t out[2] = {};
  EXPECT_DEATH(discretizer.transform_rows(narrow, 0, 1, out, 1), "XFA_CHECK");
  EXPECT_DEATH(discretizer.transform_rows(narrow, 1, 1, out, 1), "XFA_CHECK");
  EXPECT_DEATH(discretizer.transform_value(2, 0.0), "XFA_CHECK");
}

}  // namespace
}  // namespace xfa
