// Feature-selection correctness (DESIGN.md §16): the fused MI ranker must
// reproduce a brute-force oracle bit-for-bit, top-k training must be
// score-equivalent to training on an explicitly reduced column set, results
// must be byte-identical for any pool size, k=all must be bit-identical to
// no selection at all, and a saved selected model must reload into one that
// scores byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cfa/model.h"
#include "exec/thread_pool.h"
#include "features/schema.h"
#include "ml/c45.h"
#include "ml/dataset_view.h"
#include "ml/feature_select.h"
#include "ml/naive_bayes.h"
#include "sim/rng.h"

namespace xfa {
namespace {

ClassifierFactory c45() {
  return [] { return std::make_unique<C45>(); };
}
ClassifierFactory nbc() {
  return [] { return std::make_unique<NaiveBayes>(); };
}

struct PoolGuard {
  ~PoolGuard() { resize_shared_pool(0); }
};

/// A dataset with a planted dependence structure: columns 0-2 are three
/// noisy views of one hidden value (mutually informative), columns 3-5 are
/// independent noise. Any sane ranker must order the correlated block above
/// the noise block.
Dataset structured_dataset(int rows = 240) {
  Dataset data;
  data.cardinality = {4, 4, 4, 4, 4, 4};
  Rng rng(77);
  for (int i = 0; i < rows; ++i) {
    const int hidden = static_cast<int>(rng.uniform_int(4));
    const auto noisy = [&](int value) {
      return rng.uniform_int(10) == 0 ? static_cast<int>(rng.uniform_int(4))
                                      : value;
    };
    data.rows.push_back({noisy(hidden), noisy(hidden), noisy((hidden + 1) % 4),
                         static_cast<int>(rng.uniform_int(4)),
                         static_cast<int>(rng.uniform_int(4)),
                         static_cast<int>(rng.uniform_int(4))});
  }
  return data;
}

FeatureSelectionConfig mi_config(std::size_t top_k, double min_score = 0.0) {
  FeatureSelectionConfig config;
  config.ranker = FeatureRanker::MutualInformation;
  config.top_k = top_k;
  config.min_score = min_score;
  config.max_rank_rows = 0;  // every row: lines up with the oracle exactly
  return config;
}

// --- Ranker correctness ---------------------------------------------------

// The fused ranking pass (joint histograms + memoized log2) must reproduce
// the brute-force pairwise oracle exactly — same doubles, no epsilon.
TEST(FeatSel, MiRankerMatchesBruteForceOracle) {
  const Dataset data = structured_dataset();
  const DatasetView view(data);
  const std::vector<std::size_t> candidates = {0, 1, 2, 3, 4, 5};

  const FeatureRanking ranking =
      rank_features(view, candidates, mi_config(0), c45());
  ASSERT_EQ(ranking.ranked.size(), candidates.size());

  for (const RankedFeature& feature : ranking.ranked) {
    double total = 0;
    for (const std::size_t other : candidates) {
      if (other == feature.column) continue;
      total += mutual_information(
          view.column(feature.column), view.cardinality(feature.column),
          view.column(other), view.cardinality(other));
    }
    const double oracle = total / static_cast<double>(candidates.size() - 1);
    EXPECT_EQ(feature.score, oracle) << "column " << feature.column;
  }

  // Scores arrive sorted descending, ties by ascending column.
  for (std::size_t i = 1; i < ranking.ranked.size(); ++i) {
    const RankedFeature& prev = ranking.ranked[i - 1];
    const RankedFeature& cur = ranking.ranked[i];
    EXPECT_TRUE(prev.score > cur.score ||
                (prev.score == cur.score && prev.column < cur.column));
  }
}

TEST(FeatSel, MiRankerPutsCorrelatedBlockFirst) {
  const Dataset data = structured_dataset();
  const DatasetView view(data);
  const FeatureRanking ranking =
      rank_features(view, {0, 1, 2, 3, 4, 5}, mi_config(0), c45());
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_LT(ranking.ranked[i].column, 3u)
        << "rank " << i << " is column " << ranking.ranked[i].column;
}

TEST(FeatSel, RankingIsBitIdenticalForAnyPoolSize) {
  const Dataset data = structured_dataset();
  const DatasetView view(data);
  const std::vector<std::size_t> candidates = {0, 1, 2, 3, 4, 5};
  PoolGuard guard;

  for (const FeatureRanker ranker :
       {FeatureRanker::MutualInformation, FeatureRanker::SubmodelAccuracy}) {
    FeatureSelectionConfig config;
    config.ranker = ranker;
    const FeatureRanking reference =
        rank_features(view, candidates, config, nbc());
    resize_shared_pool(8);
    const FeatureRanking pooled =
        rank_features(view, candidates, config, nbc());
    resize_shared_pool(1);
    const FeatureRanking narrow =
        rank_features(view, candidates, config, nbc());

    ASSERT_EQ(pooled.ranked.size(), reference.ranked.size());
    for (std::size_t i = 0; i < reference.ranked.size(); ++i) {
      EXPECT_EQ(pooled.ranked[i].column, reference.ranked[i].column);
      EXPECT_EQ(pooled.ranked[i].score, reference.ranked[i].score);
      EXPECT_EQ(narrow.ranked[i].column, reference.ranked[i].column);
      EXPECT_EQ(narrow.ranked[i].score, reference.ranked[i].score);
    }
  }
}

TEST(FeatSel, SubmodelAccuracyScoresAreAccuracies) {
  const Dataset data = structured_dataset();
  const DatasetView view(data);
  FeatureSelectionConfig config;
  config.ranker = FeatureRanker::SubmodelAccuracy;
  const FeatureRanking ranking =
      rank_features(view, {0, 1, 2, 3, 4, 5}, config, c45());
  for (const RankedFeature& feature : ranking.ranked) {
    EXPECT_GE(feature.score, 0.0);
    EXPECT_LE(feature.score, 1.0);
  }
  // The held-out accuracy of a predictable column beats independent noise.
  const auto score_of = [&](std::size_t column) {
    for (const RankedFeature& feature : ranking.ranked)
      if (feature.column == column) return feature.score;
    ADD_FAILURE() << "column " << column << " missing from ranking";
    return -1.0;
  };
  EXPECT_GT(score_of(0), score_of(3));
}

TEST(FeatSel, SelectColumnsAppliesCapAndFloorAscending) {
  FeatureRanking ranking;
  ranking.ranker = FeatureRanker::MutualInformation;
  ranking.ranked = {{4, 0.9}, {1, 0.7}, {3, 0.5}, {0, 0.2}, {2, 0.1}};

  EXPECT_EQ(select_columns(ranking, 0, 0.0),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(select_columns(ranking, 3, 0.0),
            (std::vector<std::size_t>{1, 3, 4}));
  EXPECT_EQ(select_columns(ranking, 0, 0.5),
            (std::vector<std::size_t>{1, 3, 4}));
  EXPECT_EQ(select_columns(ranking, 2, 0.5),
            (std::vector<std::size_t>{1, 4}));
  EXPECT_TRUE(select_columns(ranking, 0, 2.0).empty());
}

// --- Trainer integration --------------------------------------------------

// Top-k selection must be *equivalent* to never having listed the dropped
// columns: same sub-models, same inputs, byte-equal scores.
TEST(FeatSel, TopKTrainMatchesExplicitlyReducedColumnSet) {
  const Dataset data = structured_dataset();

  CrossFeatureModel selected;
  ASSERT_TRUE(
      selected.train(data, {0, 1, 2, 3, 4, 5}, c45(), mi_config(3)).ok());
  ASSERT_EQ(selected.submodel_count(), 3u);
  ASSERT_EQ(selected.selected_out_columns().size(), 3u);
  EXPECT_EQ(selected.skipped_columns(), selected.selected_out_columns());

  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < selected.submodel_count(); ++i)
    kept.push_back(selected.label_column_of(i));

  CrossFeatureModel reference;
  ASSERT_TRUE(reference.train(data, kept, c45()).ok());
  ASSERT_EQ(reference.submodel_count(), selected.submodel_count());

  for (const auto& row : data.rows) {
    const EventScore a = selected.score(row);
    const EventScore b = reference.score(row);
    EXPECT_EQ(a.avg_match_count, b.avg_match_count);
    EXPECT_EQ(a.avg_probability, b.avg_probability);
  }
}

// An uncapped, floorless ranking pass must change nothing: identical
// surviving columns and bit-identical scores vs the plain overload.
TEST(FeatSel, KAllIsBitIdenticalToNoSelection) {
  const Dataset data = structured_dataset();

  CrossFeatureModel plain;
  ASSERT_TRUE(plain.train(data, {0, 1, 2, 3, 4, 5}, c45()).ok());

  CrossFeatureModel ranked;
  ASSERT_TRUE(
      ranked.train(data, {0, 1, 2, 3, 4, 5}, c45(), mi_config(0)).ok());

  ASSERT_EQ(ranked.submodel_count(), plain.submodel_count());
  for (std::size_t i = 0; i < plain.submodel_count(); ++i)
    EXPECT_EQ(ranked.label_column_of(i), plain.label_column_of(i));
  EXPECT_TRUE(ranked.selected_out_columns().empty());
  EXPECT_EQ(ranked.skipped_columns(), plain.skipped_columns());

  for (const auto& row : data.rows) {
    const EventScore a = ranked.score(row);
    const EventScore b = plain.score(row);
    EXPECT_EQ(a.avg_match_count, b.avg_match_count);
    EXPECT_EQ(a.avg_probability, b.avg_probability);
  }
}

TEST(FeatSel, ScoreAllByteIdenticalAcrossPoolSizes) {
  const Dataset data = structured_dataset();
  CrossFeatureModel model;
  ASSERT_TRUE(
      model.train(data, {0, 1, 2, 3, 4, 5}, c45(), mi_config(4)).ok());

  PoolGuard guard;
  resize_shared_pool(1);
  const std::vector<EventScore> serial = model.score_all(data.rows);
  resize_shared_pool(8);
  const std::vector<EventScore> pooled = model.score_all(data.rows);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(pooled[i].avg_match_count, serial[i].avg_match_count);
    EXPECT_EQ(pooled[i].avg_probability, serial[i].avg_probability);
  }
}

// Selection composes with the degenerate-column skip: a constant column is
// skipped before ranking ever sees it, and both casualty kinds land in
// skipped_columns() while only the ranker's dropouts appear in
// selected_out_columns().
TEST(FeatSel, ComposesWithDegenerateColumnSkip) {
  Dataset data = structured_dataset();
  for (auto& row : data.rows) row[5] = 0;  // freeze a noise column
  data.cardinality[5] = 1;

  CrossFeatureModel model;
  ASSERT_TRUE(
      model.train(data, {0, 1, 2, 3, 4, 5}, c45(), mi_config(3)).ok());
  ASSERT_EQ(model.submodel_count(), 3u);

  const std::vector<std::size_t>& skipped = model.skipped_columns();
  EXPECT_EQ(skipped.size(), 3u);  // 1 degenerate + 2 selected out
  EXPECT_NE(std::find(skipped.begin(), skipped.end(), 5u), skipped.end());
  EXPECT_EQ(model.selected_out_columns().size(), 2u);
  for (const std::size_t col : model.selected_out_columns()) {
    EXPECT_NE(col, 5u);  // the degenerate column is not selection's doing
    EXPECT_NE(std::find(skipped.begin(), skipped.end(), col), skipped.end());
  }
  EXPECT_EQ(model.ranking().ranked.size(), 5u);  // ranked without column 5
}

TEST(FeatSel, FloorAboveEveryScoreFailsTrainSoft) {
  const Dataset data = structured_dataset();
  CrossFeatureModel model;
  const Status status =
      model.train(data, {0, 1, 2, 3, 4, 5}, c45(), mi_config(0, 1e9));
  EXPECT_EQ(status.code(), StatusCode::kTrainFailed);
  EXPECT_FALSE(model.trained());
}

// A retrain without selection must clear the previous run's selection state.
TEST(FeatSel, RetrainWithoutSelectionClearsState) {
  const Dataset data = structured_dataset();
  CrossFeatureModel model;
  ASSERT_TRUE(
      model.train(data, {0, 1, 2, 3, 4, 5}, c45(), mi_config(2)).ok());
  ASSERT_TRUE(model.selection().active());
  ASSERT_FALSE(model.ranking().ranked.empty());

  ASSERT_TRUE(model.train(data, {0, 1, 2, 3, 4, 5}, c45()).ok());
  EXPECT_FALSE(model.selection().active());
  EXPECT_TRUE(model.ranking().ranked.empty());
  EXPECT_TRUE(model.selected_out_columns().empty());
}

// --- Reporting ------------------------------------------------------------

TEST(FeatSel, DescribeRankingNamesColumnsAndTruncates) {
  const FeatureSchema schema = FeatureSchema::standard();
  FeatureRanking ranking;
  ranking.ranker = FeatureRanker::MutualInformation;
  ranking.ranked = {{1, 0.8}, {2, 0.5}, {99999, 0.1}};

  const std::string report = describe_ranking(ranking, schema.names(), 2);
  EXPECT_NE(report.find("mutual-info"), std::string::npos);
  EXPECT_NE(report.find(schema.name(1)), std::string::npos);
  EXPECT_NE(report.find("1 more"), std::string::npos);
  EXPECT_EQ(report.find("99999"), std::string::npos);  // truncated away

  const std::string full = describe_ranking(ranking, schema.names(), 10);
  EXPECT_NE(full.find("col99999"), std::string::npos);

  // names_of backs the same reports for arbitrary column subsets.
  const std::vector<std::string> names = schema.names_of({1, 99999});
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], schema.name(1));
  EXPECT_EQ(names[1], "col99999");
}

}  // namespace
}  // namespace xfa
