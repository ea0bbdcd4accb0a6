// Unit tests: C4.5, RIPPER, naive Bayes, linear regression.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "ml/c45.h"
#include "ml/linreg.h"
#include "ml/naive_bayes.h"
#include "ml/ripper.h"
#include "sim/rng.h"

namespace xfa {
namespace {

/// XOR-ish dataset: label = f0 XOR f1, plus an irrelevant noise column.
Dataset xor_dataset(std::size_t copies) {
  Dataset data;
  data.cardinality = {2, 2, 3, 2};  // f0, f1, noise, label
  data.names = {"f0", "f1", "noise", "label"};
  Rng rng(3);
  for (std::size_t i = 0; i < copies; ++i) {
    for (int a = 0; a < 2; ++a)
      for (int b = 0; b < 2; ++b)
        data.rows.push_back(
            {a, b, static_cast<int>(rng.uniform_int(3)), a ^ b});
  }
  return data;
}

/// Single-feature majority dataset: label follows f0 90% of the time.
Dataset noisy_copy_dataset(std::size_t n) {
  Dataset data;
  data.cardinality = {3, 2, 3};  // f0, noise, label
  Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    const int f0 = static_cast<int>(rng.uniform_int(3));
    const int label =
        rng.chance(0.9) ? f0 : static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({f0, static_cast<int>(rng.uniform_int(2)), label});
  }
  return data;
}

/// The distribution for `row`, copied out of the span predict_dist returns.
std::vector<double> dist_of(const Classifier& classifier,
                            const std::vector<int>& row) {
  std::vector<double> scratch(classifier.label_cardinality());
  const std::span<const double> dist = classifier.predict_dist(row, scratch);
  return {dist.begin(), dist.end()};
}

template <typename MakeClassifier>
void expect_learns_xor(MakeClassifier make) {
  const Dataset data = xor_dataset(16);
  auto classifier = make();
  classifier->fit(DatasetView(data), {0, 1, 2}, 3);
  EXPECT_EQ(classifier->predict({0, 0, 1, -1}), 0);
  EXPECT_EQ(classifier->predict({0, 1, 0, -1}), 1);
  EXPECT_EQ(classifier->predict({1, 0, 2, -1}), 1);
  EXPECT_EQ(classifier->predict({1, 1, 1, -1}), 0);
}

TEST(C45Test, LearnsXor) {
  expect_learns_xor([] { return std::make_unique<C45>(); });
}

// (RIPPER cannot learn XOR: FOIL gain of every first literal is zero, so
// rule growth never starts — a property of the algorithm, not a bug. Naive
// Bayes cannot learn XOR either, by feature independence.)

TEST(RipperTest, LearnsConjunctiveConcept) {
  // label = (f0 == 1 AND f1 == 2), learnable by a single grown rule.
  Dataset data;
  data.cardinality = {2, 3, 2, 2};  // f0, f1, noise, label
  Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    const int f0 = static_cast<int>(rng.uniform_int(2));
    const int f1 = static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({f0, f1, static_cast<int>(rng.uniform_int(2)),
                         (f0 == 1 && f1 == 2) ? 1 : 0});
  }
  Ripper classifier;
  classifier.fit(DatasetView(data), {0, 1, 2}, 3);
  EXPECT_EQ(classifier.predict({1, 2, 0, -1}), 1);
  EXPECT_EQ(classifier.predict({1, 2, 1, -1}), 1);
  EXPECT_EQ(classifier.predict({0, 2, 0, -1}), 0);
  EXPECT_EQ(classifier.predict({1, 1, 0, -1}), 0);
  EXPECT_GE(classifier.rule_count(), 1u);
}

TEST(C45Test, ProbabilitiesAreLeafFrequencies) {
  const Dataset data = noisy_copy_dataset(600);
  C45 classifier;
  classifier.fit(DatasetView(data), {0, 1}, 2);
  // For f0 = v, the leaf should assign ~0.9 to class v.
  for (int v = 0; v < 3; ++v) {
    const auto dist = dist_of(classifier, {v, 0, -1});
    EXPECT_GT(dist[static_cast<std::size_t>(v)], 0.75);
    double sum = 0;
    for (const double p : dist) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(C45Test, PrunedTreeIsSmaller) {
  const Dataset data = noisy_copy_dataset(400);
  C45Config no_prune;
  no_prune.prune = false;
  no_prune.min_split_samples = 2;
  C45 unpruned(no_prune);
  unpruned.fit(DatasetView(data), {0, 1}, 2);
  C45Config with_prune;
  with_prune.min_split_samples = 2;
  C45 pruned(with_prune);
  pruned.fit(DatasetView(data), {0, 1}, 2);
  EXPECT_LE(pruned.node_count(), unpruned.node_count());
}

TEST(C45Test, ConstantLabelAlwaysPredictsIt) {
  Dataset data;
  data.cardinality = {3, 1};
  for (int i = 0; i < 20; ++i) data.rows.push_back({i % 3, 0});
  C45 classifier;
  classifier.fit(DatasetView(data), {0}, 1);
  const auto dist = dist_of(classifier, {1, -1});
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
}

TEST(C45Test, IgnoresIrrelevantNoiseColumn) {
  const Dataset data = noisy_copy_dataset(600);
  C45 classifier;
  classifier.fit(DatasetView(data), {0, 1}, 2);
  // Same f0, different noise values: prediction should not flip.
  for (int v = 0; v < 3; ++v)
    EXPECT_EQ(classifier.predict({v, 0, -1}), classifier.predict({v, 1, -1}));
}

TEST(RipperTest, RulesHaveProbabilities) {
  const Dataset data = noisy_copy_dataset(600);
  Ripper classifier;
  classifier.fit(DatasetView(data), {0, 1}, 2);
  const auto dist = dist_of(classifier, {1, 0, -1});
  double sum = 0;
  for (const double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(classifier.predict({1, 0, -1}), 1);
}

TEST(RipperTest, DefaultClassIsMajority) {
  Dataset data;
  data.cardinality = {2, 3};
  Rng rng(7);
  // Class 2 dominates; f0 is pure noise.
  for (int i = 0; i < 300; ++i) {
    const int label = rng.chance(0.8) ? 2 : static_cast<int>(
        rng.uniform_int(2));
    data.rows.push_back({static_cast<int>(rng.uniform_int(2)), label});
  }
  Ripper classifier;
  classifier.fit(DatasetView(data), {0}, 1);
  EXPECT_EQ(classifier.predict({0, -1}), 2);
  EXPECT_EQ(classifier.predict({1, -1}), 2);
}

TEST(NaiveBayesTest, MatchesPaperFormulaOnToyData) {
  // 2 features, 2 classes; verify the normalized product-of-priors form.
  Dataset data;
  data.cardinality = {2, 2, 2};
  // class 0: (0,0) x3, (0,1) x1; class 1: (1,1) x3, (1,0) x1.
  data.rows = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 1, 0},
               {1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 0, 1}};
  NaiveBayes classifier;
  classifier.fit(DatasetView(data), {0, 1}, 2);
  const auto dist = dist_of(classifier, {0, 0, -1});
  EXPECT_GT(dist[0], 0.9);
  EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-9);
  EXPECT_EQ(classifier.predict({1, 1, -1}), 1);
}

TEST(NaiveBayesTest, LaplaceSmoothingAvoidsZeros) {
  Dataset data;
  data.cardinality = {3, 2};
  data.rows = {{0, 0}, {0, 0}, {1, 1}, {1, 1}};  // value 2 never seen
  NaiveBayes classifier;
  classifier.fit(DatasetView(data), {0}, 1);
  const auto dist = dist_of(classifier, {2, -1});
  EXPECT_GT(dist[0], 0.0);
  EXPECT_GT(dist[1], 0.0);
}

TEST(NaiveBayesTest, HandlesManyFeaturesWithoutUnderflow) {
  Dataset data;
  const std::size_t features = 150;
  data.cardinality.assign(features + 1, 2);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    std::vector<int> row(features + 1);
    const int label = static_cast<int>(rng.uniform_int(2));
    for (std::size_t f = 0; f < features; ++f)
      row[f] = rng.chance(0.7) ? label : 1 - label;
    row[features] = label;
    data.rows.push_back(std::move(row));
  }
  NaiveBayes classifier;
  std::vector<std::size_t> feature_columns;
  for (std::size_t f = 0; f < features; ++f) feature_columns.push_back(f);
  classifier.fit(DatasetView(data), feature_columns, features);
  const auto dist = dist_of(classifier, data.rows[0]);
  EXPECT_TRUE(std::isfinite(dist[0]));
  EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-9);
}

TEST(C45Test, GainRatioResistsHighArityNoise) {
  // A classic C4.5 property: plain information gain would prefer a
  // high-cardinality noise column (it shatters the data); gain ratio must
  // still pick the genuinely informative binary feature.
  Dataset data;
  data.cardinality = {2, 20, 2};  // informative, 20-valued noise, label
  Rng rng(31);
  for (int i = 0; i < 400; ++i) {
    const int f0 = static_cast<int>(rng.uniform_int(2));
    data.rows.push_back({f0, static_cast<int>(rng.uniform_int(20)),
                         rng.chance(0.95) ? f0 : 1 - f0});
  }
  C45 classifier;
  classifier.fit(DatasetView(data), {0, 1}, 2);
  // Whatever the noise value, the prediction must follow f0.
  for (int noise = 0; noise < 20; ++noise) {
    EXPECT_EQ(classifier.predict({0, noise, -1}), 0);
    EXPECT_EQ(classifier.predict({1, noise, -1}), 1);
  }
}

TEST(C45Test, DepthAndNodeCountReported) {
  const Dataset data = xor_dataset(8);
  C45 classifier;
  classifier.fit(DatasetView(data), {0, 1, 2}, 3);
  EXPECT_GE(classifier.depth(), 2u);  // XOR needs two levels
  EXPECT_GT(classifier.node_count(), 3u);
}

TEST(C45Test, UnseenBranchFallsBackToNodeDistribution) {
  Dataset data;
  data.cardinality = {3, 2};
  // Value 2 of f0 never appears in training.
  Rng rng(33);
  for (int i = 0; i < 100; ++i) {
    const int f0 = static_cast<int>(rng.uniform_int(2));
    data.rows.push_back({f0, f0});
  }
  C45 classifier;
  classifier.fit(DatasetView(data), {0}, 1);
  const auto dist = dist_of(classifier, {2, -1});
  EXPECT_NEAR(dist[0] + dist[1], 1.0, 1e-9);
  EXPECT_GT(dist[0], 0.2);  // roughly the prior, not a confident answer
  EXPECT_GT(dist[1], 0.2);
}

TEST(RipperTest, RuleCountStaysBounded) {
  const Dataset data = noisy_copy_dataset(800);
  RipperConfig config;
  config.max_rules_per_class = 4;
  Ripper classifier(config);
  classifier.fit(DatasetView(data), {0, 1}, 2);
  EXPECT_LE(classifier.rule_count(), 4u * 3u);
}

TEST(NaiveBayesTest, FallsBackToPriorWithoutEvidence) {
  Dataset data;
  data.cardinality = {2, 2};
  Rng rng(35);
  // 80/20 class prior, feature is independent noise.
  for (int i = 0; i < 500; ++i)
    data.rows.push_back({static_cast<int>(rng.uniform_int(2)),
                         rng.chance(0.8) ? 0 : 1});
  NaiveBayes classifier;
  classifier.fit(DatasetView(data), {0}, 1);
  const auto dist = dist_of(classifier, {0, -1});
  EXPECT_NEAR(dist[0], 0.8, 0.08);
}

TEST(DescribeTest, C45RenderingNamesSplitsAndLeaves) {
  const Dataset data = noisy_copy_dataset(400);
  C45 classifier;
  classifier.fit(DatasetView(data), {0, 1}, 2);
  const std::string text =
      classifier.describe({"color", "noise", "label"});
  EXPECT_NE(text.find("split on color"), std::string::npos);
  EXPECT_NE(text.find("-> class"), std::string::npos);
}

TEST(DescribeTest, RipperRenderingShowsRulesAndDefault) {
  Dataset data;
  data.cardinality = {2, 3, 2, 2};
  Rng rng(41);
  for (int i = 0; i < 300; ++i) {
    const int f0 = static_cast<int>(rng.uniform_int(2));
    const int f1 = static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({f0, f1, static_cast<int>(rng.uniform_int(2)),
                         (f0 == 1 && f1 == 2) ? 1 : 0});
  }
  Ripper classifier;
  classifier.fit(DatasetView(data), {0, 1, 2}, 3);
  const std::string text = classifier.describe({"a", "b", "noise", "label"});
  EXPECT_NE(text.find("IF "), std::string::npos);
  EXPECT_NE(text.find("THEN class 1"), std::string::npos);
  EXPECT_NE(text.find("ELSE class 0"), std::string::npos);
}

TEST(DescribeTest, DefaultRenderingIsOpaque) {
  NaiveBayes classifier;
  Dataset data;
  data.cardinality = {2, 2};
  data.rows = {{0, 0}, {1, 1}};
  classifier.fit(DatasetView(data), {0}, 1);
  EXPECT_NE(classifier.describe({}).find("NBC"), std::string::npos);
}

TEST(C45DeathTest, RejectsOutOfRangePruneConfidence) {
  // The pessimistic-error z table covers (0, 0.5]; out-of-range confidence
  // used to fall back silently to cf=0.25 — now it is a construction error.
  C45Config config;
  config.prune_confidence = 0.75;
  EXPECT_DEATH(C45{config}, "prune_confidence");
  config.prune_confidence = 0.0;
  EXPECT_DEATH(C45{config}, "prune_confidence");
  config.prune_confidence = -0.1;
  EXPECT_DEATH(C45{config}, "prune_confidence");
}

TEST(LinRegTest, RecoversLinearFunction) {
  LinearRegression model;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-5, 5), b = rng.uniform(-5, 5);
    x.push_back({a, b});
    y.push_back(3.0 * a - 2.0 * b + 7.0);
  }
  model.fit(x, y);
  EXPECT_NEAR(model.weights()[0], 3.0, 1e-6);
  EXPECT_NEAR(model.weights()[1], -2.0, 1e-6);
  EXPECT_NEAR(model.intercept(), 7.0, 1e-6);
  EXPECT_NEAR(model.predict({1.0, 1.0}), 8.0, 1e-6);
}

TEST(LinRegTest, DegenerateColumnHandled) {
  LinearRegression model;
  std::vector<std::vector<double>> x = {{1, 0}, {2, 0}, {3, 0}};
  std::vector<double> y = {2, 4, 6};
  model.fit(x, y);
  EXPECT_NEAR(model.predict({4, 0}), 8.0, 1e-3);
}

TEST(LinRegTest, LogDistance) {
  EXPECT_NEAR(LinearRegression::log_distance(10.0, 10.0), 0.0, 1e-12);
  EXPECT_NEAR(LinearRegression::log_distance(10.0, 1.0), std::log(10.0),
              1e-12);
  EXPECT_NEAR(LinearRegression::log_distance(1.0, 10.0), std::log(10.0),
              1e-12);
  // Total on zeros thanks to the epsilon floor.
  EXPECT_TRUE(std::isfinite(LinearRegression::log_distance(0.0, 5.0)));
}

// Cross-classifier property sweep: on a learnable dataset, training accuracy
// beats the majority baseline for every classifier.
class ClassifierParamTest : public ::testing::TestWithParam<int> {};

std::unique_ptr<Classifier> make_classifier(int family) {
  switch (family) {
    case 0: return std::make_unique<C45>();
    case 1: return std::make_unique<Ripper>();
    default: return std::make_unique<NaiveBayes>();
  }
}

TEST_P(ClassifierParamTest, BeatsMajorityBaseline) {
  const Dataset data = noisy_copy_dataset(600);
  const std::unique_ptr<Classifier> classifier = make_classifier(GetParam());
  classifier->fit(DatasetView(data), {0, 1}, 2);
  std::size_t correct = 0;
  for (const std::vector<int>& row : data.rows)
    if (classifier->predict(row) == row[2]) ++correct;
  // Majority baseline on 3 roughly equal classes is ~0.33.
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(data.size()),
            0.6)
      << classifier->name();
}

/// 300 rows x 40 columns of cardinality 5, correlated in blocks of 4, so
/// every classifier grows a non-trivial model on the last column.
Dataset block_correlated_dataset() {
  Dataset data;
  data.cardinality.assign(40, 5);
  Rng rng(5);
  for (std::size_t r = 0; r < 300; ++r) {
    std::vector<int> row(40);
    for (std::size_t c = 0; c < 40; c += 4) {
      const int base = static_cast<int>(rng.uniform_int(5));
      for (std::size_t k = c; k < c + 4; ++k)
        row[k] =
            rng.chance(0.8) ? base : static_cast<int>(rng.uniform_int(5));
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

// A classifier keeps its model and scratch in the object between fits:
// refitting one object must give exactly the model a fresh object gives.
TEST_P(ClassifierParamTest, RefitOnSameObjectIsIdentical) {
  const Dataset data = block_correlated_dataset();
  const DatasetView view(data);
  std::vector<std::size_t> features(39);
  for (std::size_t i = 0; i < features.size(); ++i) features[i] = i;

  const std::unique_ptr<Classifier> fresh = make_classifier(GetParam());
  const std::unique_ptr<Classifier> refit = make_classifier(GetParam());
  fresh->fit(view, features, 39);
  for (int i = 0; i < 3; ++i) refit->fit(view, features, 39);

  EXPECT_EQ(fresh->describe({}), refit->describe({})) << fresh->name();
  // Every training row, then one row of never-seen values, which falls back
  // to C4.5's root distribution and NBC's unseen term.
  std::vector<std::vector<int>> rows = data.rows;
  rows.emplace_back(40, 5);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> a = dist_of(*fresh, rows[r]);
    const std::vector<double> b = dist_of(*refit, rows[r]);
    ASSERT_EQ(a, b) << fresh->name() << " row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, ClassifierParamTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace xfa
