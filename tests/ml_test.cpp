// Unit tests: C4.5, RIPPER, naive Bayes, linear regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "ml/c45.h"
#include "ml/linreg.h"
#include "ml/log2_cache.h"
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

TEST(RipperDeathTest, RejectsOutOfRangeGrowFraction) {
  // Above one the grow set would outgrow the pool and the prune span's
  // size underflow.
  RipperConfig config;
  config.grow_fraction = 1.5;
  EXPECT_DEATH(Ripper{config}, "grow_fraction");
  config.grow_fraction = 0.0;
  EXPECT_DEATH(Ripper{config}, "grow_fraction");
  config.grow_fraction = -0.5;
  EXPECT_DEATH(Ripper{config}, "grow_fraction");
}

TEST(RipperDeathTest, RejectsOutOfRangePrunePrecision) {
  RipperConfig config;
  config.min_prune_precision = 1.25;
  EXPECT_DEATH(Ripper{config}, "min_prune_precision");
  config.min_prune_precision = -0.1;
  EXPECT_DEATH(Ripper{config}, "min_prune_precision");
}

// -- RIPPER's bitset fit against a per-row counting reference ---------------

/// The decision list the counting reference learns: rules in firing order
/// with the class counts of the pool rows each one covered, then the
/// default's counts.
struct ReferenceRuleList {
  struct Rule {
    std::vector<std::pair<std::size_t, int>> conditions;
    int target = 0;
    std::vector<double> class_counts;
  };
  std::vector<Rule> rules;
  std::vector<double> default_counts;

  /// Ripper::describe({})'s rendering of this list.
  std::string describe() const {
    std::string out;
    for (const Rule& rule : rules) {
      out += "IF ";
      for (std::size_t i = 0; i < rule.conditions.size(); ++i) {
        if (i > 0) out += " AND ";
        out += 'f';
        out += std::to_string(rule.conditions[i].first);
        out += '=';
        out += std::to_string(rule.conditions[i].second);
      }
      const double covered = std::accumulate(rule.class_counts.begin(),
                                             rule.class_counts.end(), 0.0);
      out += " THEN class " + std::to_string(rule.target) + "  (" +
             std::to_string(static_cast<long>(
                 rule.class_counts[static_cast<std::size_t>(rule.target)])) +
             "/" + std::to_string(static_cast<long>(covered)) + ")\n";
    }
    const auto default_class = std::max_element(default_counts.begin(),
                                                default_counts.end()) -
                               default_counts.begin();
    return out + "ELSE class " + std::to_string(default_class) + "\n";
  }

  /// Laplace distribution of the first rule covering `row`, else of the
  /// default.
  std::vector<double> dist(const std::vector<int>& row) const {
    for (const Rule& rule : rules)
      if (std::all_of(rule.conditions.begin(), rule.conditions.end(),
                      [&](const auto& condition) {
                        return row[condition.first] == condition.second;
                      }))
        return laplace_distribution(rule.class_counts);
    return laplace_distribution(default_counts);
  }
};

/// RIPPER's fit as plain per-row counting over the row-major rows: every
/// (p, n) is a scan, the prune step rescans per kept prefix.
ReferenceRuleList reference_ripper_fit(const Dataset& data,
                                       const std::vector<std::size_t>& features,
                                       std::size_t label,
                                       const RipperConfig& config) {
  using Rule = ReferenceRuleList::Rule;
  const auto matches = [&](const Rule& rule, std::size_t row,
                           std::size_t keep) {
    for (std::size_t k = 0; k < keep; ++k)
      if (data.rows[row][rule.conditions[k].first] !=
          rule.conditions[k].second)
        return false;
    return true;
  };
  const auto foil = [](double p, double n) { return std::log2(p / (p + n)); };
  const auto classes = static_cast<std::size_t>(data.cardinality[label]);
  const auto label_of = [&](std::size_t row) {
    return data.rows[row][label];
  };

  std::vector<double> class_freq(classes, 0);
  for (std::size_t i = 0; i < data.rows.size(); ++i)
    class_freq[static_cast<std::size_t>(label_of(i))] += 1.0;
  std::vector<int> order(classes);
  for (std::size_t c = 0; c < classes; ++c) order[c] = static_cast<int>(c);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return class_freq[static_cast<std::size_t>(a)] <
           class_freq[static_cast<std::size_t>(b)];
  });

  std::vector<std::size_t> pool(data.rows.size());
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  Rng rng(config.shuffle_seed);
  std::vector<Rule> rules;
  for (std::size_t ci = 0; ci + 1 < classes; ++ci) {
    const int target = order[ci];
    if (class_freq[static_cast<std::size_t>(target)] <= 0) continue;
    for (std::size_t r = 0; r < config.max_rules_per_class; ++r) {
      if (std::none_of(pool.begin(), pool.end(),
                       [&](std::size_t i) { return label_of(i) == target; }))
        break;
      std::vector<std::size_t> shuffled = pool;
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(rng.uniform_int(i))]);
      const std::size_t grow_size = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(shuffled.size()) *
                                      config.grow_fraction));
      const std::vector<std::size_t> prune(shuffled.begin() + grow_size,
                                           shuffled.end());
      std::vector<std::size_t> covered(shuffled.begin(),
                                       shuffled.begin() + grow_size);

      Rule rule;
      rule.target = target;
      std::vector<bool> used(data.columns(), false);
      while (true) {
        double p = 0, n = 0;
        for (const std::size_t i : covered)
          (label_of(i) == target ? p : n) += 1.0;
        if (n == 0 || p == 0) break;
        const double base = foil(p, n);
        double best_gain = 1e-9;
        std::size_t best_column = 0;
        int best_value = -1;
        for (const std::size_t col : features) {
          if (col == label || used[col]) continue;
          for (int v = 0; v < data.cardinality[col]; ++v) {
            double pos = 0, neg = 0;
            for (const std::size_t i : covered)
              if (data.rows[i][col] == v)
                (label_of(i) == target ? pos : neg) += 1.0;
            if (pos <= 0) continue;
            const double gain = pos * (foil(pos, neg) - base);
            if (gain > best_gain) {
              best_gain = gain;
              best_column = col;
              best_value = v;
            }
          }
        }
        if (best_value < 0) break;
        rule.conditions.emplace_back(best_column, best_value);
        used[best_column] = true;
        std::erase_if(covered, [&](std::size_t i) {
          return data.rows[i][best_column] != best_value;
        });
      }
      if (rule.conditions.empty()) break;

      const auto prune_value = [&](std::size_t keep) {
        double kp = 0, kn = 0;
        for (const std::size_t i : prune)
          if (matches(rule, i, keep)) (label_of(i) == target ? kp : kn) += 1.0;
        return kp + kn == 0 ? -1.0 : (kp - kn) / (kp + kn);
      };
      std::size_t best_keep = rule.conditions.size();
      double best_value = prune_value(best_keep);
      for (std::size_t keep = best_keep; keep-- > 1;) {
        const double value = prune_value(keep);
        if (value > best_value) {
          best_value = value;
          best_keep = keep;
        }
      }
      rule.conditions.resize(best_keep);

      double pool_p = 0, pool_n = 0;
      rule.class_counts.assign(classes, 0);
      for (const std::size_t i : pool) {
        if (!matches(rule, i, best_keep)) continue;
        (label_of(i) == target ? pool_p : pool_n) += 1.0;
        rule.class_counts[static_cast<std::size_t>(label_of(i))] += 1.0;
      }
      if (pool_p + pool_n == 0 ||
          pool_p / (pool_p + pool_n) < config.min_prune_precision)
        break;
      std::erase_if(pool,
                    [&](std::size_t i) { return matches(rule, i, best_keep); });
      rules.push_back(std::move(rule));
    }
  }
  std::vector<double> default_counts(classes, 0);
  for (const std::size_t i : pool)
    default_counts[static_cast<std::size_t>(label_of(i))] += 1.0;
  if (std::all_of(default_counts.begin(), default_counts.end(),
                  [](double c) { return c == 0; }))
    default_counts = class_freq;

  return {std::move(rules), std::move(default_counts)};
}

/// Random columns of cardinality 1-6 that share a per-row base value with
/// probability 0.7, so rules grow several conditions and the covered set
/// thins out. Column 0 has cardinality 1, column 1 holds one constant
/// value, and the label (last column, cardinality 4) never takes value 3.
Dataset random_ripper_dataset(std::size_t rows, std::uint64_t seed) {
  constexpr std::size_t kColumns = 10;
  Rng rng(seed);
  Dataset data;
  data.cardinality.push_back(1);
  for (std::size_t c = 1; c + 1 < kColumns; ++c)
    data.cardinality.push_back(1 + static_cast<int>(rng.uniform_int(6)));
  data.cardinality.push_back(4);
  for (std::size_t r = 0; r < rows; ++r) {
    const int base = static_cast<int>(rng.uniform_int(6));
    std::vector<int> row(kColumns);
    for (std::size_t c = 0; c < kColumns; ++c) {
      const int card = c + 1 < kColumns ? data.cardinality[c] : 3;
      row[c] = rng.chance(0.7) ? base % card
                               : static_cast<int>(rng.uniform_int(
                                     static_cast<std::uint64_t>(card)));
    }
    row[1] = data.cardinality[1] - 1;
    data.rows.push_back(std::move(row));
  }
  return data;
}

// Row counts straddle word boundaries (1, 63, 64, 65) and reach 2000, where
// later grow steps count over a thinned-out span of words. A grow fraction
// of 1 leaves the prune set empty; the second feature list includes the
// label column, which the fit must skip.
TEST(RipperTest, BitsetFitMatchesCountingReference) {
  std::size_t fits = 0, rules = 0;
  for (const std::size_t rows : {1u, 63u, 64u, 65u, 300u, 2000u}) {
    const Dataset data = random_ripper_dataset(rows, 100 + rows);
    const std::size_t label = data.columns() - 1;
    std::vector<std::size_t> features(label);
    for (std::size_t c = 0; c < label; ++c) features[c] = c;
    std::vector<std::size_t> with_label = features;
    with_label.insert(with_label.begin() + 4, label);
    const DatasetView view(data);
    for (const std::uint64_t seed : {17u, 3u, 2024u}) {
      for (const double grow_fraction : {2.0 / 3.0, 0.5, 1.0}) {
        for (const auto* inputs : {&features, &with_label}) {
          RipperConfig config;
          config.shuffle_seed = seed;
          config.grow_fraction = grow_fraction;
          const std::string where = "rows " + std::to_string(rows) +
                                    " seed " + std::to_string(seed) +
                                    " grow " + std::to_string(grow_fraction);
          Ripper fit(config);
          fit.fit(view, *inputs, label);
          const ReferenceRuleList reference =
              reference_ripper_fit(data, *inputs, label, config);
          ASSERT_EQ(fit.describe({}), reference.describe()) << where;
          for (std::size_t r = 0; r < rows; ++r)
            ASSERT_EQ(dist_of(fit, data.rows[r]), reference.dist(data.rows[r]))
                << where << " row " << r;
          // A row no condition matches reaches the default's counts even
          // when every training row retires at a rule.
          const std::vector<int> unmatched(data.columns(), -1);
          ASSERT_EQ(dist_of(fit, unmatched), reference.dist(unmatched)) << where;
          ++fits;
          rules += fit.rule_count();
        }
      }
    }
  }
  EXPECT_EQ(fits, 6u * 3u * 3u * 2u);
  EXPECT_GT(rules, 200u);
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

/// Slots of `memo` whose bits differ from computing Fn{}(c / t) directly,
/// over every pair 0 < c <= t the table covers, starting at total `first_t`
/// and stepping by `stride`.
template <class Fn>
std::size_t ratio_mismatches(const RatioMemo<Fn>& memo, double first_t,
                             double stride) {
  std::size_t mismatches = 0;
  for (double t = first_t; RatioMemo<Fn>::covers(t); t += stride)
    for (double c = 1; c <= t; ++c)
      if (std::bit_cast<std::uint64_t>(memo(c, t)) !=
          std::bit_cast<std::uint64_t>(Fn{}(c / t)))
        ++mismatches;
  return mismatches;
}

TEST(RatioMemo, EverySlotEqualsDirectComputation) {
  EXPECT_TRUE(RatioMemo<Log2Fn>::covers(255));
  EXPECT_FALSE(RatioMemo<Log2Fn>::covers(256));
  EXPECT_EQ(ratio_mismatches(RatioMemo<Log2Fn>{}, 1, 1), 0u);
  EXPECT_EQ(ratio_mismatches(RatioMemo<PLog2PFn>{}, 1, 1), 0u);
}

// Every fit on every pool thread reads the same per-process table, and pool
// threads race to its first use; the function-local static makes exactly one
// of them fill it (ThreadSanitizer checks the rest only read).
TEST(RatioMemo, SharedTableFirstUseFromPoolThreads) {
  constexpr std::size_t kTasks = 16;
  ThreadPool pool(4);
  std::vector<std::size_t> mismatches(kTasks, 0);
  parallel_for(pool, kTasks, [&](std::size_t i) {
    const double first_t = static_cast<double>(1 + i);
    mismatches[i] = ratio_mismatches(RatioMemo<Log2Fn>{}, first_t, kTasks) +
                    ratio_mismatches(RatioMemo<PLog2PFn>{}, first_t, kTasks);
  });
  for (std::size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(mismatches[i], 0u) << "task " << i;
}

}  // namespace
}  // namespace xfa
