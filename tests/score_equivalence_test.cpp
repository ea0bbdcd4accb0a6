// Pins for the detection-pipeline hot paths: the column-major DatasetView
// mirrors its row-major source, the block-parallel score_all and every
// classifier's predict_block kernel are bit-identical to one-row scoring,
// and fixed-seed fits of all three classifier families reproduce golden
// models and distributions exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cfa/model.h"
#include "common/crc64.h"
#include "exec/thread_pool.h"
#include "ml/c45.h"
#include "ml/dataset_view.h"
#include "ml/naive_bayes.h"
#include "ml/ripper.h"
#include "sim/rng.h"

namespace xfa {
namespace {

/// Correlated discrete dataset (blocks of 4 columns sharing a base value),
/// the same shape the bench kernels use.
Dataset correlated_dataset(std::size_t rows, std::size_t columns,
                           std::uint64_t seed) {
  Dataset data;
  data.cardinality.assign(columns, 5);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<int> row(columns);
    for (std::size_t c = 0; c < columns; c += 4) {
      const int base = static_cast<int>(rng.uniform_int(5));
      for (std::size_t k = c; k < std::min(c + 4, columns); ++k)
        row[k] =
            rng.chance(0.8) ? base : static_cast<int>(rng.uniform_int(5));
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

std::vector<std::size_t> iota_columns(std::size_t n) {
  std::vector<std::size_t> columns(n);
  for (std::size_t i = 0; i < n; ++i) columns[i] = i;
  return columns;
}

ClassifierFactory factory_for(int kind) {
  switch (kind) {
    case 0:
      return [] { return std::make_unique<C45>(); };
    case 1:
      return [] { return std::make_unique<Ripper>(); };
    default:
      return [] { return std::make_unique<NaiveBayes>(); };
  }
}

/// Restores the default shared-pool size even when an assertion fails.
struct PoolGuard {
  ~PoolGuard() { resize_shared_pool(0); }
};

// -- DatasetView invariants ------------------------------------------------

TEST(DatasetViewTest, ColumnsMirrorRowMajorSource) {
  const Dataset data = correlated_dataset(64, 12, 17);
  const DatasetView view(data);
  ASSERT_EQ(view.rows(), data.rows.size());
  ASSERT_EQ(view.columns(), data.columns());
  EXPECT_EQ(&view.source(), &data);
  int max_card = 0;
  for (std::size_t c = 0; c < view.columns(); ++c) {
    EXPECT_EQ(view.cardinality(c), data.cardinality[c]);
    max_card = std::max(max_card, data.cardinality[c]);
    const auto column = view.column(c);
    ASSERT_EQ(column.size(), data.rows.size());
    for (std::size_t r = 0; r < data.rows.size(); ++r)
      EXPECT_EQ(column[r], data.rows[r][c]) << "(" << r << "," << c << ")";
  }
  EXPECT_EQ(view.max_cardinality(), max_card);
}

// Row bitsets at row counts either side of a word boundary, with a
// cardinality-1 column and a value (4) that no row of column 1 holds.
TEST(DatasetViewTest, RowBitsMirrorColumns) {
  for (const std::size_t rows : {1u, 63u, 64u, 65u, 130u}) {
    Dataset data = correlated_dataset(rows, 6, 40 + rows);
    data.cardinality[0] = 1;
    for (std::vector<int>& row : data.rows) {
      row[0] = 0;
      row[1] %= 4;
    }
    const DatasetView view(data);
    ASSERT_EQ(view.words(), (rows + 63) / 64);
    for (std::size_t c = 0; c < view.columns(); ++c) {
      std::vector<std::uint64_t> seen(view.words(), 0);
      for (int v = 0; v < view.cardinality(c); ++v) {
        const std::span<const std::uint64_t> bits = view.row_bits(c, v);
        ASSERT_EQ(bits.size(), view.words());
        for (std::size_t r = 0; r < rows; ++r) {
          const bool set = ((bits[r / 64] >> (r % 64)) & 1) != 0;
          EXPECT_EQ(set, view.column(c)[r] == v)
              << "rows " << rows << " (" << r << "," << c << ") value " << v;
        }
        // Bits at or past rows() are zero.
        if (rows % 64 != 0) {
          EXPECT_EQ(bits.back() >> (rows % 64), 0u) << "rows " << rows;
        }
        // Each row lies in exactly one of its column's bitsets.
        for (std::size_t w = 0; w < view.words(); ++w) {
          EXPECT_EQ(seen[w] & bits[w], 0u) << "rows " << rows << " col " << c;
          seen[w] |= bits[w];
        }
      }
      for (std::size_t w = 0; w < view.words(); ++w) {
        const std::size_t in_word = std::min<std::size_t>(64, rows - 64 * w);
        EXPECT_EQ(std::popcount(seen[w]), static_cast<int>(in_word))
            << "rows " << rows << " col " << c << " word " << w;
      }
    }
  }
}

// The range check runs in every build type: the row bitsets and C4.5's
// fused value * labels + label codes index by the value.
TEST(DatasetViewTest, OutOfRangeValueAborts) {
  Dataset data = correlated_dataset(8, 4, 3);
  data.rows[5][2] = 5;  // cardinality 5
  EXPECT_DEATH(DatasetView{data}, "out of cardinality range");
  data.rows[5][2] = -1;
  EXPECT_DEATH(DatasetView{data}, "out of cardinality range");
}

// -- Scoring equivalence (serial vs block-parallel) ------------------------

class FamilyParamTest : public ::testing::TestWithParam<int> {};

TEST_P(FamilyParamTest, ScoreAllBitIdenticalAcrossThreadCounts) {
  const Dataset data = correlated_dataset(200, 12, 31);
  CrossFeatureModel model;
  ASSERT_TRUE(
      model.train(data, iota_columns(12), factory_for(GetParam()), 1).ok());

  PoolGuard guard;
  resize_shared_pool(1);
  const std::vector<EventScore> serial = model.score_all(data.rows);
  resize_shared_pool(8);
  const std::vector<EventScore> parallel = model.score_all(data.rows);

  ASSERT_EQ(serial.size(), data.rows.size());
  ASSERT_EQ(parallel.size(), data.rows.size());
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the batched path promises the
    // identical summation order, so the doubles must match exactly.
    EXPECT_EQ(serial[r].avg_match_count, parallel[r].avg_match_count);
    EXPECT_EQ(serial[r].avg_probability, parallel[r].avg_probability);
    const EventScore one = model.score(data.rows[r]);
    EXPECT_EQ(serial[r].avg_match_count, one.avg_match_count);
    EXPECT_EQ(serial[r].avg_probability, one.avg_probability);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyParamTest,
                         ::testing::Values(0, 1, 2));

// RIPPER sub-model fits share one DatasetView and its row bitsets read-only;
// fitting them on 2 and 8 pool threads must give the serial fit's rules.
TEST(RipperTest, ParallelTrainMatchesSerial) {
  const Dataset data = correlated_dataset(700, 12, 37);
  const auto rules_of = [&](std::size_t threads) {
    CrossFeatureModel model;
    EXPECT_TRUE(
        model.train(data, iota_columns(12), factory_for(1), threads).ok());
    std::vector<std::string> rules;
    for (std::size_t i = 0; i < model.submodel_count(); ++i)
      rules.push_back(model.submodel(i).describe({}));
    return rules;
  };
  PoolGuard guard;
  const std::vector<std::string> serial = rules_of(1);
  ASSERT_EQ(serial.size(), 12u);
  for (const std::size_t pool_size : {2u, 8u}) {
    resize_shared_pool(pool_size);
    EXPECT_EQ(rules_of(0), serial) << "pool size " << pool_size;
  }
}

// -- Block kernels vs one-row scoring ---------------------------------------

/// correlated_dataset rows with about one cell in six replaced by a value
/// outside the trained range — at or above the cardinality, or negative —
/// so NBC's unseen term and the C4.5/RIPPER non-matching branches run.
std::vector<std::vector<int>> rows_with_unseen_values(std::size_t rows,
                                                      std::size_t columns,
                                                      std::uint64_t seed) {
  std::vector<std::vector<int>> out =
      correlated_dataset(rows, columns, seed).rows;
  constexpr std::array<int, 5> kUnseen = {5, 6, 100, -1, -7};
  Rng rng(seed + 1);
  for (std::vector<int>& row : out)
    for (int& value : row)
      if (rng.chance(0.15)) value = kUnseen[rng.uniform_int(kUnseen.size())];
  return out;
}

std::vector<std::int32_t> column_major(
    const std::vector<std::vector<int>>& rows) {
  const std::size_t columns = rows.front().size();
  std::vector<std::int32_t> values(rows.size() * columns);
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t c = 0; c < columns; ++c)
      values[c * rows.size() + r] = rows[r][c];
  return values;
}

/// Both score_all overloads at pool sizes 1 and 8 against score() and
/// explain() per row, and each sub-model's predict_block on blocks of a
/// column-major matrix (stride = row count) against its one-row
/// predict_dist — all bit for bit.
void expect_blocks_match_rows(const CrossFeatureModel& model,
                              const std::vector<std::vector<int>>& rows) {
  const std::vector<std::int32_t> values = column_major(rows);
  const std::size_t columns = rows.front().size();
  const auto submodels = static_cast<double>(model.submodel_count());
  PoolGuard guard;
  for (const std::size_t threads : {1, 8}) {
    resize_shared_pool(threads);
    const std::vector<EventScore> by_rows = model.score_all(rows);
    const std::vector<EventScore> by_columns = model.score_all(
        rows.size(), columns,
        [&](std::size_t first, std::size_t count, std::int32_t* out) {
          for (std::size_t c = 0; c < columns; ++c)
            std::copy_n(values.data() + c * rows.size() + first, count,
                        out + c * kScoreBlock);
        });
    ASSERT_EQ(by_rows.size(), rows.size());
    ASSERT_EQ(by_columns.size(), rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const EventScore one = model.score(rows[r]);
      EXPECT_EQ(by_rows[r].avg_match_count, one.avg_match_count) << r;
      EXPECT_EQ(by_rows[r].avg_probability, one.avg_probability) << r;
      EXPECT_EQ(by_columns[r].avg_match_count, one.avg_match_count) << r;
      EXPECT_EQ(by_columns[r].avg_probability, one.avg_probability) << r;
      // explain() reports the same per-sub-model terms; re-added in
      // sub-model (ascending label column) order they give the same sums.
      std::vector<CrossFeatureModel::SubmodelVerdict> verdicts =
          model.explain(rows[r]);
      std::sort(verdicts.begin(), verdicts.end(),
                [](const auto& a, const auto& b) {
                  return a.label_column < b.label_column;
                });
      double matches = 0, probability = 0;
      for (const auto& verdict : verdicts) {
        if (verdict.matched) matches += 1.0;
        probability += verdict.probability;
      }
      EXPECT_EQ(matches / submodels, one.avg_match_count) << r;
      EXPECT_EQ(probability / submodels, one.avg_probability) << r;
    }
  }

  std::array<std::span<const double>, kScoreBlock> dists;
  for (std::size_t i = 0; i < model.submodel_count(); ++i) {
    const Classifier& submodel = model.submodel(i);
    std::vector<double> block_scratch(kScoreBlock *
                                      submodel.label_cardinality());
    std::vector<double> row_scratch(submodel.label_cardinality());
    for (std::size_t lo = 0; lo < rows.size(); lo += kScoreBlock) {
      const RowBlock block{values.data() + lo, rows.size(),
                           std::min(kScoreBlock, rows.size() - lo)};
      submodel.predict_block(block, block_scratch, {dists.data(), block.rows});
      for (std::size_t r = 0; r < block.rows; ++r) {
        const std::span<const double> want =
            submodel.predict_dist(rows[lo + r], row_scratch);
        ASSERT_EQ(dists[r].size(), want.size());
        for (std::size_t c = 0; c < want.size(); ++c)
          ASSERT_EQ(dists[r][c], want[c])
              << submodel.name() << " sub-model " << i << " row " << lo + r;
      }
    }
  }
}

class BlockKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockKernelTest, ScoreAllMatchesOneRowScoring) {
  const Dataset data = correlated_dataset(300, 12, 41);
  CrossFeatureModel model;
  ASSERT_TRUE(
      model.train(data, iota_columns(12), factory_for(GetParam()), 1).ok());
  // One row, one short of a block, exactly one block, one past it, and a
  // ragged last block.
  for (const std::size_t rows : {1, 63, 64, 65, 200})
    expect_blocks_match_rows(model, rows_with_unseen_values(rows, 12, rows));
}

TEST_P(BlockKernelTest, ScoresWithUnseenValuesArePinned) {
  // CRC-64 of the score_all doubles, taken from the per-row table walks the
  // block kernels replaced: the kernels keep every score bit-identical,
  // unseen values included.
  constexpr std::array<std::uint64_t, 3> kCrc = {
      0x5aea5c19d9fd9a8dULL, 0xe47e5a8ebd1457afULL, 0x6d2a1b4a9d16fbbbULL};
  const Dataset data = correlated_dataset(300, 12, 41);
  CrossFeatureModel model;
  ASSERT_TRUE(
      model.train(data, iota_columns(12), factory_for(GetParam()), 1).ok());
  const std::vector<EventScore> scores =
      model.score_all(rows_with_unseen_values(200, 12, 200));
  EXPECT_EQ(crc64(scores.data(), scores.size() * sizeof(EventScore)),
            kCrc[static_cast<std::size_t>(GetParam())]);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, BlockKernelTest,
                         ::testing::Values(0, 1, 2));

// -- Golden models ---------------------------------------------------------
//
// Fixed-seed fits pinned to the exact models and doubles they produce: any
// accidental change to candidate evaluation order, partitioning, the RIPPER
// shuffle, the pruning arithmetic or the smoothing shows up as a diff here
// before it can silently shift every figure downstream.

/// 120 rows whose label copies f0 90% of the time, plus a noise column.
Dataset noisy_copy_dataset() {
  Dataset data;
  data.cardinality = {3, 2, 3};  // f0, noise, label
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const int f0 = static_cast<int>(rng.uniform_int(3));
    const int label =
        rng.chance(0.9) ? f0 : static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({f0, static_cast<int>(rng.uniform_int(2)), label});
  }
  return data;
}

TEST(C45GoldenTest, FixedSeedTreeIsStable) {
  const Dataset data = noisy_copy_dataset();
  C45 tree;
  tree.fit(DatasetView(data), {0, 1}, 2);
  EXPECT_EQ(tree.describe({"f0", "noise"}),
            "split on f0\n"
            "  = 0: -> class 0  (40/42)\n"
            "  = 1: -> class 1  (34/37)\n"
            "  = 2: -> class 2  (38/41)\n");
}

TEST(RipperGoldenTest, FixedSeedRuleListIsStable) {
  const Dataset data = correlated_dataset(300, 8, 23);
  std::vector<std::size_t> features = iota_columns(8);
  features.pop_back();
  Ripper ripper;
  ripper.fit(DatasetView(data), features, 7);
  EXPECT_EQ(ripper.describe({}),
            "IF f4=1 AND f6=1 AND f1=1 THEN class 1  (10/11)\n"
            "IF f5=1 AND f6=1 THEN class 1  (27/36)\n"
            "IF f4=1 AND f5=1 THEN class 1  (5/10)\n"
            "IF f6=1 AND f5=3 AND f0=2 THEN class 1  (1/1)\n"
            "IF f0=4 AND f2=1 THEN class 1  (1/1)\n"
            "IF f4=0 AND f5=0 THEN class 0  (31/38)\n"
            "IF f6=0 AND f0=3 THEN class 0  (4/4)\n"
            "IF f6=0 AND f4=0 THEN class 0  (7/8)\n"
            "IF f4=4 AND f6=4 AND f0=0 THEN class 4  (9/10)\n"
            "IF f6=4 AND f0=2 AND f2=2 THEN class 4  (11/11)\n"
            "IF f4=4 AND f1=3 THEN class 4  (8/8)\n"
            "IF f4=4 AND f2=0 THEN class 4  (6/7)\n"
            "IF f4=4 AND f2=2 THEN class 4  (5/7)\n"
            "IF f5=2 AND f6=2 AND f1=0 THEN class 2  (12/12)\n"
            "IF f5=2 AND f6=2 THEN class 2  (28/33)\n"
            "IF f5=2 THEN class 2  (9/15)\n"
            "IF f3=0 AND f5=4 THEN class 2  (2/3)\n"
            "ELSE class 3\n");
}

TEST(NaiveBayesGoldenTest, FixedSeedDistributionIsStable) {
  const Dataset data = noisy_copy_dataset();
  NaiveBayes nbc;
  nbc.fit(DatasetView(data), {0, 1}, 2);
  std::vector<double> scratch(3);
  const std::span<const double> dist = nbc.predict_dist({1, 0, -1}, scratch);
  ASSERT_EQ(dist.size(), 3u);
  // Bitwise: hex literals are the exact doubles, not approximations.
  EXPECT_EQ(dist[0], 0x1.79fe8a557c001p-5);
  EXPECT_EQ(dist[1], 0x1.c43f78ea4ee49p-1);
  EXPECT_EQ(dist[2], 0x1.2104f382cadafp-4);
}

}  // namespace
}  // namespace xfa
