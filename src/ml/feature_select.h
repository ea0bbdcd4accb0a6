// Feature-selection stage between extraction and cross-feature training.
//
// CFA trains one sub-model per feature, so training cost grows superlinearly
// with the feature count (measured: 140 columns ≈ 207 ms vs 20 columns ≈
// 5.9 ms per train, DESIGN.md §16). The selector ranks the candidate label
// columns and keeps only the top-k, so a wide schema (the 132 Table-5
// traffic features) trains and scores several times faster while the
// Algorithm 2/3 averages renormalize over the survivors through the exact
// same skipped-column machinery degenerate columns already use.
//
// Two rankers:
//  * MutualInformation — score(i) = mean over j != i of MI(f_i; f_j), the
//    average mutual information between the feature and the rest of the
//    feature vector. Cross-feature analysis exploits exactly this
//    redundancy: a feature that shares a lot of information with its peers
//    both *can be predicted* by a sub-model and *helps predict* the peers
//    that stay. Computed on the column-major DatasetView in one fused
//    counting pass per candidate (joint histograms + memoized log2,
//    ml/log2_cache.h), parallel over columns on the shared pool with
//    slot-indexed writes — scores are bit-identical for any thread count.
//  * SubmodelAccuracy — score(i) = match accuracy of a sub-model
//    C_i : {candidates} \ {f_i} -> f_i trained on the leading
//    (1 - holdout_fraction) of the rows and scored on the held-out normal
//    tail. The most faithful ranker (it measures the quantity Algorithm 2
//    averages) and the most expensive: it costs one full-width train.
//
// Ranking runs once per train; per-row MI recomputation in scoring loops is
// banned by the `fused-mi` lint rule.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace xfa {

class DatasetView;

enum class FeatureRanker : std::uint8_t {
  None = 0,               // selection disabled; train every candidate
  MutualInformation = 1,  // fused pairwise-MI pass (cheap, model-free)
  SubmodelAccuracy = 2,   // held-out sub-model accuracy (costs one train)
};

const char* to_string(FeatureRanker ranker);

/// Knobs for the selection stage. `top_k == 0` means "no cardinality cap"
/// (the floor alone decides), so {MutualInformation, 0, 0.0} ranks but keeps
/// everything — by construction bit-identical to training without selection.
struct FeatureSelectionConfig {
  FeatureRanker ranker = FeatureRanker::None;
  std::size_t top_k = 0;    // keep at most this many columns; 0 = all
  double min_score = 0.0;   // drop columns scoring strictly below this
  /// Trailing fraction of rows held out by the SubmodelAccuracy ranker.
  double holdout_fraction = 0.25;
  /// Row-subsample cap for the MutualInformation ranker: the fused pass
  /// reads at most this many evenly-strided rows (0 = every row). 512 rows
  /// estimate a 5-bucket joint histogram amply — the same small-subset
  /// argument the discretizer's 500-sample pre-filtering fit uses.
  std::size_t max_rank_rows = 512;

  bool active() const { return ranker != FeatureRanker::None; }
};

/// One ranked candidate: the feature column and its ranker score (MI in
/// bits, or held-out match accuracy in [0, 1]).
struct RankedFeature {
  std::size_t column = 0;
  double score = 0;
};

/// Ranking result, sorted by descending score with ties broken by ascending
/// column id — a deterministic total order for any thread count.
struct FeatureRanking {
  FeatureRanker ranker = FeatureRanker::None;
  std::vector<RankedFeature> ranked;
};

/// Mutual information (bits) between two nominal columns of equal length.
/// The reference pairwise computation: plain std::log2 over the joint and
/// marginal counts, summed in row-major (x outer, y inner) value order —
/// the fused ranking pass reproduces these doubles bit-for-bit through its
/// memoized logs. Empty columns score 0.
double mutual_information(std::span<const std::int32_t> x, int cardinality_x,
                          std::span<const std::int32_t> y, int cardinality_y);

/// Ranks `candidates` (no duplicates, all < view.columns()) with the
/// configured ranker. `factory` is consulted only by SubmodelAccuracy;
/// MutualInformation ignores it (pass anything). Candidates are ranked in
/// parallel on the shared pool; results are bit-identical for any pool
/// size. FeatureRanker::None returns every candidate with score 0 in input
/// order.
FeatureRanking rank_features(const DatasetView& view,
                             const std::vector<std::size_t>& candidates,
                             const FeatureSelectionConfig& config,
                             const ClassifierFactory& factory);

/// Applies the top-k cap and min-score floor to a ranking; the survivors
/// come back in ascending column order (the trainer's iteration order, so
/// selection composes with the skipped-column renormalization without
/// reordering sub-models). May be empty (the caller surfaces kTrainFailed).
std::vector<std::size_t> select_columns(const FeatureRanking& ranking,
                                        std::size_t top_k, double min_score);

/// Human-readable top-N report: rank, column id, feature name, score.
/// `names` indexes full-width columns (FeatureSchema::names()); columns
/// outside it print as "col<N>".
std::string describe_ranking(const FeatureRanking& ranking,
                             const std::vector<std::string>& names,
                             std::size_t top_n = 16);

}  // namespace xfa
