// C4.5 decision tree (Quinlan 1993): multiway nominal splits chosen by gain
// ratio with the average-gain admissibility heuristic, and pessimistic
// (confidence-bound) subtree-replacement pruning.
//
// Leaf probabilities follow the paper §3: "Suppose that n is the total number
// of examples in a leaf node and n_i is the number of examples with class
// label l_i in the same leaf. p(l_i|x) = n_i / n" (we Laplace-smooth so no
// class is ever impossible).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/dataset_view.h"
#include "ml/log2_cache.h"

namespace xfa {

struct C45Config {
  std::size_t min_split_samples = 4;  // don't split smaller nodes
  double prune_confidence = 0.25;     // Quinlan's CF default; (0, 0.5]
  bool prune = true;
};

class C45 final : public Classifier {
 public:
  explicit C45(const C45Config& config = {});

  void fit(const DatasetView& view,
           const std::vector<std::size_t>& feature_columns,
           std::size_t label_column) override;
  /// Block kernel over the flattened node table: every pass moves each row
  /// of the block down one level, branch-free, until no row moves. The
  /// spans point at the reached nodes' Laplace distributions cached at fit
  /// time; `scratch` is unused.
  void predict_block(const RowBlock& block, std::span<double> scratch,
                     std::span<std::span<const double>> dists) const override;
  const char* name() const override { return "C4.5"; }
  std::size_t label_cardinality() const override {
    return label_cardinality_ > 0
               ? static_cast<std::size_t>(label_cardinality_)
               : 0;
  }

  std::size_t node_count() const;
  std::size_t depth() const;

  /// Indented if/then rendering of the tree.
  std::string describe(
      const std::vector<std::string>& feature_names) const override;

 private:
  struct TreeNode {
    // Leaf when children is empty.
    std::vector<double> class_counts;  // training distribution at this node
    std::size_t split_column = 0;      // valid for internal nodes
    std::vector<std::unique_ptr<TreeNode>> children;  // per attribute value
  };

  /// Per-fit scratch arena: a row-index permutation recursed over as
  /// [begin, end) ranges (partitioned in place by stable counting sort into
  /// `scatter`), fused per-feature `value * labels + label` code arrays (so
  /// every candidate scan is one gather plus one increment per row), a
  /// histogram arena holding one private slice per candidate (candidates are
  /// scanned two at a time so one row-index load feeds both gathers, and the
  /// winner's surviving slice supplies the children's class counts with no
  /// rescan), and per-depth buffers for the state that must survive the
  /// recursion into children — allocated once per tree level, not per node.
  struct Candidate {
    std::size_t column = 0;
    double gain = 0;
    double ratio = 0;
    const double* counts = nullptr;  // this candidate's slice of the arena
  };
  struct ScanSlot {
    std::size_t column = 0;
    std::size_t values = 0;
    const std::int32_t* codes = nullptr;  // fused codes for this column
    double* counts = nullptr;             // private value*label histogram
  };
  struct LevelScratch {
    std::vector<std::size_t> remaining;    // candidate columns for children
    std::vector<std::size_t> child_begin;  // per-value partition offsets
  };
  struct FitScratch {
    std::vector<std::uint32_t> index;    // permuted row ids
    std::vector<std::uint32_t> scatter;  // counting-sort target
    std::vector<std::int32_t> codes;     // fused codes, [ordinal * rows + row]
    std::vector<std::size_t> ordinal;    // column id -> ordinal into `codes`
    std::vector<double> counts;          // candidate histograms, one slice each
    std::vector<ScanSlot> scans;         // per-node, dead before recursion
    std::vector<Candidate> candidates;   // same
    std::vector<std::size_t> cursor;     // counting-sort cursors, same
    std::vector<LevelScratch> levels;    // state outliving the recursion
    Log2Memo log2;                       // memoized entropy/split-info terms
    RatioMemo<PLog2PFn> plogp;           // shared small-count p*log2(p) table
    std::size_t rows = 0;
  };

  /// Grows the subtree under `node`, whose `class_counts` the caller has
  /// already filled (the root from the label column, children from the
  /// winning candidate's count slices).
  void grow(const DatasetView& view, FitScratch& scratch, TreeNode& node,
            std::size_t begin, std::size_t end, std::size_t depth,
            const std::vector<std::size_t>& available,
            std::size_t label_column);
  /// Pessimistic-error pruning; returns the subtree's estimated error count.
  double prune_node(TreeNode& node);
  /// Rebuilds the flattened node table from the (pruned) tree, including
  /// every node's Laplace distribution, so the per-predict smoothing
  /// arithmetic happens exactly once per node.
  void flatten();
  static std::size_t count_nodes(const TreeNode& node);
  static std::size_t subtree_depth(const TreeNode& node);

  C45Config config_;
  std::unique_ptr<TreeNode> root_;
  int label_cardinality_ = 0;
  // The tree in breadth-first struct-of-arrays form: node n tests column
  // split_column_[n] and its child for value v < child_count_[n] is node
  // first_child_[n] + v (a leaf has no children and tests column 0). Every
  // node, not just every leaf, has a distribution at
  // node_dist_[n * label_cardinality_]: a walk stops at an internal node
  // when it meets a value unseen there in training.
  std::vector<std::size_t> split_column_;
  std::vector<std::uint32_t> first_child_;
  std::vector<std::uint32_t> child_count_;
  std::vector<double> node_dist_;
};

}  // namespace xfa
