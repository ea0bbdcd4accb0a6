#include "ml/c45.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "ml/log2_cache.h"

namespace xfa {
namespace {

double entropy(std::span<const double> counts, double total, Log2Memo& log2) {
  if (total <= 0) return 0.0;
  double h = 0;
  for (const double c : counts) {
    if (c > 0) {
      const double p = c / total;
      h -= p * log2(p);
    }
  }
  return h;
}

/// Upper confidence bound on the error rate of a leaf that misclassifies
/// `errors` of `n` examples (Quinlan's pessimistic estimate; normal
/// approximation to the binomial upper limit with confidence CF).
double pessimistic_errors(double n, double errors, double cf) {
  if (n <= 0) return 0.0;
  // z for the one-sided upper bound at confidence cf (cf=0.25 -> z~0.6745).
  // Inverse normal CDF via Acklam-lite rational approximation is overkill;
  // for the CF range C4.5 uses (0.05..0.5) a small table + interpolation is
  // plenty and keeps this dependency-free.
  static constexpr struct {
    double cf, z;
  } kTable[] = {{0.05, 1.6449}, {0.10, 1.2816}, {0.20, 0.8416},
                {0.25, 0.6745}, {0.33, 0.4399}, {0.50, 0.0}};
  // Clamp to the table's supported range instead of silently falling back
  // to the cf=0.25 z-value outside it (C45's constructor rejects configs
  // beyond (0, 0.5], so the clamp only matters for direct callers).
  cf = std::clamp(cf, kTable[0].cf, kTable[std::size(kTable) - 1].cf);
  double z = kTable[0].z;
  for (std::size_t i = 1; i < std::size(kTable); ++i) {
    if (cf <= kTable[i].cf) {
      const auto& a = kTable[i - 1];
      const auto& b = kTable[i];
      const double frac = (cf - a.cf) / (b.cf - a.cf);
      z = a.z + frac * (b.z - a.z);
      break;
    }
  }
  const double f = errors / n;
  const double z2 = z * z;
  const double bound =
      (f + z2 / (2 * n) + z * std::sqrt(f / n - f * f / n + z2 / (4 * n * n))) /
      (1 + z2 / n);
  return bound * n;
}

}  // namespace

C45::C45(const C45Config& config) : config_(config) {
  // The pessimistic-error z table covers (0, 0.5]; a CF above one half would
  // mean pruning on an *optimistic* error bound, which is never intended.
  XFA_CHECK_GT(config_.prune_confidence, 0.0)
      << "prune_confidence must be positive";
  XFA_CHECK_LE(config_.prune_confidence, 0.5)
      << "prune_confidence beyond 0.5 is outside the pessimistic-bound range";
}

void C45::fit(const DatasetView& view,
              const std::vector<std::size_t>& feature_columns,
              std::size_t label_column) {
  XFA_CHECK_GT(view.rows(), 0u);
  XFA_CHECK_LT(label_column, view.columns());
  label_cardinality_ = view.cardinality(label_column);
  const auto labels = static_cast<std::size_t>(label_cardinality_);
  const std::span<const std::int32_t> label_data = view.column(label_column);

  FitScratch scratch;
  scratch.rows = view.rows();
  scratch.index.resize(view.rows());
  for (std::size_t i = 0; i < view.rows(); ++i)
    scratch.index[i] = static_cast<std::uint32_t>(i);
  scratch.scatter.resize(view.rows());
  // Fused `value * labels + label` codes, one array per feature: the joint
  // (value, label) histogram every candidate needs becomes a single gather
  // plus a single increment per row.
  scratch.ordinal.assign(view.columns(), 0);
  scratch.codes.resize(feature_columns.size() * view.rows());
  for (std::size_t f = 0; f < feature_columns.size(); ++f) {
    scratch.ordinal[feature_columns[f]] = f;
    const std::span<const std::int32_t> col = view.column(feature_columns[f]);
    std::int32_t* const codes = scratch.codes.data() + f * view.rows();
    for (std::size_t r = 0; r < view.rows(); ++r)
      codes[r] = col[r] * label_cardinality_ + label_data[r];
  }
  // One private histogram slice per candidate so the winner's counts survive
  // the whole evaluation pass (children inherit them, no rescan).
  scratch.counts.resize(feature_columns.size() *
                        static_cast<std::size_t>(view.max_cardinality()) *
                        labels);
  // Depth is bounded by the feature count (every split consumes one), so the
  // per-level buffers can be pre-sized: ancestors hold references into
  // `levels` across the recursion, which must therefore never reallocate.
  scratch.levels.resize(feature_columns.size() + 1);

  root_ = std::make_unique<TreeNode>();
  root_->class_counts.assign(labels, 0.0);
  for (std::size_t r = 0; r < view.rows(); ++r)
    root_->class_counts[static_cast<std::size_t>(label_data[r])] += 1.0;
  grow(view, scratch, *root_, 0, view.rows(), 0, feature_columns,
       label_column);
  if (config_.prune) prune_node(*root_);
  flatten();
}

void C45::grow(const DatasetView& view, FitScratch& scratch, TreeNode& node,
               std::size_t begin, std::size_t end, std::size_t depth,
               const std::vector<std::size_t>& available,
               std::size_t label_column) {
  const auto labels = static_cast<std::size_t>(label_cardinality_);

  const double total = static_cast<double>(end - begin);
  const double node_entropy =
      entropy(node.class_counts, total, scratch.log2);
  const bool pure = std::count_if(node.class_counts.begin(),
                                  node.class_counts.end(),
                                  [](double c) { return c > 0; }) <= 1;
  if (pure || available.empty() || end - begin < config_.min_split_samples)
    return;

  // Evaluate every candidate attribute: information gain and split info.
  // Each candidate gets a private slice of the histogram arena (value-major,
  // label-minor), so the winner's counts are still live after the pass.
  const std::size_t slice =
      static_cast<std::size_t>(view.max_cardinality()) * labels;
  std::vector<ScanSlot>& scans = scratch.scans;
  scans.clear();
  for (const std::size_t col : available) {
    const auto values = static_cast<std::size_t>(view.cardinality(col));
    if (values < 2) continue;
    ScanSlot s;
    s.column = col;
    s.values = values;
    s.codes = scratch.codes.data() + scratch.ordinal[col] * scratch.rows;
    s.counts = scratch.counts.data() + scans.size() * slice;
    std::fill_n(s.counts, values * labels, 0.0);
    scans.push_back(s);
  }
  // Histogram pass, two candidates at a time: one row-index load feeds both
  // fused-code gathers. Each bucket still receives exactly its own +1.0
  // increments in row order, so every histogram is bit-identical to the
  // one-candidate-at-a-time scan.
  std::size_t pair = 0;
  for (; pair + 1 < scans.size(); pair += 2) {
    const ScanSlot& a = scans[pair];
    const ScanSlot& b = scans[pair + 1];
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = scratch.index[i];
      a.counts[static_cast<std::size_t>(a.codes[r])] += 1.0;
      b.counts[static_cast<std::size_t>(b.codes[r])] += 1.0;
    }
  }
  if (pair < scans.size()) {
    const ScanSlot& a = scans[pair];
    for (std::size_t i = begin; i < end; ++i)
      a.counts[static_cast<std::size_t>(a.codes[scratch.index[i]])] += 1.0;
  }
  std::vector<Candidate>& candidates = scratch.candidates;
  candidates.clear();
  for (const ScanSlot& s : scans) {
    const std::size_t values = s.values;
    const double* const counts = s.counts;
    // One fused pass per value: total (the row sum of the joint counts —
    // integral additions, exactly the doubles the interleaved increments
    // produced), then the value's entropy and split-info terms, with no
    // intermediate totals array and no out-of-line entropy call. Every
    // double operation happens in the same order as the two-pass version.
    double conditional = 0, split_info = 0;
    std::size_t non_empty = 0;
    // Counts are integral, so each p*log2(p) term is keyed by its (count,
    // total) pair: small totals hit the direct-indexed table, large ones
    // fall back to the bit-pattern memo — both return the exact double the
    // division-plus-log2 computes.
    const bool small = RatioMemo<PLog2PFn>::covers(total);
    for (std::size_t v = 0; v < values; ++v) {
      const double* const bucket = counts + v * labels;
      double t = 0;
      for (std::size_t l = 0; l < labels; ++l) t += bucket[l];
      if (t <= 0) continue;
      ++non_empty;
      double h = 0;
      if (small) {  // t <= total, so the whole value fits the pair table
        for (std::size_t l = 0; l < labels; ++l)
          if (bucket[l] > 0) h -= scratch.plogp(bucket[l], t);
        split_info -= scratch.plogp(t, total);
      } else {
        for (std::size_t l = 0; l < labels; ++l) {
          if (bucket[l] > 0) {
            const double p = bucket[l] / t;
            h -= p * scratch.log2(p);
          }
        }
        const double w = t / total;
        split_info -= w * scratch.log2(w);
      }
      conditional += (t / total) * h;
    }
    if (non_empty < 2 || split_info <= 0) continue;
    Candidate c;
    c.column = s.column;
    c.gain = node_entropy - conditional;
    c.ratio = c.gain / split_info;
    c.counts = counts;
    if (c.gain > 1e-12) candidates.push_back(c);
  }
  if (candidates.empty()) return;

  // C4.5's admissibility rule: choose the best gain *ratio* among attributes
  // whose gain is at least the average gain of all candidates.
  double avg_gain = 0;
  for (const Candidate& c : candidates) avg_gain += c.gain;
  avg_gain /= static_cast<double>(candidates.size());
  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    if (c.gain + 1e-12 >= avg_gain && (best == nullptr || c.ratio > best->ratio))
      best = &c;
  }
  if (best == nullptr) return;

  node.split_column = best->column;
  LevelScratch& level = scratch.levels[depth];
  std::vector<std::size_t>& remaining = level.remaining;
  remaining.clear();
  for (const std::size_t col : available)
    if (col != best->column) remaining.push_back(col);

  // The winner's histogram slice is still live: its per-value rows are
  // exactly the children's class counts, and its totals drive the counting
  // sort — children skip both their class-count pass and the histogram pass,
  // and the old winner-column rescan over the node's rows is gone entirely.
  const auto values = static_cast<std::size_t>(
      view.cardinality(best->column));
  const double* const counts = best->counts;

  std::vector<std::size_t>& child_begin = level.child_begin;
  child_begin.assign(values + 1, 0);
  for (std::size_t v = 0; v < values; ++v) {
    double t = 0;
    for (std::size_t l = 0; l < labels; ++l) t += counts[v * labels + l];
    child_begin[v + 1] = child_begin[v] + static_cast<std::size_t>(t);
  }

  // Children are created (class counts inherited from the winner's slices)
  // before any recursion, because descendants clobber the scratch counts.
  node.children.resize(values);
  for (std::size_t v = 0; v < values; ++v) {
    auto child = std::make_unique<TreeNode>();
    if (child_begin[v] == child_begin[v + 1]) {
      // Empty branch: a leaf inheriting the parent distribution.
      child->class_counts = node.class_counts;
    } else {
      child->class_counts.assign(counts + v * labels,
                                 counts + (v + 1) * labels);
    }
    node.children[v] = std::move(child);
  }

  // Stable counting sort of the index range by split value: children see
  // rows in the same relative order the per-value row-id vectors used to
  // produce, so the grown tree is identical.
  const std::span<const std::int32_t> split_data = view.column(best->column);
  {
    std::vector<std::size_t>& cursor = scratch.cursor;
    cursor.assign(child_begin.begin(), child_begin.begin() + values);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = scratch.index[i];
      const auto v = static_cast<std::size_t>(split_data[r]);
      scratch.scatter[begin + cursor[v]++] = r;
    }
  }
  std::copy(scratch.scatter.begin() + static_cast<std::ptrdiff_t>(begin),
            scratch.scatter.begin() + static_cast<std::ptrdiff_t>(end),
            scratch.index.begin() + static_cast<std::ptrdiff_t>(begin));

  for (std::size_t v = 0; v < values; ++v) {
    if (child_begin[v] == child_begin[v + 1]) continue;
    grow(view, scratch, *node.children[v], begin + child_begin[v],
         begin + child_begin[v + 1], depth + 1, remaining, label_column);
  }
}

double C45::prune_node(TreeNode& node) {
  double total = 0, best = 0;
  for (const double c : node.class_counts) {
    total += c;
    best = std::max(best, c);
  }
  const double leaf_errors =
      pessimistic_errors(total, total - best, config_.prune_confidence);
  if (node.children.empty()) return leaf_errors;

  double subtree_errors = 0;
  for (const auto& child : node.children)
    subtree_errors += prune_node(*child);

  if (leaf_errors <= subtree_errors + 0.1) {
    // Replace the subtree with a leaf.
    node.children.clear();
    return leaf_errors;
  }
  return subtree_errors;
}

void C45::flatten() {
  split_column_.clear();
  first_child_.clear();
  child_count_.clear();
  node_dist_.clear();
  // Exact reservations: the table outlives fit's scratch, so growth-by-
  // doubling would leave freed holes among long-lived allocations.
  const std::size_t nodes = count_nodes(*root_);
  split_column_.reserve(nodes);
  first_child_.reserve(nodes);
  child_count_.reserve(nodes);
  node_dist_.reserve(nodes * static_cast<std::size_t>(label_cardinality_));
  std::vector<const TreeNode*> order{root_.get()};
  order.reserve(nodes);
  for (std::size_t n = 0; n < order.size(); ++n) {
    const TreeNode& node = *order[n];
    split_column_.push_back(node.children.empty() ? 0 : node.split_column);
    first_child_.push_back(static_cast<std::uint32_t>(order.size()));
    child_count_.push_back(static_cast<std::uint32_t>(node.children.size()));
    for (const auto& child : node.children) order.push_back(child.get());
    const std::vector<double> dist = laplace_distribution(node.class_counts);
    node_dist_.insert(node_dist_.end(), dist.begin(), dist.end());
  }
}

void C45::predict_block(const RowBlock& block, std::span<double> /*scratch*/,
                        std::span<std::span<const double>> dists) const {
  XFA_CHECK(root_ != nullptr) << "predict before fit";
  XFA_CHECK_LE(block.rows, kScoreBlock);
  XFA_CHECK_GE(dists.size(), block.rows);
  // All rows start at the root. A row at a leaf, or at a node whose split
  // value it never saw in training (negative values wrap to huge unsigned
  // ones), stays where it is.
  std::uint32_t node[kScoreBlock] = {};
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t r = 0; r < block.rows; ++r) {
      const std::uint32_t n = node[r];
      const auto v =
          static_cast<std::uint32_t>(block.column(split_column_[n])[r]);
      const std::uint32_t next = v < child_count_[n] ? first_child_[n] + v : n;
      moved |= next != n;
      node[r] = next;
    }
  }
  const auto classes = static_cast<std::size_t>(label_cardinality_);
  for (std::size_t r = 0; r < block.rows; ++r)
    dists[r] = {node_dist_.data() + node[r] * classes, classes};
}

std::size_t C45::count_nodes(const TreeNode& node) {
  std::size_t count = 1;
  for (const auto& child : node.children) count += count_nodes(*child);
  return count;
}

std::size_t C45::node_count() const {
  return root_ ? count_nodes(*root_) : 0;
}

std::string C45::describe(
    const std::vector<std::string>& feature_names) const {
  std::string out;
  const auto name_of = [&](std::size_t column) -> std::string {
    if (column < feature_names.size()) return feature_names[column];
    // Built up with += rather than `"f" + std::to_string(...)`: GCC 12's
    // -Wrestrict misfires on that operator+ chain at -O3 under -Werror.
    std::string fallback = "f";
    fallback += std::to_string(column);
    return fallback;
  };
  const std::function<void(const TreeNode&, int)> visit =
      [&](const TreeNode& node, int indent) {
        if (node.children.empty()) {
          double total = 0, best = 0;
          std::size_t best_class = 0;
          for (std::size_t v = 0; v < node.class_counts.size(); ++v) {
            total += node.class_counts[v];
            if (node.class_counts[v] > best) {
              best = node.class_counts[v];
              best_class = v;
            }
          }
          out += "-> class " + std::to_string(best_class) + "  (" +
                 std::to_string(static_cast<long>(best)) + "/" +
                 std::to_string(static_cast<long>(total)) + ")\n";
          return;
        }
        out += "split on " + name_of(node.split_column) + "\n";
        for (std::size_t v = 0; v < node.children.size(); ++v) {
          out.append(static_cast<std::size_t>(indent + 2), ' ');
          out += "= " + std::to_string(v) + ": ";
          visit(*node.children[v], indent + 2);
        }
      };
  if (root_) visit(*root_, 0);
  return out;
}

std::size_t C45::subtree_depth(const TreeNode& node) {
  std::size_t deepest = 0;
  for (const auto& child : node.children)
    deepest = std::max(deepest, subtree_depth(*child));
  return deepest + 1;
}

std::size_t C45::depth() const { return root_ ? subtree_depth(*root_) : 0; }

}  // namespace xfa
