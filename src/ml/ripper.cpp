#include "ml/ripper.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"
#include "ml/log2_cache.h"
#include "sim/rng.h"

namespace xfa {
namespace {

using Word = std::uint64_t;

/// FOIL information value of a rule covering p positives and n negatives.
/// Counts are integral, so small (p, p+n) pairs index the ratio table
/// directly; larger ones fall back to the bit-pattern memo. Both return the
/// exact double log2(p / (p + n)) computes (bit-identical).
double foil_value(double p, double n, const RatioMemo<Log2Fn>& ratio,
                  Log2Memo& log2) {
  if (p <= 0) return -1e9;
  const double t = p + n;
  if (RatioMemo<Log2Fn>::covers(t)) return ratio(p, t);
  return log2(p / t);
}

/// Row counts of a set and of its target-class subset.
struct BitCounts {
  std::uint64_t all = 0;
  std::uint64_t pos = 0;
};

// The counting kernels carry a popcnt clone, picked at load time: at the
// baseline x86-64 ISA std::popcount is a library call per word. Counts are
// integers, so every clone gives the same rules. ThreadSanitizer builds keep
// the plain function: there the clone resolver runs before the TSan runtime
// is set up and the program crashes at load (GCC 12).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define XFA_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define XFA_POPCNT_CLONES
#endif

/// |x & m| and |y & m| over words [lo, hi).
XFA_POPCNT_CLONES BitCounts count_masked(
    const Word* x, const Word* y, const Word* m, std::size_t lo,
    std::size_t hi) {
  BitCounts counts;
  for (std::size_t w = lo; w < hi; ++w) {
    counts.all += static_cast<std::uint64_t>(std::popcount(x[w] & m[w]));
    counts.pos += static_cast<std::uint64_t>(std::popcount(y[w] & m[w]));
  }
  return counts;
}

/// x &= m over `words` words, then |x| and |x & t|.
XFA_POPCNT_CLONES BitCounts and_count(Word* x, const Word* m, const Word* t,
                                      std::size_t words) {
  BitCounts counts;
  for (std::size_t w = 0; w < words; ++w) {
    x[w] &= m[w];
    counts.all += static_cast<std::uint64_t>(std::popcount(x[w]));
    counts.pos += static_cast<std::uint64_t>(std::popcount(x[w] & t[w]));
  }
  return counts;
}

/// Calls fn(row) for every set bit of words [lo, hi), in ascending order.
template <typename Fn>
void for_each_row(const std::vector<Word>& bits, std::size_t lo,
                  std::size_t hi, Fn fn) {
  for (std::size_t w = lo; w < hi; ++w)
    for (Word word = bits[w]; word != 0; word &= word - 1)
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
}

}  // namespace

Ripper::Ripper(const RipperConfig& config) : config_(config) {
  // A fraction above one would size the grow set past the pool.
  XFA_CHECK(config_.grow_fraction > 0.0 && config_.grow_fraction <= 1.0)
      << "grow_fraction must lie in (0, 1]";
  XFA_CHECK(config_.min_prune_precision >= 0.0 &&
            config_.min_prune_precision <= 1.0)
      << "min_prune_precision must lie in [0, 1]";
}

// Every set of rows below is a bitset over the view's rows (DatasetView::
// row_bits layout), so a conjunction's cover is an AND of words and each
// p/n count a popcount. Counts are integers, candidates are visited in
// feature order under a strict tie rule, and the pool is shuffled from
// ascending row order, so the rule list equals a per-row counting fit's.
void Ripper::fit(const DatasetView& view,
                 const std::vector<std::size_t>& feature_columns,
                 std::size_t label_column) {
  XFA_CHECK_GT(view.rows(), 0u);
  rules_.clear();
  label_cardinality_ = view.cardinality(label_column);
  const auto classes = static_cast<std::size_t>(label_cardinality_);
  const std::span<const std::int32_t> label_data = view.column(label_column);
  const std::size_t words = view.words();

  // Order classes by ascending frequency; the most frequent is the default.
  std::vector<double> class_freq(classes, 0);
  for (std::size_t i = 0; i < view.rows(); ++i)
    class_freq[static_cast<std::size_t>(label_data[i])] += 1.0;
  std::vector<int> order(classes);
  for (std::size_t c = 0; c < classes; ++c) order[c] = static_cast<int>(c);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return class_freq[static_cast<std::size_t>(a)] <
           class_freq[static_cast<std::size_t>(b)];
  });

  // Pool of uncovered examples: every row, with the tail word's bits past
  // rows() left clear.
  std::vector<Word> pool(words, ~Word{0});
  if (view.rows() % 64 != 0) pool.back() = (Word{1} << (view.rows() % 64)) - 1;
  Rng rng(config_.shuffle_seed);

  // Scratch reused across every grow/prune iteration: the shuffled pool,
  // the grow rows the rule covers (and their positives), the prune rows
  // (narrowed condition by condition), the rule's cover in the pool, and
  // one candidate's pos/neg counters.
  std::vector<std::size_t> shuffled;
  std::vector<Word> covered(words), covered_pos(words), pruned(words),
      pool_cover(words);
  std::vector<double> pn(2 * static_cast<std::size_t>(view.max_cardinality()));
  std::vector<double> pos_at, neg_at;
  std::vector<bool> column_used;
  RatioMemo<Log2Fn> ratio_log2;
  Log2Memo log2;

  for (std::size_t ci = 0; ci + 1 < classes; ++ci) {
    const int target = order[ci];
    if (class_freq[static_cast<std::size_t>(target)] <= 0) continue;
    const Word* const target_bits = view.row_bits(label_column, target).data();

    for (std::size_t r = 0; r < config_.max_rules_per_class; ++r) {
      // Any positives left in the pool?
      bool has_positive = false;
      for (std::size_t w = 0; w < words && !has_positive; ++w)
        has_positive = (pool[w] & target_bits[w]) != 0;
      if (!has_positive) break;

      // Split pool into grow / prune subsets: Fisher-Yates over the pool's
      // rows in ascending order; the prune set is positions
      // [grow_size, size).
      shuffled.clear();
      for_each_row(pool, 0, words,
                   [&](std::size_t i) { shuffled.push_back(i); });
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(rng.uniform_int(i))]);
      const std::size_t grow_size = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(shuffled.size()) * config_.grow_fraction));
      std::fill(pruned.begin(), pruned.end(), 0);
      for (std::size_t k = grow_size; k < shuffled.size(); ++k)
        pruned[shuffled[k] / 64] |= Word{1} << (shuffled[k] % 64);

      // ---- Grow: greedily add conditions maximizing FOIL gain. ----
      Rule rule;
      rule.target_class = target;
      column_used.assign(view.columns(), false);
      for (std::size_t w = 0; w < words; ++w) {
        covered[w] = pool[w] & ~pruned[w];
        covered_pos[w] = covered[w] & target_bits[w];
      }
      // p/n over the covered set: counted once up front, then carried from
      // the winning candidate's counts (exactly the filtered set's class
      // split).
      const BitCounts grown = count_masked(covered.data(), covered_pos.data(),
                                           covered.data(), 0, words);
      auto p = static_cast<double>(grown.pos);
      auto n = static_cast<double>(grown.all - grown.pos);
      // [lo, hi) spans the covered set's non-zero words.
      std::size_t lo = 0, hi = words;
      while (true) {
        if (n == 0 || p == 0) break;  // pure (or hopeless) on the grow set
        while (covered[lo] == 0) ++lo;
        while (covered[hi - 1] == 0) --hi;
        const double base = foil_value(p, n, ratio_log2, log2);

        // pn[2v+1] counts the candidate's covered positives at value v,
        // pn[2v] its negatives.
        double best_gain = 1e-9;
        std::size_t best_column = 0;
        int best_value = -1;
        double best_pos = 0, best_neg = 0;
        for (const std::size_t col : feature_columns) {
          if (col == label_column || column_used[col]) continue;
          const auto values = static_cast<std::size_t>(view.cardinality(col));
          for (std::size_t v = 0; v < values; ++v) {
            const BitCounts counts = count_masked(
                covered.data(), covered_pos.data(),
                view.row_bits(col, static_cast<int>(v)).data(), lo, hi);
            pn[2 * v + 1] = static_cast<double>(counts.pos);
            pn[2 * v] = static_cast<double>(counts.all - counts.pos);
          }
          for (std::size_t v = 0; v < values; ++v) {
            const double pos = pn[2 * v + 1];
            if (pos <= 0) continue;
            const double gain =
                pos * (foil_value(pos, pn[2 * v], ratio_log2, log2) - base);
            if (gain > best_gain) {
              best_gain = gain;
              best_column = col;
              best_value = static_cast<int>(v);
              best_pos = pos;
              best_neg = pn[2 * v];
            }
          }
        }
        if (best_value < 0) break;  // no condition improves the rule
        p = best_pos;
        n = best_neg;
        rule.conditions.push_back(Condition{best_column, best_value});
        column_used[best_column] = true;
        const Word* const best_bits =
            view.row_bits(best_column, best_value).data();
        for (std::size_t w = lo; w < hi; ++w) {
          covered[w] &= best_bits[w];
          covered_pos[w] &= best_bits[w];
        }
      }
      if (rule.conditions.empty()) break;  // nothing discriminative left

      // ---- Prune: drop trailing conditions to maximize (p-n)/(p+n). ----
      // After k conditions `pruned` holds the prune rows matching the first
      // k of them, so (pos_at[k], neg_at[k]) is the (p, n) of keeping k
      // (index 0 unused). An empty prune set scores every keep -1 and keeps
      // them all.
      const std::size_t conditions = rule.conditions.size();
      pos_at.assign(conditions + 1, 0.0);
      neg_at.assign(conditions + 1, 0.0);
      for (std::size_t k = 1; k <= conditions; ++k) {
        const Condition& condition = rule.conditions[k - 1];
        const BitCounts counts =
            and_count(pruned.data(),
                      view.row_bits(condition.column, condition.value).data(),
                      target_bits, words);
        pos_at[k] = static_cast<double>(counts.pos);
        neg_at[k] = static_cast<double>(counts.all - counts.pos);
      }
      const auto prune_value = [&](std::size_t keep) {
        const double kp = pos_at[keep], kn = neg_at[keep];
        return kp + kn == 0 ? -1.0 : (kp - kn) / (kp + kn);
      };
      std::size_t best_keep = conditions;
      double best_value = prune_value(best_keep);
      for (std::size_t keep = conditions; keep-- > 1;) {
        const double value = prune_value(keep);
        if (value > best_value) {
          best_value = value;
          best_keep = keep;
        }
      }
      rule.conditions.resize(best_keep);

      // ---- Accept or stop: pruned-rule precision on the pool. ----
      pool_cover = pool;
      BitCounts cover;
      for (const Condition& condition : rule.conditions)
        cover = and_count(
            pool_cover.data(),
            view.row_bits(condition.column, condition.value).data(),
            target_bits, words);
      const auto pool_p = static_cast<double>(cover.pos);
      const auto pool_n = static_cast<double>(cover.all - cover.pos);
      if (pool_p + pool_n == 0 ||
          pool_p / (pool_p + pool_n) < config_.min_prune_precision)
        break;

      // Record the training class distribution of covered examples, cache
      // its Laplace smoothing (the per-predict arithmetic, done once), and
      // remove them from the pool.
      rule.class_counts.assign(classes, 0);
      for_each_row(pool_cover, 0, words, [&](std::size_t i) {
        rule.class_counts[static_cast<std::size_t>(label_data[i])] += 1.0;
      });
      rule.dist = laplace_distribution(rule.class_counts);
      rules_.push_back(std::move(rule));
      for (std::size_t w = 0; w < words; ++w) pool[w] &= ~pool_cover[w];
    }
  }

  // Default distribution: whatever the rules never covered (falling back to
  // the full training distribution if everything was covered).
  default_counts_.assign(classes, 0);
  for_each_row(pool, 0, words, [&](std::size_t i) {
    default_counts_[static_cast<std::size_t>(label_data[i])] += 1.0;
  });
  double total = 0;
  for (const double c : default_counts_) total += c;
  if (total == 0) default_counts_ = class_freq;
  default_dist_ = laplace_distribution(default_counts_);
}

std::string Ripper::describe(
    const std::vector<std::string>& feature_names) const {
  const auto name_of = [&](std::size_t column) -> std::string {
    if (column < feature_names.size()) return feature_names[column];
    // Built up with += rather than `"f" + std::to_string(...)`: GCC 12's
    // -Wrestrict misfires on that operator+ chain at -O3 under -Werror.
    std::string fallback = "f";
    fallback += std::to_string(column);
    return fallback;
  };
  std::string out;
  for (const Rule& rule : rules_) {
    out += "IF ";
    for (std::size_t i = 0; i < rule.conditions.size(); ++i) {
      if (i > 0) out += " AND ";
      out += name_of(rule.conditions[i].column) + "=" +
             std::to_string(rule.conditions[i].value);
    }
    double covered = 0;
    for (const double c : rule.class_counts) covered += c;
    out += " THEN class " + std::to_string(rule.target_class) + "  (" +
           std::to_string(static_cast<long>(
               rule.class_counts[static_cast<std::size_t>(
                   rule.target_class)])) +
           "/" + std::to_string(static_cast<long>(covered)) + ")\n";
  }
  int default_class = 0;
  for (std::size_t v = 1; v < default_counts_.size(); ++v)
    if (default_counts_[v] > default_counts_[static_cast<std::size_t>(
            default_class)])
      default_class = static_cast<int>(v);
  out += "ELSE class " + std::to_string(default_class) + "\n";
  return out;
}

void Ripper::predict_block(const RowBlock& block,
                           std::span<double> /*scratch*/,
                           std::span<std::span<const double>> dists) const {
  XFA_CHECK(label_cardinality_ > 0) << "predict before fit";
  XFA_CHECK(block.rows >= 1 && block.rows <= kScoreBlock);
  XFA_CHECK_GE(dists.size(), block.rows);
  // Bit r of a mask stands for row r of the block. First match wins: a
  // row leaves `open` at the first rule whose conditions' equality masks
  // all cover it.
  std::uint64_t open = ~std::uint64_t{0} >> (kScoreBlock - block.rows);
  for (const Rule& rule : rules_) {
    if (open == 0) break;
    std::uint64_t hit = open;
    for (const Condition& condition : rule.conditions) {
      const std::int32_t* const values = block.column(condition.column);
      std::uint64_t equal = 0;
      for (std::size_t r = 0; r < block.rows; ++r)
        equal |= static_cast<std::uint64_t>(values[r] == condition.value) << r;
      hit &= equal;
      if (hit == 0) break;
    }
    open &= ~hit;
    for (; hit != 0; hit &= hit - 1)
      dists[static_cast<std::size_t>(std::countr_zero(hit))] = rule.dist;
  }
  for (; open != 0; open &= open - 1)
    dists[static_cast<std::size_t>(std::countr_zero(open))] = default_dist_;
}

}  // namespace xfa
