#include "ml/ripper.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/serial.h"
#include "ml/log2_cache.h"
#include "sim/rng.h"

namespace xfa {
namespace {

/// FOIL information value of a rule covering p positives and n negatives.
/// Counts are integral, so small (p, p+n) pairs index the ratio table
/// directly; larger ones fall back to the bit-pattern memo. Both return the
/// exact double log2(p / (p + n)) produced the first time (bit-identical).
double foil_value(double p, double n, RatioMemo<Log2Fn>& ratio,
                  Log2Memo& log2) {
  if (p <= 0) return -1e9;
  const double t = p + n;
  if (RatioMemo<Log2Fn>::covers(t)) return ratio(p, t);
  return log2(p / t);
}

/// One grow-phase candidate column with its private slice of the pn arena.
struct CandidateScan {
  std::size_t column = 0;
  std::size_t values = 0;
  const std::int32_t* codes = nullptr;
  double* pn = nullptr;
};

}  // namespace

Ripper::Ripper(const RipperConfig& config) : config_(config) {}

bool Ripper::matches_view(const Rule& rule, const DatasetView& view,
                          std::size_t row, std::size_t keep_conditions) {
  for (std::size_t k = 0; k < keep_conditions; ++k) {
    const Condition& condition = rule.conditions[k];
    if (view.column(condition.column)[row] != condition.value) return false;
  }
  return true;
}

void Ripper::fit(const DatasetView& view,
                 const std::vector<std::size_t>& feature_columns,
                 std::size_t label_column) {
  XFA_CHECK_GT(view.rows(), 0u);
  rules_.clear();
  label_cardinality_ = view.cardinality(label_column);
  const auto classes = static_cast<std::size_t>(label_cardinality_);
  const std::span<const std::int32_t> label_data = view.column(label_column);

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

  // Pool of uncovered examples (row indices into the view).
  std::vector<std::size_t> pool(view.rows());
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  Rng rng(config_.shuffle_seed);

  // Scratch reused across every grow/prune iteration: the shuffled pool
  // split, the covered-row set, the coverage-counter arena (one private
  // pos/neg slice per candidate column, so pairs of candidates can share
  // each covered-row load), and the per-rule covered pool.
  std::vector<std::size_t> shuffled, covered, pool_covered;
  const std::size_t slice = 2 * static_cast<std::size_t>(view.max_cardinality());
  std::vector<double> pn(feature_columns.size() * slice);
  std::vector<CandidateScan> active;
  active.reserve(feature_columns.size());
  std::vector<bool> column_used;
  // Fused `value * 2 + is-target` codes, one array per feature, rebuilt per
  // target class: the grow loop's candidate scans become a single gather
  // plus a single increment per covered row. The F * rows rebuild is repaid
  // many times over by the per-condition scans.
  std::vector<std::int32_t> codes(feature_columns.size() * view.rows());
  RatioMemo<Log2Fn> ratio_log2;
  Log2Memo log2;

  for (std::size_t ci = 0; ci + 1 < classes; ++ci) {
    const int target = order[ci];
    if (class_freq[static_cast<std::size_t>(target)] <= 0) continue;

    for (std::size_t f = 0; f < feature_columns.size(); ++f) {
      const std::span<const std::int32_t> col =
          view.column(feature_columns[f]);
      std::int32_t* const class_codes = codes.data() + f * view.rows();
      for (std::size_t i = 0; i < view.rows(); ++i)
        class_codes[i] = col[i] * 2 + (label_data[i] == target ? 1 : 0);
    }

    for (std::size_t r = 0; r < config_.max_rules_per_class; ++r) {
      // Any positives left in the pool?
      bool has_positive = false;
      for (const std::size_t i : pool) {
        if (label_data[i] == target) {
          has_positive = true;
          break;
        }
      }
      if (!has_positive) break;

      // Split pool into grow / prune subsets. `shuffled` is reused; the
      // Fisher-Yates draw order matches the old freshly-allocated copy.
      shuffled.assign(pool.begin(), pool.end());
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(rng.uniform_int(i))]);
      const std::size_t grow_size = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(shuffled.size()) * config_.grow_fraction));
      const std::span<const std::size_t> grow(shuffled.data(), grow_size);
      const std::span<const std::size_t> prune(shuffled.data() + grow_size,
                                               shuffled.size() - grow_size);

      // ---- Grow: greedily add conditions maximizing FOIL gain. ----
      Rule rule;
      rule.target_class = target;
      covered.assign(grow.begin(), grow.end());
      column_used.assign(view.columns(), false);
      // p/n over the covered set: counted once up front, then carried from
      // the winning candidate's counters (the filtered set's counts are
      // exactly pn[2*best_value+1] / pn[2*best_value] — same integral sums
      // the per-iteration rescan produced).
      double p = 0, n = 0;
      for (const std::size_t i : covered)
        (label_data[i] == target ? p : n) += 1.0;
      while (true) {
        if (n == 0 || p == 0) break;  // pure (or hopeless) on the grow set
        const double base = foil_value(p, n, ratio_log2, log2);

        // Candidates still available this iteration, each with a private
        // pn slice; pn[2v+1] counts positives at value v, pn[2v] negatives —
        // the same integral sums the separate pos/neg increments produced.
        active.clear();
        for (std::size_t f = 0; f < feature_columns.size(); ++f) {
          const std::size_t col = feature_columns[f];
          if (col == label_column || column_used[col]) continue;
          CandidateScan s;
          s.column = col;
          s.values = static_cast<std::size_t>(view.cardinality(col));
          s.codes = codes.data() + f * view.rows();
          s.pn = pn.data() + active.size() * slice;
          std::fill_n(s.pn, 2 * s.values, 0.0);
          active.push_back(s);
        }
        // Histogram pass, two candidates at a time: one covered-row load
        // feeds both fused-code gathers; every bucket still receives exactly
        // its own +1.0 increments in covered order (bit-identical).
        std::size_t pair = 0;
        for (; pair + 1 < active.size(); pair += 2) {
          const CandidateScan& a = active[pair];
          const CandidateScan& b = active[pair + 1];
          for (const std::size_t i : covered) {
            a.pn[static_cast<std::size_t>(a.codes[i])] += 1.0;
            b.pn[static_cast<std::size_t>(b.codes[i])] += 1.0;
          }
        }
        if (pair < active.size()) {
          const CandidateScan& a = active[pair];
          for (const std::size_t i : covered)
            a.pn[static_cast<std::size_t>(a.codes[i])] += 1.0;
        }

        double best_gain = 1e-9;
        std::size_t best_column = 0;
        int best_value = -1;
        double best_pos = 0, best_neg = 0;
        for (const CandidateScan& s : active) {
          for (std::size_t v = 0; v < s.values; ++v) {
            const double pos = s.pn[2 * v + 1];
            if (pos <= 0) continue;
            const double gain =
                pos * (foil_value(pos, s.pn[2 * v], ratio_log2, log2) - base);
            if (gain > best_gain) {
              best_gain = gain;
              best_column = s.column;
              best_value = static_cast<int>(v);
              best_pos = pos;
              best_neg = s.pn[2 * v];
            }
          }
        }
        if (best_value < 0) break;  // no condition improves the rule
        // The filtered covered set's class split was already counted by the
        // winning candidate's scan.
        p = best_pos;
        n = best_neg;
        rule.conditions.push_back(Condition{best_column, best_value});
        column_used[best_column] = true;
        const std::span<const std::int32_t> best_data =
            view.column(best_column);
        std::erase_if(covered, [&](std::size_t i) {
          return best_data[i] != best_value;
        });
      }
      if (rule.conditions.empty()) break;  // nothing discriminative left

      // ---- Prune: drop trailing conditions to maximize (p-n)/(p+n). ----
      // Conditions are prefix-nested, so a row matches the first `keep`
      // conditions iff its first failing condition index is >= keep. One
      // pass buckets each prune row by that fail index; suffix sums then
      // yield every keep's (p, n) — the same integral counts the old
      // per-keep rescan produced, at a conditions-times lower cost.
      if (!prune.empty()) {
        const std::size_t conditions = rule.conditions.size();
        std::vector<double> pos_at(conditions + 1, 0.0);
        std::vector<double> neg_at(conditions + 1, 0.0);
        for (const std::size_t i : prune) {
          std::size_t fail = conditions;
          for (std::size_t k = 0; k < conditions; ++k) {
            const Condition& condition = rule.conditions[k];
            if (view.column(condition.column)[i] != condition.value) {
              fail = k;
              break;
            }
          }
          (label_data[i] == target ? pos_at : neg_at)[fail] += 1.0;
        }
        // Suffix-sum so that (p, n) at `keep` cover rows with fail >= keep.
        for (std::size_t k = conditions; k-- > 0;) {
          pos_at[k] += pos_at[k + 1];
          neg_at[k] += neg_at[k + 1];
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
      }

      // ---- Accept or stop: pruned-rule precision on the prune set. ----
      double pool_p = 0, pool_n = 0;
      pool_covered.clear();
      for (const std::size_t i : pool) {
        if (matches_view(rule, view, i, rule.conditions.size())) {
          pool_covered.push_back(i);
          (label_data[i] == target ? pool_p : pool_n) += 1.0;
        }
      }
      if (pool_p + pool_n == 0 ||
          pool_p / (pool_p + pool_n) < config_.min_prune_precision)
        break;

      // Record the training class distribution of covered examples and
      // cache its Laplace smoothing (the per-predict arithmetic, done once).
      rule.class_counts.assign(classes, 0);
      for (const std::size_t i : pool_covered)
        rule.class_counts[static_cast<std::size_t>(label_data[i])] += 1.0;
      rule.dist = laplace_distribution(rule.class_counts);
      rules_.push_back(std::move(rule));

      // Remove covered examples from the pool.
      std::erase_if(pool, [&](std::size_t i) {
        return matches_view(rules_.back(), view, i,
                            rules_.back().conditions.size());
      });
    }
  }

  // Default distribution: whatever the rules never covered (falling back to
  // the full training distribution if everything was covered).
  default_counts_.assign(classes, 0);
  for (const std::size_t i : pool)
    default_counts_[static_cast<std::size_t>(label_data[i])] += 1.0;
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

Status Ripper::save_state(SerialWriter& out) const {
  if (label_cardinality_ <= 0)
    return {StatusCode::kInvalidArgument, "RIPPER save before fit"};
  out.pod(static_cast<std::int32_t>(label_cardinality_));
  out.doubles(default_counts_);
  out.size(rules_.size());
  for (const Rule& rule : rules_) {
    out.size(rule.conditions.size());
    for (const Condition& condition : rule.conditions) {
      out.size(condition.column);
      out.pod(static_cast<std::int32_t>(condition.value));
    }
    out.pod(static_cast<std::int32_t>(rule.target_class));
    // The cached dist is recomputed on load (laplace_distribution over the
    // same counts — bit-identical), so only the counts travel.
    out.doubles(rule.class_counts);
  }
  return Status::Ok();
}

Status Ripper::load_state(SerialReader& in, std::size_t max_columns) {
  constexpr std::int32_t kMaxCardinality = 1 << 20;
  const Status corrupt{StatusCode::kCorruptArtifact,
                       "RIPPER: malformed rule list"};
  rules_.clear();
  default_counts_.clear();
  default_dist_.clear();
  label_cardinality_ = 0;

  std::int32_t cardinality = 0;
  if (!in.read_pod(cardinality) || cardinality < 1 ||
      cardinality > kMaxCardinality)
    return corrupt;
  std::vector<double> default_counts;
  if (!in.read_doubles(default_counts) ||
      default_counts.size() != static_cast<std::size_t>(cardinality))
    return corrupt;
  std::size_t rule_count = 0;
  if (!in.read_size(rule_count)) return corrupt;
  // Each rule costs at least its four length/value fields; a count beyond
  // what the remaining payload can hold is hostile — reject pre-allocation.
  if (rule_count > in.remaining() / (2 * sizeof(std::uint64_t))) return corrupt;
  std::vector<Rule> rules;
  rules.reserve(rule_count);
  for (std::size_t r = 0; r < rule_count; ++r) {
    Rule rule;
    std::size_t conditions = 0;
    if (!in.read_size(conditions)) return corrupt;
    if (conditions > in.remaining() / (sizeof(std::uint64_t) + sizeof(int32_t)))
      return corrupt;
    rule.conditions.reserve(conditions);
    for (std::size_t c = 0; c < conditions; ++c) {
      Condition condition;
      std::int32_t value = 0;
      if (!in.read_size(condition.column) || !in.read_pod(value) ||
          condition.column >= max_columns)
        return corrupt;
      condition.value = value;
      rule.conditions.push_back(condition);
    }
    std::int32_t target = 0;
    if (!in.read_pod(target) || target < 0 || target >= cardinality)
      return corrupt;
    rule.target_class = target;
    if (!in.read_doubles(rule.class_counts) ||
        rule.class_counts.size() != static_cast<std::size_t>(cardinality))
      return corrupt;
    rule.dist = laplace_distribution(rule.class_counts);
    rules.push_back(std::move(rule));
  }
  label_cardinality_ = cardinality;
  default_counts_ = std::move(default_counts);
  default_dist_ = laplace_distribution(default_counts_);
  rules_ = std::move(rules);
  return Status::Ok();
}

}  // namespace xfa
