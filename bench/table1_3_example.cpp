// Reproduces Tables 1, 2 and 3 of the paper: the 2-node illustrative
// example, including the paper's bespoke illustrative classifier, verbatim.
//
// Table 1: complete set of normal events {Reachable?, Delivered?, Cached?}.
// Table 2: the three sub-models (predicted class + probability per input).
// Table 3: average match count and average probability for all 8 events.
//
// Expected output matches the paper exactly (e.g. the {F,F,F} event scores
// match count 0.33 / probability 0.67, and threshold 0.5 gives Algorithm 2
// one false alarm while Algorithm 3 is perfect).

#include <array>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "bench/registry.h"

namespace {

// The four normal events of Table 1 (1 = True, 0 = False).
constexpr std::array<std::array<int, 3>, 4> kNormalEvents = {
    {{1, 1, 1}, {1, 0, 0}, {0, 0, 1}, {0, 0, 0}}};

constexpr const char* kFeatureNames[3] = {"Reachable?", "Delivered?",
                                          "Cached?"};

const char* tf(int v) { return v != 0 ? "True" : "False"; }

/// The paper's illustrative classifier for one labelled feature:
///  * one class seen for the given other-feature combination -> that class,
///    probability 1.0;
///  * both classes seen -> True, probability 0.5;
///  * combination unseen -> the label appearing more in the other rules,
///    probability 0.5.
struct IllustrativeSubmodel {
  int label = 0;  // which feature this sub-model predicts

  struct Rule {
    int a = 0, b = 0;       // the two non-labelled feature values
    int predicted = 0;
    double probability = 0;
  };
  std::array<Rule, 4> rules;

  void fit() {
    // Count classes per combination over the normal events.
    int counts[2][2][2] = {};
    for (const auto& event : kNormalEvents) {
      int other[2], k = 0;
      for (int f = 0; f < 3; ++f)
        if (f != label) other[k++] = event[static_cast<std::size_t>(f)];
      ++counts[other[0]][other[1]][event[static_cast<std::size_t>(label)]];
    }
    // First pass: resolve seen combinations; tally predictions for the
    // unseen-combination fallback.
    int prediction_tally[2] = {0, 0};
    std::size_t r = 0;
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        Rule rule;
        rule.a = a;
        rule.b = b;
        const int seen0 = counts[a][b][0], seen1 = counts[a][b][1];
        if (seen0 > 0 && seen1 > 0) {
          rule.predicted = 1;  // "label True is always selected"
          rule.probability = 0.5;
        } else if (seen0 + seen1 > 0) {
          rule.predicted = seen1 > 0 ? 1 : 0;
          rule.probability = 1.0;
        } else {
          rule.predicted = -1;  // resolved below
          rule.probability = 0.5;
        }
        if (rule.predicted >= 0) ++prediction_tally[rule.predicted];
        rules[r++] = rule;
      }
    }
    const int fallback = prediction_tally[1] >= prediction_tally[0] ? 1 : 0;
    for (Rule& rule : rules)
      if (rule.predicted < 0) rule.predicted = fallback;
  }

  const Rule& rule_for(const std::array<int, 3>& event) const {
    int other[2], k = 0;
    for (int f = 0; f < 3; ++f)
      if (f != label) other[k++] = event[static_cast<std::size_t>(f)];
    for (const Rule& rule : rules)
      if (rule.a == other[0] && rule.b == other[1]) return rule;
    return rules[0];  // unreachable
  }

  /// Probability of the event's true class: the rule probability when the
  /// prediction matches, 1 - probability otherwise (paper §3).
  double truth_probability(const std::array<int, 3>& event) const {
    const Rule& rule = rule_for(event);
    const int truth = event[static_cast<std::size_t>(label)];
    return rule.predicted == truth ? rule.probability
                                   : 1.0 - rule.probability;
  }
  bool matches(const std::array<int, 3>& event) const {
    return rule_for(event).predicted ==
           event[static_cast<std::size_t>(label)];
  }
};

bool is_normal(const std::array<int, 3>& event) {
  for (const auto& normal : kNormalEvents)
    if (normal == event) return true;
  return false;
}

}  // namespace

namespace xfa::bench {
namespace {

int run_plan() {
  xfa::bench::print_rule('=');
  std::printf("Tables 1-3: the 2-node network illustrative example\n");
  xfa::bench::print_rule('=');

  std::printf("\nTable 1: complete set of normal events\n");
  std::printf("%-12s %-12s %-8s\n", "Reachable?", "Delivered?", "Cached?");
  for (const auto& event : kNormalEvents)
    std::printf("%-12s %-12s %-8s\n", tf(event[0]), tf(event[1]),
                tf(event[2]));

  // Train the three sub-models.
  std::array<IllustrativeSubmodel, 3> submodels;
  for (int f = 0; f < 3; ++f) {
    submodels[static_cast<std::size_t>(f)].label = f;
    submodels[static_cast<std::size_t>(f)].fit();
  }

  std::printf("\nTable 2: sub-models (predicted class + probability)\n");
  for (int f = 0; f < 3; ++f) {
    const auto& submodel = submodels[static_cast<std::size_t>(f)];
    int other[2], k = 0;
    for (int g = 0; g < 3; ++g)
      if (g != f) other[k++] = g;
    std::printf("\n(%c) sub-model with respect to '%s'\n",
                static_cast<char>('a' + f), kFeatureNames[f]);
    std::printf("%-12s %-12s %-12s %-12s\n", kFeatureNames[other[0]],
                kFeatureNames[other[1]], kFeatureNames[f], "Probability");
    for (const auto& rule : submodel.rules)
      std::printf("%-12s %-12s %-12s %-12.1f\n", tf(rule.a), tf(rule.b),
                  tf(rule.predicted), rule.probability);
  }

  std::printf("\nTable 3: all 8 events, threshold = 0.5\n");
  std::printf("%-10s %-10s %-8s %-9s %-12s %-12s %-s\n", "Reachable",
              "Delivered", "Cached", "Class", "AvgMatch", "AvgProb",
              "Alg2/Alg3 verdicts");
  int alg2_errors = 0, alg3_errors = 0;
  for (int r = 1; r >= 0; --r) {
    for (int d = 1; d >= 0; --d) {
      for (int c = 1; c >= 0; --c) {
        const std::array<int, 3> event = {r, d, c};
        double match = 0, prob = 0;
        for (const auto& submodel : submodels) {
          match += submodel.matches(event) ? 1.0 : 0.0;
          prob += submodel.truth_probability(event);
        }
        match /= 3.0;
        prob /= 3.0;
        const bool normal = is_normal(event);
        const bool alg2 = match >= 0.5;
        const bool alg3 = prob >= 0.5;
        if (alg2 != normal) ++alg2_errors;
        if (alg3 != normal) ++alg3_errors;
        std::printf("%-10s %-10s %-8s %-9s %-12.2f %-12.2f %s/%s\n", tf(r),
                    tf(d), tf(c), normal ? "Normal" : "Abnormal", match, prob,
                    alg2 ? "normal" : "ANOMALY", alg3 ? "normal" : "ANOMALY");
      }
    }
  }
  std::printf(
      "\nAlgorithm 2 (match count) errors:  %d   (paper: 1 false alarm on "
      "{F,F,F})\n",
      alg2_errors);
  std::printf(
      "Algorithm 3 (probability) errors:  %d   (paper: perfect accuracy)\n",
      alg3_errors);
  return alg3_errors == 0 ? 0 : 1;
}

const PlanRegistrar registrar{"table1_3",
                              "Tables 1-3: two-node worked example with the paper's illustrative classifier",
                              run_plan};

}  // namespace
}  // namespace xfa::bench
