// Shared plumbing for the reproduction benches: trace gathering, detector
// training, score assembly and small print helpers.
//
// Conventions used by every figure bench:
//  * the detector trains on the scenario's normal training trace;
//  * thresholds are calibrated on the first normal evaluation trace;
//  * reported numbers (FAR, recall/precision, densities) come from the
//    remaining normal traces and the attack traces.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "eval/density.h"
#include "eval/pr.h"
#include "eval/series.h"
#include "scenario/pipeline.h"

namespace xfa::bench {

/// Everything a figure needs for one (scenario, classifier) cell.
struct Cell {
  Detector detector;
  // Scores for evaluation traces (thresh trace excluded).
  std::vector<std::vector<EventScore>> normal_scores;
  std::vector<std::vector<EventScore>> abnormal_scores;
  const ExperimentData* data = nullptr;
};

/// Trains the detector on the training trace, calibrating its threshold on
/// the first normal evaluation trace, and scores the remaining normal traces
/// and every attack trace.
inline Cell evaluate(const ExperimentData& data,
                     const ClassifierFactory& factory,
                     const DetectorOptions& detector_options = {}) {
  Cell cell;
  cell.data = &data;
  Result<Detector> trained = train_detector_checked(
      data.train_normal, factory, detector_options,
      data.normal_eval.empty() ? nullptr : &data.normal_eval.front());
  XFA_CHECK(trained.ok()) << trained.status().to_string();
  cell.detector = std::move(*trained);
  for (std::size_t i = 1; i < data.normal_eval.size(); ++i)
    cell.normal_scores.push_back(
        cell.detector.score_trace(data.normal_eval[i]));
  for (const RawTrace& trace : data.abnormal)
    cell.abnormal_scores.push_back(cell.detector.score_trace(trace));
  return cell;
}

/// Pools scores + ground truth for a recall-precision curve.
inline PrCurve pr_curve(const Cell& cell, ScoreKind kind) {
  std::vector<double> scores;
  std::vector<int> labels;
  for (const auto& trace_scores : cell.normal_scores) {
    for (const EventScore& s : trace_scores) {
      scores.push_back(pick(s, kind));
      labels.push_back(0);
    }
  }
  for (std::size_t t = 0; t < cell.abnormal_scores.size(); ++t) {
    const RawTrace& trace = cell.data->abnormal[t];
    for (std::size_t i = 0; i < cell.abnormal_scores[t].size(); ++i) {
      scores.push_back(pick(cell.abnormal_scores[t][i], kind));
      labels.push_back(trace.labels[i]);
    }
  }
  return recall_precision_curve(scores, labels);
}

/// Average score time series over the given traces (Figure 3/5 style).
inline TimeSeries score_series(const std::vector<std::vector<EventScore>>& all,
                               const std::vector<const RawTrace*>& traces,
                               ScoreKind kind) {
  std::vector<TimeSeries> series;
  for (std::size_t t = 0; t < all.size(); ++t) {
    TimeSeries s;
    s.times = traces[t]->times;
    for (const EventScore& e : all[t]) s.values.push_back(pick(e, kind));
    series.push_back(std::move(s));
  }
  return average_series(series);
}

/// Pools one score kind across traces (Figure 4/6 densities).
inline std::vector<double> pooled(
    const std::vector<std::vector<EventScore>>& all, ScoreKind kind) {
  std::vector<double> out;
  for (const auto& trace_scores : all)
    for (const EventScore& s : trace_scores) out.push_back(pick(s, kind));
  return out;
}

inline void print_rule(char c = '-') {
  for (int i = 0; i < 78; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Prints a curve as a compact table (at most `max_rows` operating points,
/// evenly sampled along the sweep).
inline void print_curve(const PrCurve& curve, std::size_t max_rows = 12) {
  std::printf("    %-12s %-10s %-10s\n", "threshold", "recall", "precision");
  const std::size_t n = curve.points.size();
  const std::size_t step = n <= max_rows ? 1 : n / max_rows;
  for (std::size_t i = 0; i < n; i += step) {
    const PrPoint& p = curve.points[i];
    std::printf("    %-12.4f %-10.3f %-10.3f\n", p.threshold, p.recall,
                p.precision);
  }
  const PrPoint best = curve.optimal_point();
  std::printf("    optimal point (closest to (1,1)): (%.2f, %.2f), "
              "AUC-above-diagonal = %.3f\n",
              best.recall, best.precision, curve.area_above_diagonal());
}

}  // namespace xfa::bench
