// xfa_perf: the benchmark program (see perf/README.md).
//
// One invocation runs one workload as a closed loop of identical units for a
// fixed measuring time and prints a JSON report line followed by the result
// line run.sh hands back. A plain run calls only the public wrappers —
// gather_experiment_checked, train_detector_checked, Detector::score_trace,
// recall_precision_curve and run_scenario_checked — and times them from
// outside. A traced run (--trace=PATH) alternates plain units with traced
// ones, which do the same work through the functions those wrappers call,
// one span per call; spans are kept in memory and written at exit as Chrome
// trace-event JSON. Both paths feed one digest over every trace, threshold,
// score and AUC, so a traced unit that disagrees with a plain one, a unit
// that disagrees with the previous one, or a run that disagrees with its
// golden digest counts as failed.
//
//   xfa_perf prepare --traces=DIR [--threads=N]
//   xfa_perf run WORKLOAD [--seed=S] [--seconds=T] [--threads=N]
//                [--trace=PATH] [--quick] [--work=DIR] [--traces=DIR]
//                [--golden=FILE] [--expect=HEX] [--commit=ID]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cfa/threshold.h"
#include "common/crc64.h"
#include "eval/pr.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "ml/c45.h"
#include "ml/ripper.h"
#include "scenario/cache.h"
#include "scenario/graph/builder.h"
#include "scenario/graph/registry.h"
#include "scenario/pipeline.h"

#ifndef XFA_PERF_BUILD_TYPE
#define XFA_PERF_BUILD_TYPE "unknown"
#endif
#ifndef XFA_PERF_COMPILER
#define XFA_PERF_COMPILER "unknown"
#endif

namespace xfa::perf {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Spans. Each records its name, start, end, the span open on the same thread
// when it began (its parent), the unit it belongs to and the thread. A pool
// task that starts on an idle worker is a root; one the waiting main thread
// drains runs nested inside the wait's span, so on every thread children
// nest inside their parent and self times sum to the root spans' time.

struct SpanRecord {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  int unit = -1;
  int thread = 0;
};

class Tracer {
 public:
  void set_unit(int unit) { unit_.store(unit, std::memory_order_relaxed); }

  int open(std::string name);
  void close(int index);

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::atomic<int> unit_{-1};
  std::atomic<int> next_thread_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

thread_local std::vector<int> t_open_spans;
thread_local int t_thread_id = -1;

int Tracer::open(std::string name) {
  if (t_thread_id < 0) t_thread_id = next_thread_.fetch_add(1);
  SpanRecord record;
  record.name = std::move(name);
  record.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  record.unit = unit_.load(std::memory_order_relaxed);
  record.thread = t_thread_id;
  record.start = Clock::now();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
    index = static_cast<int>(spans_.size()) - 1;
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const Clock::time_point end = Clock::now();
  XFA_CHECK(!t_open_spans.empty() && t_open_spans.back() == index)
      << "spans must close innermost first";
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

class Span {
 public:
  explicit Span(std::string name) : index_(tracer().open(std::move(name))) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end() {
    if (index_ < 0) return;
    tracer().close(index_);
    index_ = -1;
  }

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Digest: CRC-64 over every output of a unit, in a fixed order.

class Digest {
 public:
  void bytes(const void* data, std::size_t size) { crc_ = crc64(data, size, crc_); }
  void value(double v) { bytes(&v, sizeof(v)); }
  void value(std::uint64_t v) { bytes(&v, sizeof(v)); }

  void trace(const RawTrace& trace) {
    value(static_cast<std::uint64_t>(trace.size()));
    bytes(trace.times.data(), trace.times.size() * sizeof(SimTime));
    for (const std::vector<double>& row : trace.rows)
      bytes(row.data(), row.size() * sizeof(double));
    bytes(trace.labels.data(), trace.labels.size() * sizeof(int));
  }

  void scores(const std::vector<EventScore>& scores) {
    value(static_cast<std::uint64_t>(scores.size()));
    for (const EventScore& score : scores) {
      value(score.avg_match_count);
      value(score.avg_probability);
    }
  }

  std::uint64_t result() const { return crc_; }

 private:
  std::uint64_t crc_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { Cold, Detect, Scale };

struct Workload {
  const char* name;
  Kind kind;
  RoutingKind routing;
  TransportKind transport;
};

constexpr Workload kWorkloads[] = {
    {"cold-aodv-udp", Kind::Cold, RoutingKind::Aodv, TransportKind::Udp},
    {"cold-dsr-tcp", Kind::Cold, RoutingKind::Dsr, TransportKind::Tcp},
    {"detect-paper", Kind::Detect, RoutingKind::Aodv, TransportKind::Udp},
    {"scale-1k", Kind::Scale, RoutingKind::Aodv, TransportKind::Udp},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads)
    if (name == workload.name) return &workload;
  return nullptr;
}

// Cold units simulate the paper's mixed inventory (1 training, 3 normal
// evaluation and 3 attack traces) shrunk in time so that several complete
// units fit in one measuring window; the attack schedule shrinks with it.
constexpr SimTime kColdTraceSeconds = 400;
constexpr SimTime kQuickColdTraceSeconds = 200;
// The scale worlds follow examples/scenarios/scale-1000.scn.
constexpr SimTime kScaleSeconds = 60;
constexpr SimTime kQuickScaleSeconds = 20;
constexpr std::size_t kScaleWorlds = 4;
constexpr int kMinUnits = 2;
constexpr double kMinSetupSeconds = 0.01;

ExperimentOptions cold_options(SimTime duration, std::uint64_t base_seed) {
  ExperimentOptions options = paper_mixed_options();
  const double factor = duration / options.duration;
  options.duration = duration;
  options.base_seed = base_seed;
  for (AttackSpec& attack : options.attacks) {
    ScheduleSpec& schedule = attack.schedule;
    schedule.start *= factor;
    schedule.duration *= factor;
    for (auto& [start, length] : schedule.sessions) {
      start *= factor;
      length *= factor;
    }
  }
  return options;
}

std::vector<ScenarioConfig> scale_configs(std::uint64_t seed, bool quick) {
  std::vector<ScenarioConfig> configs;
  for (std::size_t w = 0; w < kScaleWorlds; ++w) {
    ScenarioConfig config;
    config.node_count = 1000;
    config.duration = quick ? kQuickScaleSeconds : kScaleSeconds;
    config.seed = 5100 + kScaleWorlds * seed + w;
    config.mobility.field_width = 4500;
    config.mobility.field_height = 4500;
    config.traffic.max_connections = 60;
    configs.push_back(config);
  }
  return configs;
}

struct DetectorSpec {
  std::string key;  // span/metric suffix: c45, ripper_k32, ...
  std::string classifier;
  ClassifierFactory factory;
  bool top32 = false;
};

std::vector<DetectorSpec> detector_specs(Kind kind) {
  std::vector<DetectorSpec> specs;
  specs.push_back({"c45", "c45", make_c45_factory(), false});
  if (kind != Kind::Detect) return specs;
  specs.push_back({"ripper", "ripper", make_ripper_factory(), false});
  specs.push_back({"nbc", "nbc", make_nbc_factory(), false});
  for (std::size_t i = 0; i < 3; ++i) {
    DetectorSpec spec = specs[i];
    spec.key += "_k32";
    spec.top32 = true;
    specs.push_back(std::move(spec));
  }
  return specs;
}

DetectorOptions detector_options(const DetectorSpec& spec) {
  DetectorOptions options;
  if (spec.top32) {
    options.selection.ranker = FeatureRanker::MutualInformation;
    options.selection.top_k = 32;
  }
  return options;
}

// ---------------------------------------------------------------------------
// The public calls a unit makes, each either through the wrapper (plain) or
// decomposed into the calls the wrapper makes, one span per call (traced).

using Counters = std::map<std::string, double>;

/// Counters only a live world exposes; read by the traced simulation.
void add_world_counters(Simulator& sim, const Channel& channel,
                        const BuiltScenario& world, Counters& counters) {
  const Scheduler& scheduler = sim.scheduler();
  counters["sim.cancelled"] += static_cast<double>(scheduler.cancelled());
  counters["sim.peak_pending"] = std::max(
      counters["sim.peak_pending"], static_cast<double>(scheduler.peak_pending()));
  counters["sim.compactions"] += static_cast<double>(scheduler.compactions());
  const NeighborIndex::Stats& grid = channel.neighbor_index().stats();
  counters["net.grid_rebuilds"] += static_cast<double>(grid.rebuilds);
  counters["net.grid_queries"] += static_cast<double>(grid.queries);
  counters["net.grid_candidates"] += static_cast<double>(grid.candidates);
  counters["net.grid_confirmed"] += static_cast<double>(grid.confirmed);
  for (const auto& node : world.nodes) {
    const RoutingStats& stats = node->routing().stats();
    counters["routing.discoveries_started"] += static_cast<double>(stats.discoveries_started);
    counters["routing.discoveries_succeeded"] += static_cast<double>(stats.discoveries_succeeded);
    counters["routing.control_originated"] += static_cast<double>(stats.control_originated);
    counters["routing.control_forwarded"] += static_cast<double>(stats.control_forwarded);
    counters["routing.data_forwarded"] += static_cast<double>(stats.data_forwarded);
    counters["routing.rerr_sent"] += static_cast<double>(stats.rerr_sent);
    counters["routing.data_dropped_no_route"] += static_cast<double>(stats.data_dropped_no_route);
    counters["routing.data_dropped_malicious"] += static_cast<double>(stats.data_dropped_malicious);
  }
}

/// The body of the scenario runner's simulate(), split at its layer calls.
ScenarioResult traced_simulate(const ScenarioConfig& config, Counters& counters) {
  Span build("scenario.build");
  Simulator sim(config.seed);
  RandomWaypointMobility mobility(config.node_count, config.mobility,
                                  Rng(config.mobility_seed));
  ChannelConfig channel_config = config.channel;
  channel_config.promiscuous_taps = element_for(config.routing).promiscuous;
  channel_config.max_node_speed = config.mobility.max_speed;
  Channel channel(sim, mobility, channel_config);
  const std::unique_ptr<BuiltScenario> world = build_scenario(config, sim, channel);
  Node& monitor = world->monitor(config);
  SampledNodeState state;
  const std::size_t samples = static_cast<std::size_t>(
      config.duration / config.sample_interval + 1e-9);
  state.velocity.reserve(samples);
  state.average_route_len.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const SimTime t = config.sample_interval * static_cast<double>(i + 1);
    sim.at(t, [&state, &mobility, &monitor, &config, t] {
      state.velocity.push_back(mobility.speed(config.monitor_node, t));
      state.average_route_len.push_back(monitor.routing().average_route_length());
    });
  }
  build.end();

  {
    Span run("sim.run");
    sim.run_until(config.duration);
  }

  ScenarioResult result;
  {
    Span extract("features.extract");
    const FeatureSchema schema = FeatureSchema::standard();
    const FeatureExtractor extractor(schema, config.sample_interval);
    result.trace = extractor.extract(world->monitor_audit, state, config.duration);
  }

  ScenarioSummary& summary = result.summary;
  for (const auto& node : world->nodes) {
    summary.data_originated += node->data_originated();
    summary.data_delivered += node->data_delivered();
  }
  summary.packet_delivery_ratio =
      ratio(static_cast<double>(summary.data_delivered),
            static_cast<double>(summary.data_originated));
  summary.scheduler_events = sim.scheduler().dispatched();
  summary.channel = channel.stats();
  summary.monitor_routing = monitor.routing().stats();
  summary.monitor_audit_packets = world->monitor_audit.total_packet_records();
  summary.monitor_audit_route_events = world->monitor_audit.total_route_events();
  add_world_counters(sim, channel, *world, counters);
  return result;
}

/// run_scenario_checked without its retry, claim and journal machinery,
/// none of which fires on the benchmark's inputs.
Result<ScenarioResult> traced_scenario(const ScenarioConfig& config,
                                       LabelPolicy policy, Counters& counters) {
  Span root("scenario.trace");
  const std::string key = config.cache_key();
  const TraceCache cache;
  Result<ScenarioResult> loaded = Status{StatusCode::kNotFound, key};
  {
    Span load("scenario.cache_load");
    loaded = cache.load(key);
  }
  ScenarioResult result;
  if (loaded.ok() && validate_scenario_result(*loaded).ok()) {
    result = std::move(*loaded);
  } else if (require_cached_traces()) {
    return Status{StatusCode::kNotFound, "trace not in cache: " + key};
  } else {
    result = traced_simulate(config, counters);
    if (Status valid = validate_scenario_result(result); !valid.ok()) return valid;
    Span store("scenario.cache_store");
    cache.store(key, result);
  }
  apply_labels(result.trace, config, policy);
  return result;
}

/// Runs every config on the shared pool; results land by slot. A traced
/// run's "scenario.gather" self time is the main thread's wait.
Result<std::vector<ScenarioResult>> run_all(const std::vector<ScenarioConfig>& configs,
                                            LabelPolicy policy, bool traced,
                                            Counters& counters) {
  std::vector<Result<ScenarioResult>> results(
      configs.size(), Status{StatusCode::kRetryable, "cancelled"});
  std::vector<Counters> slot_counters(configs.size());
  {
    std::optional<Span> span;
    if (traced) span.emplace("scenario.gather");
    TaskGroup group(shared_pool());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      group.submit([&, i] {
        results[i] = traced ? traced_scenario(configs[i], policy, slot_counters[i])
                            : run_scenario_checked(configs[i], policy);
        return results[i].ok() ? Status::Ok() : results[i].status();
      });
    }
    if (Status status = group.wait(); !status.ok()) return status;
  }
  std::vector<ScenarioResult> out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (const auto& [name, value] : slot_counters[i])
      counters[name] = name == "sim.peak_pending"
                           ? std::max(counters[name], value)
                           : counters[name] + value;
    out.push_back(std::move(*results[i]));
  }
  return out;
}

/// gather_experiment_checked, or the same inventory assembled from traced
/// scenario runs.
Result<ExperimentData> gather(const Workload& workload,
                              const ExperimentOptions& options, bool traced,
                              Counters& counters) {
  if (!traced)
    return gather_experiment_checked(workload.routing, workload.transport, options);
  Result<std::vector<ScenarioResult>> results =
      run_all(experiment_configs(workload.routing, workload.transport, options),
              options.label_policy, true, counters);
  if (!results.ok()) return results.status();
  ExperimentData data;
  data.base_config.routing = workload.routing;
  data.base_config.transport = workload.transport;
  data.base_config.duration = options.duration;
  for (std::size_t i = 0; i < results->size(); ++i) {
    ScenarioResult& result = (*results)[i];
    data.summaries.push_back(result.summary);
    if (i == 0) {
      data.train_normal = std::move(result.trace);
    } else if (i <= options.normal_eval_traces) {
      data.normal_eval.push_back(std::move(result.trace));
    } else {
      data.abnormal.push_back(std::move(result.trace));
    }
  }
  return data;
}

/// Detector::score_trace.
std::vector<EventScore> score(const Detector& detector, const DetectorSpec& spec,
                              const RawTrace& trace, bool traced) {
  if (!traced) return detector.score_trace(trace);
  Span span("detector.score");
  DiscreteTrace discrete;
  {
    Span transform("features.discretize_transform");
    discrete = detector.discretizer.transform(trace);
  }
  Span score_all("cfa.score." + spec.classifier);
  return detector.model.score_all(discrete.rows);
}

/// train_detector_checked with a held-out calibration trace.
Result<Detector> train(const DetectorSpec& spec, const RawTrace& train_normal,
                       const RawTrace& calibration, bool traced) {
  const DetectorOptions options = detector_options(spec);
  if (!traced)
    return train_detector_checked(train_normal, spec.factory, options, &calibration);
  Span span("detector.train");
  Detector detector;
  detector.discretizer =
      EqualFrequencyDiscretizer(options.buckets, options.min_relative_gap);
  {
    Span fit("features.discretize_fit");
    detector.discretizer.fit(train_normal.rows, /*max_fit_rows=*/500);
  }
  DiscreteTrace discrete;
  {
    Span transform("features.discretize_transform");
    discrete = detector.discretizer.transform(train_normal);
  }
  const Dataset dataset = to_dataset(discrete, &detector.schema);
  Status trained;
  {
    Span fit_submodels("cfa.train." + spec.key);
    trained = detector.model.train(dataset, detector.schema.classifiable_columns(),
                                   spec.factory, options.selection, options.threads);
  }
  if (!trained.ok()) return trained;
  const std::vector<EventScore> calibration_scores =
      score(detector, spec, calibration, true);
  Span threshold("cfa.threshold");
  detector.threshold_match = select_threshold(
      project(calibration_scores, ScoreKind::MatchCount), options.false_alarm_rate);
  detector.threshold_probability = select_threshold(
      project(calibration_scores, ScoreKind::Probability), options.false_alarm_rate);
  return detector;
}

/// recall_precision_curve over pooled scores; returns the AUC.
double area_under_curve(const std::vector<std::vector<EventScore>>& scores,
                        const std::vector<const RawTrace*>& traces,
                        ScoreKind kind, bool traced) {
  std::optional<Span> span;
  if (traced) span.emplace("eval.pr");
  std::vector<double> pooled;
  std::vector<int> labels;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (const EventScore& s : scores[t]) pooled.push_back(pick(s, kind));
    labels.insert(labels.end(), traces[t]->labels.begin(), traces[t]->labels.end());
  }
  return recall_precision_curve(pooled, labels).area_under_curve();
}

// ---------------------------------------------------------------------------
// Units.

struct RunContext {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool quick = false;
  std::size_t threads = 2;
  std::string cache_dir;  // emptied before every cold/scale unit
  ExperimentOptions options;                 // cold
  std::vector<ScenarioConfig> scale_worlds;  // scale
  ExperimentData inventory;                  // detect: loaded in set-up
  std::uint64_t inventory_digest = 0;
  std::vector<DetectorSpec> detectors;
};

struct UnitResult {
  Status status;
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
  Counters counters;  // deterministic: must repeat exactly
  double wall = 0;
  double cpu = 0;
};

void fail(UnitResult& unit, const Status& status) {
  ++unit.failed;
  if (unit.status.ok()) unit.status = status;
}

void add_summary_counters(const std::vector<ScenarioSummary>& summaries,
                          Counters& counters) {
  for (const ScenarioSummary& s : summaries) {
    counters["sim.events"] += static_cast<double>(s.scheduler_events);
    counters["net.transmissions"] += static_cast<double>(s.channel.transmissions);
    counters["net.deliveries"] += static_cast<double>(s.channel.deliveries);
    counters["net.taps"] += static_cast<double>(s.channel.taps);
    counters["net.unicast_failures"] += static_cast<double>(s.channel.unicast_failures);
    counters["net.random_losses"] += static_cast<double>(s.channel.random_losses);
    counters["transport.data_originated"] += static_cast<double>(s.data_originated);
    counters["transport.data_delivered"] += static_cast<double>(s.data_delivered);
    counters["audit.packet_records"] += static_cast<double>(s.monitor_audit_packets);
    counters["audit.route_events"] += static_cast<double>(s.monitor_audit_route_events);
  }
}

void add_trace_counters(const RawTrace& trace, Counters& counters) {
  counters["features.rows"] += static_cast<double>(trace.size());
  counters["features.columns"] =
      trace.rows.empty() ? 0 : static_cast<double>(trace.rows.front().size());
}

void add_model_counters(const CrossFeatureModel& model, Counters& counters) {
  counters["cfa.submodels"] += static_cast<double>(model.submodel_count());
  counters["cfa.skipped_columns"] += static_cast<double>(model.skipped_columns().size());
  counters["cfa.selected_out_columns"] +=
      static_cast<double>(model.selected_out_columns().size());
  for (std::size_t i = 0; i < model.submodel_count(); ++i) {
    const Classifier& submodel = model.submodel(i);
    if (const auto* tree = dynamic_cast<const C45*>(&submodel))
      counters["ml.c45_nodes"] += static_cast<double>(tree->node_count());
    if (const auto* rules = dynamic_cast<const Ripper*>(&submodel))
      counters["ml.ripper_rules"] += static_cast<double>(rules->rule_count());
  }
}

/// Trains every detector on the inventory (calibrated on normal_eval[0]),
/// scores the other normal and all attack traces and computes both AUCs.
void evaluate(const RunContext& ctx, const ExperimentData& data, bool traced,
              UnitResult& unit, Digest& digest) {
  std::vector<const RawTrace*> scored;
  for (std::size_t i = 1; i < data.normal_eval.size(); ++i)
    scored.push_back(&data.normal_eval[i]);
  for (const RawTrace& trace : data.abnormal) scored.push_back(&trace);

  for (const DetectorSpec& spec : ctx.detectors) {
    ++unit.ops;
    Result<Detector> detector =
        train(spec, data.train_normal, data.normal_eval.front(), traced);
    if (!detector.ok()) return fail(unit, detector.status());
    add_model_counters(detector->model, unit.counters);
    unit.counters["cfa.events_scored"] +=
        static_cast<double>(data.normal_eval.front().size());
    digest.value(detector->threshold_match);
    digest.value(detector->threshold_probability);

    std::vector<std::vector<EventScore>> scores;
    for (const RawTrace* trace : scored) {
      ++unit.ops;
      scores.push_back(score(*detector, spec, *trace, traced));
      unit.counters["cfa.events_scored"] += static_cast<double>(trace->size());
      digest.scores(scores.back());
    }
    for (const ScoreKind kind : {ScoreKind::Probability, ScoreKind::MatchCount}) {
      const double auc = area_under_curve(scores, scored, kind, traced);
      if (!std::isfinite(auc) || auc < 0 || auc > 1)
        return fail(unit, {StatusCode::kInvalidArgument, "AUC out of [0, 1]"});
      digest.value(auc);
    }
  }
}

void digest_inventory(const ExperimentData& data, Digest& digest) {
  digest.trace(data.train_normal);
  for (const RawTrace& trace : data.normal_eval) digest.trace(trace);
  for (const RawTrace& trace : data.abnormal) digest.trace(trace);
}

UnitResult run_unit(const RunContext& ctx, bool traced) {
  UnitResult unit;
  Digest digest;
  switch (ctx.workload->kind) {
    case Kind::Cold: {
      unit.ops += 1 + ctx.options.normal_eval_traces + ctx.options.abnormal_traces;
      Result<ExperimentData> data = gather(*ctx.workload, ctx.options, traced, unit.counters);
      if (!data.ok()) {
        fail(unit, data.status());
        break;
      }
      add_summary_counters(data->summaries, unit.counters);
      add_trace_counters(data->train_normal, unit.counters);
      for (const RawTrace& t : data->normal_eval) add_trace_counters(t, unit.counters);
      for (const RawTrace& t : data->abnormal) add_trace_counters(t, unit.counters);
      digest_inventory(*data, digest);
      evaluate(ctx, *data, traced, unit, digest);
      break;
    }
    case Kind::Detect:
      digest.value(ctx.inventory_digest);
      evaluate(ctx, ctx.inventory, traced, unit, digest);
      break;
    case Kind::Scale: {
      unit.ops += ctx.scale_worlds.size();
      Result<std::vector<ScenarioResult>> worlds = run_all(
          ctx.scale_worlds, LabelPolicy::OnsetOnwards, traced, unit.counters);
      if (!worlds.ok()) {
        fail(unit, worlds.status());
        break;
      }
      for (const ScenarioResult& world : *worlds) {
        add_summary_counters({world.summary}, unit.counters);
        add_trace_counters(world.trace, unit.counters);
        digest.trace(world.trace);
      }
      break;
    }
  }
  unit.digest = digest.result();
  return unit;
}

/// Cold units must start from an empty trace cache.
Status make_empty_cache(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_empty(dir, ec))
    return {StatusCode::kIoError, dir + " is not an empty directory"};
  return Status::Ok();
}

/// One set-up: pool start (first time only), an empty trace-cache directory,
/// the workload's configs and, for detect-paper, the cached inventory load
/// with the seed's role rotation. Reports its ops and failures in `unit`.
void set_up(RunContext& ctx, bool traced, UnitResult& unit) {
  resize_shared_pool(ctx.threads);
  const Workload& workload = *ctx.workload;
  switch (workload.kind) {
    case Kind::Cold:
      if (Status made = make_empty_cache(ctx.cache_dir); !made.ok()) return fail(unit, made);
      ctx.options = cold_options(ctx.quick ? kQuickColdTraceSeconds : kColdTraceSeconds,
                                 1000 + ctx.seed);
      (void)experiment_configs(workload.routing, workload.transport, ctx.options);
      break;
    case Kind::Scale:
      if (Status made = make_empty_cache(ctx.cache_dir); !made.ok()) return fail(unit, made);
      ctx.scale_worlds = scale_configs(ctx.seed, ctx.quick);
      break;
    case Kind::Detect: {
      set_require_cached_traces(true);
      const ExperimentOptions options = paper_mixed_options();
      unit.ops += 1 + options.normal_eval_traces + options.abnormal_traces;
      Counters unused;
      Result<ExperimentData> loaded = gather(workload, options, traced, unused);
      if (!loaded.ok()) return fail(unit, loaded.status());
      // The seed picks which of the four normal traces trains the detector
      // and which calibrates it; the other two are scored with the attacks.
      std::vector<RawTrace> normals;
      normals.push_back(std::move(loaded->train_normal));
      for (RawTrace& trace : loaded->normal_eval) normals.push_back(std::move(trace));
      const std::size_t r = ctx.seed % normals.size();
      ctx.inventory = ExperimentData{};
      ctx.inventory.train_normal = std::move(normals[r]);
      for (std::size_t i = 1; i < normals.size(); ++i)
        ctx.inventory.normal_eval.push_back(std::move(normals[(r + i) % normals.size()]));
      ctx.inventory.abnormal = std::move(loaded->abnormal);
      break;
    }
  }
  ctx.detectors = detector_specs(workload.kind);
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-unit span totals by name (inclusive time).
std::map<int, std::map<std::string, double>> span_seconds_by_unit(
    const std::vector<SpanRecord>& spans) {
  std::map<int, std::map<std::string, double>> out;
  for (const SpanRecord& span : spans)
    out[span.unit][span.name] += seconds_between(span.start, span.end);
  return out;
}

/// Median over the traced units (set-ups included) that recorded `name`.
double span_median(const std::map<int, std::map<std::string, double>>& by_unit,
                   const std::string& name) {
  std::vector<double> values;
  for (const auto& [unit, totals] : by_unit)
    if (const auto it = totals.find(name); it != totals.end()) values.push_back(it->second);
  return median(values);
}

/// Prints the per-layer breakdown and returns the self-time coverage: the
/// summed self time of every span over the summed root-span time.
double print_layer_table(const std::vector<SpanRecord>& spans) {
  struct Row {
    std::size_t calls = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_time(spans.size(), 0.0);
  double root_time = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = seconds_between(spans[i].start, spans[i].end);
    if (spans[i].parent >= 0) {
      child_time[static_cast<std::size_t>(spans[i].parent)] += d;
    } else {
      root_time += d;
    }
  }
  double self_sum = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = seconds_between(spans[i].start, spans[i].end);
    Row& row = rows[spans[i].name];
    ++row.calls;
    row.total += d;
    row.self += d - child_time[i];
    self_sum += d - child_time[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.self > b.second.self; });
  std::printf("%-32s %7s %11s %11s %7s\n", "span", "calls", "time_s", "self_s", "share");
  for (const auto& [name, row] : sorted)
    std::printf("%-32s %7zu %11.4f %11.4f %6.2f%%\n", name.c_str(), row.calls,
                row.total, row.self, 100.0 * ratio(row.self, root_time));
  const double coverage = ratio(self_sum, root_time);
  std::printf("summed root-span time %.4f s, self-time coverage %.6f\n", root_time,
              coverage);
  return coverage;
}

void write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  if (spans.empty()) return;
  Clock::time_point origin = spans.front().start;
  for (const SpanRecord& span : spans) origin = std::min(origin, span.start);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << json_string(span.name)
        << ",\"cat\":" << json_string(layer) << ",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << span.thread << ",\"ts\":"
        << json_number(1e6 * seconds_between(origin, span.start))
        << ",\"dur\":" << json_number(1e6 * seconds_between(span.start, span.end))
        << ",\"args\":{\"unit\":" << span.unit << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "\n]}\n";
}

/// Wall time and pool activity of each traced unit.
struct TracedUnits {
  std::vector<double> wall, task_wall, task_cpu, busy;
};

/// The per-layer metrics of a traced run, in BENCHMARK.json order: span
/// times as medians over the traced units, counters for one unit.
std::vector<Metric> layer_metrics(const std::vector<SpanRecord>& spans, Counters counters,
                                  const TracedUnits& traced, double plain_wall) {
  std::vector<Metric> metrics;
  const auto by_unit = span_seconds_by_unit(spans);
  const auto times = [&](const std::string& span) { return span_median(by_unit, span); };
  // score_trace rate: events over the time spent in detector.score spans.
  std::vector<double> score_rates;
  for (const auto& [unit, totals] : by_unit) {
    const auto it = totals.find("detector.score");
    if (it != totals.end() && it->second > 0)
      score_rates.push_back(counters["cfa.events_scored"] / it->second);
  }
  const double sim_run = times("sim.run");
  for (const char* name :
       {"scenario.build", "sim.run", "features.extract", "scenario.cache_store",
        "scenario.cache_load", "features.discretize_fit",
        "features.discretize_transform", "cfa.train.c45", "cfa.train.ripper",
        "cfa.train.nbc", "cfa.train.c45_k32", "cfa.train.ripper_k32",
        "cfa.train.nbc_k32", "cfa.score.c45", "cfa.score.ripper", "cfa.score.nbc",
        "cfa.threshold", "eval.pr"})
    metrics.push_back({std::string(name) + "_s", times(name), "s"});
  metrics.push_back({"train_s", times("detector.train"), "s"});
  metrics.push_back({"score_events_per_s", median(score_rates), "1/s"});
  metrics.push_back({"sim.events_per_s", ratio(counters["sim.events"], sim_run), "1/s"});
  metrics.push_back({"net.fanout",
                     ratio(counters["net.deliveries"], counters["net.transmissions"]),
                     "ratio"});
  metrics.push_back({"net.grid_precision",
                     ratio(counters["net.grid_confirmed"], counters["net.grid_candidates"]),
                     "ratio"});
  metrics.push_back({"routing.discovery_success_ratio",
                     ratio(counters["routing.discoveries_succeeded"],
                           counters["routing.discoveries_started"]),
                     "ratio"});
  metrics.push_back({"transport.pdr",
                     ratio(counters["transport.data_delivered"],
                           counters["transport.data_originated"]),
                     "ratio"});
  metrics.push_back({"exec.task_wall_s", median(traced.task_wall), "s"});
  metrics.push_back({"exec.task_cpu_s", median(traced.task_cpu), "s"});
  metrics.push_back({"exec.busy_ratio", median(traced.busy), "ratio"});
  metrics.push_back(
      {"trace.overhead_ratio", ratio(median(traced.wall), plain_wall), "ratio"});
  for (const char* name :
       {"sim.events", "sim.cancelled", "sim.peak_pending", "sim.compactions",
        "net.transmissions", "net.deliveries", "net.taps", "net.unicast_failures",
        "net.random_losses", "net.grid_rebuilds", "net.grid_queries",
        "net.grid_candidates", "net.grid_confirmed", "routing.discoveries_started",
        "routing.discoveries_succeeded", "routing.control_originated",
        "routing.control_forwarded", "routing.data_forwarded", "routing.rerr_sent",
        "routing.data_dropped_no_route", "routing.data_dropped_malicious",
        "transport.data_originated", "transport.data_delivered",
        "audit.packet_records", "audit.route_events", "features.rows",
        "features.columns", "cfa.submodels", "cfa.skipped_columns",
        "cfa.selected_out_columns", "ml.c45_nodes", "ml.ripper_rules",
        "cfa.events_scored", "exec.tasks"})
    metrics.push_back({name, counters[name], "count"});
  return metrics;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) out += (out.size() == 1 ? "" : ", ") + json_number(value);
  return out + "]";
}

std::string counters_json(const Counters& counters) {
  std::string out = "{";
  for (const auto& [name, value] : counters)
    out += (out.size() == 1 ? "" : ", ") + json_string(name) + ": " + json_number(value);
  return out + "}";
}

/// The golden digest for (workload, seed) in FILE ("workload seed digest"
/// lines, '#' comments); empty when the file has no entry.
std::string golden_digest(const std::string& path, const std::string& workload,
                          std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    std::uint64_t entry_seed = 0;
    if (fields >> name >> entry_seed >> digest && name == workload && entry_seed == seed)
      return digest;
  }
  return {};
}

// ---------------------------------------------------------------------------
// Commands.

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20;
  std::size_t threads = 2;
  std::string trace_path;
  bool quick = false;
  std::string work_dir = "build-perf/work";
  std::string traces_dir = "build-perf/traces";
  std::string golden_path;
  std::string expect;
  std::string commit = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: xfa_perf prepare --traces=DIR [--threads=N]\n"
               "       xfa_perf run WORKLOAD [--seed=S] [--seconds=T] [--threads=N]\n"
               "                [--trace=PATH] [--quick] [--work=DIR] [--traces=DIR]\n"
               "                [--golden=FILE] [--expect=HEX] [--commit=ID]\n"
               "workloads: cold-aodv-udp cold-dsr-tcp detect-paper scale-1k\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  int i = 2;
  if (args.command == "run") {
    if (argc < 3) return false;
    args.workload = argv[i++];
  } else if (args.command == "prepare") {
    args.threads = std::max(1u, std::thread::hardware_concurrency());
  } else {
    return false;
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--threads") {
        args.threads = std::stoul(value);
      } else if (key == "--trace") {
        args.trace_path = value;
      } else if (key == "--quick") {
        args.quick = true;
      } else if (key == "--work") {
        args.work_dir = value;
      } else if (key == "--traces") {
        args.traces_dir = value;
      } else if (key == "--golden") {
        args.golden_path = value;
      } else if (key == "--expect") {
        args.expect = value;
      } else if (key == "--commit") {
        args.commit = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.threads > 0 && args.seconds >= 0;
}

/// Simulates (once per trace directory) the full-scale AODV/UDP inventory
/// detect-paper loads, so that no timed run simulates it.
int prepare(const Args& args) {
  setenv("XFA_CACHE_DIR", args.traces_dir.c_str(), 1);
  resize_shared_pool(args.threads);
  const Clock::time_point start = Clock::now();
  Result<ExperimentData> data = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, paper_mixed_options());
  if (!data.ok()) {
    std::fprintf(stderr, "xfa_perf prepare: %s\n", data.status().to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "xfa_perf prepare: detect-paper inventory ready in %s (%.1f s)\n",
               args.traces_dir.c_str(), seconds_between(start, Clock::now()));
  return 0;
}

int run(const Args& args) {
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) return usage();
  const bool tracing = !args.trace_path.empty();

  RunContext ctx;
  ctx.workload = workload;
  ctx.seed = args.seed;
  ctx.quick = args.quick;
  ctx.threads = args.threads;
  ctx.cache_dir = args.work_dir + "/cache";
  // The environment snapshot (common/env.h) is taken on first use, after this.
  setenv("XFA_CACHE_DIR",
         workload->kind == Kind::Detect ? args.traces_dir.c_str() : ctx.cache_dir.c_str(),
         1);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  std::vector<std::uint64_t> setup_digests, digests;
  int next_unit = 0;
  const auto account = [&](const UnitResult& unit) {
    attempted += unit.ops;
    failed += unit.failed;
    if (!unit.status.ok() && first_error.empty()) first_error = unit.status.to_string();
  };

  std::vector<double> setup_times, plain_wall, plain_cpu;
  TracedUnits traced_units;
  Counters plain_counters, traced_counters;
  bool counters_repeat = true;
  const auto same_counters = [](Counters& expected, const Counters& got) {
    if (expected.empty()) expected = got;
    return expected == got;
  };

  const Clock::time_point loop_start = Clock::now();
  while (first_error.empty()) {
    const bool more_plain = plain_wall.size() < static_cast<std::size_t>(kMinUnits);
    const bool more_traced =
        tracing && traced_units.wall.size() < static_cast<std::size_t>(kMinUnits);
    if (seconds_between(loop_start, Clock::now()) >= args.seconds && !more_plain &&
        !more_traced)
      break;
    const bool traced = tracing && traced_units.wall.size() < plain_wall.size();

    // Every unit gets fresh set-ups, repeated until they took kMinSetupSeconds
    // so that a set-up of microseconds is sampled as densely as one of
    // milliseconds; setup_s is their median over the whole run.
    double setup_spent = 0;
    do {
      if (workload->kind != Kind::Detect) {
        std::error_code ec;
        fs::remove_all(ctx.cache_dir, ec);
      }
      UnitResult setup;
      const bool traced_setup = traced && workload->kind == Kind::Detect;
      tracer().set_unit(next_unit++);
      const Clock::time_point setup_start = Clock::now();
      {
        std::optional<Span> root;
        if (traced_setup) root.emplace("setup");
        set_up(ctx, traced_setup, setup);
      }
      setup_times.push_back(seconds_between(setup_start, Clock::now()));
      setup_spent += setup_times.back();
      account(setup);
      if (!setup.status.ok()) break;
      if (workload->kind == Kind::Detect) {
        Digest digest;
        digest_inventory(ctx.inventory, digest);
        ctx.inventory_digest = digest.result();
        setup_digests.push_back(digest.result());
      }
    } while (setup_spent < kMinSetupSeconds);
    if (!first_error.empty()) break;

    tracer().set_unit(next_unit++);
    const ExecStats pool_before = shared_pool().stats();
    const double cpu_before = cpu_seconds();
    const Clock::time_point start = Clock::now();
    UnitResult unit;
    {
      std::optional<Span> root;
      if (traced) root.emplace("unit");
      unit = run_unit(ctx, traced);
    }
    unit.wall = seconds_between(start, Clock::now());
    unit.cpu = cpu_seconds() - cpu_before;
    const ExecStats pool_after = shared_pool().stats();
    account(unit);
    digests.push_back(unit.digest);
    if (traced) {
      traced_units.wall.push_back(unit.wall);
      traced_units.task_wall.push_back(pool_after.task_wall_seconds -
                                       pool_before.task_wall_seconds);
      traced_units.task_cpu.push_back(pool_after.task_cpu_seconds -
                                      pool_before.task_cpu_seconds);
      traced_units.busy.push_back(ratio(traced_units.task_wall.back(),
                                        unit.wall * static_cast<double>(ctx.threads)));
      Counters counters = unit.counters;
      counters["exec.tasks"] = static_cast<double>(pool_after.tasks_executed -
                                                   pool_before.tasks_executed);
      counters_repeat = same_counters(traced_counters, counters) && counters_repeat;
    } else {
      plain_wall.push_back(unit.wall);
      plain_cpu.push_back(unit.cpu);
      counters_repeat = same_counters(plain_counters, unit.counters) && counters_repeat;
    }
  }

  std::vector<Metric> metrics;
  Counters counters = tracing ? traced_counters : plain_counters;
  bool coverage_ok = true;
  if (!tracing) {
    metrics = {{"setup_s", median(setup_times), "s"},
               {"wall_s", median(plain_wall), "s"},
               {"cpu_s", median(plain_cpu), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    const std::vector<SpanRecord> spans = tracer().spans();
    std::printf("== %s: per-layer breakdown over %zu traced units ==\n",
                workload->name, traced_units.wall.size());
    coverage_ok = std::abs(print_layer_table(spans) - 1.0) <= 0.01;
    write_chrome_trace(args.trace_path, spans);

    metrics = layer_metrics(spans, counters, traced_units, median(plain_wall));
    std::printf("== counters (one unit) ==\n");
    for (const auto& [name, value] : counters)
      std::printf("%-34s %.17g\n", name.c_str(), value);
  }

  // Correctness: the set-ups agree among themselves and so do the units,
  // plain and traced; the unit digest matches the golden one when there is
  // one; every counter repeats exactly and the plain units' counters equal
  // the traced units'; and the traced self times account for the traced time.
  const auto all_equal = [](const std::vector<std::uint64_t>& values) {
    return std::all_of(values.begin(), values.end(),
                       [&](std::uint64_t v) { return v == values.front(); });
  };
  const bool digests_agree = !digests.empty() && all_equal(digests) && all_equal(setup_digests);
  const std::string digest = digests.empty() ? "" : hex64(digests.front());
  std::string expected = args.expect;
  if (expected.empty() && !args.golden_path.empty() && !args.quick) {
    // detect-paper's inputs depend on the seed only through the rotation.
    const std::uint64_t golden_seed = workload->kind == Kind::Detect ? args.seed % 4 : args.seed;
    expected = golden_digest(args.golden_path, workload->name, golden_seed);
  }
  const bool golden_ok = expected.empty() || expected == digest;
  for (const auto& [name, value] : plain_counters) {
    const auto it = traced_counters.find(name);
    if (tracing && (it == traced_counters.end() || it->second != value))
      counters_repeat = false;
  }
  if (!digests_agree || !golden_ok || !counters_repeat || !coverage_ok) ++failed;
  const bool correct = failed == 0 && first_error.empty();

  if (!first_error.empty()) std::fprintf(stderr, "xfa_perf: %s\n", first_error.c_str());
  if (!digests_agree) std::fprintf(stderr, "xfa_perf: unit digests disagree\n");
  if (!golden_ok)
    std::fprintf(stderr, "xfa_perf: digest %s, expected %s\n", digest.c_str(),
                 expected.c_str());
  if (!counters_repeat) std::fprintf(stderr, "xfa_perf: counters did not repeat\n");
  if (!coverage_ok) std::fprintf(stderr, "xfa_perf: self times miss the traced time\n");

  const std::size_t units = plain_wall.size() + traced_units.wall.size();
  std::vector<Metric> detail = metrics;
  detail.push_back({"ops", static_cast<double>(attempted), "count"});
  detail.push_back({"ops_failed", static_cast<double>(failed), "count"});
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"threads\": %zu, \"host\": "
      "{\"nproc\": %u, \"commit\": %s, \"compiler\": %s, \"build_type\": %s}, "
      "\"ok\": %s, \"digest\": %s, \"expected_digest\": %s, \"units\": %zu, "
      "\"traced\": %s, \"unit_wall_s\": %s, \"metrics\": %s, \"counters\": %s}\n",
      json_string(workload->name).c_str(), args.seed, args.threads,
      std::thread::hardware_concurrency(), json_string(args.commit).c_str(),
      json_string(XFA_PERF_COMPILER).c_str(), json_string(XFA_PERF_BUILD_TYPE).c_str(),
      correct ? "true" : "false", json_string(digest).c_str(),
      expected.empty() ? "null" : json_string(expected).c_str(), units,
      tracing ? "true" : "false", list_json(plain_wall).c_str(), metrics_json(detail).c_str(),
      counters_json(counters).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted, 1), failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xfa::perf

int main(int argc, char** argv) {
  xfa::perf::Args args;
  if (!xfa::perf::parse_args(argc, argv, args)) return xfa::perf::usage();
  return args.command == "prepare" ? xfa::perf::prepare(args) : xfa::perf::run(args);
}
