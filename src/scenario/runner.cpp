#include "scenario/runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "exec/deadline.h"
#include "exec/single_flight.h"
#include "net/node.h"
#include "scenario/cache.h"
#include "scenario/graph/builder.h"
#include "scenario/graph/registry.h"
#include "sim/simulator.h"

namespace xfa {
namespace {

/// One simulation of `config` and the extraction of its monitored node's
/// trace. Returns kDeadlineExceeded when the calling thread's deadline cut
/// the run short, whichever guard set it.
Result<ScenarioResult> simulate(const ScenarioConfig& config) {
  Simulator sim(config.seed);
  // The mobility scenario has its own seed (shared across an experiment's
  // traces, like a reused setdest file).
  RandomWaypointMobility mobility(config.node_count, config.mobility,
                                  Rng(config.mobility_seed));

  ChannelConfig channel_config = config.channel;
  // Only routing elements that consume promiscuous taps (DSR) pay for
  // generating them.
  channel_config.promiscuous_taps = element_for(config.routing).promiscuous;
  // Random-waypoint speeds are bounded, so the channel can run its spatial
  // neighbor grid (exact pruning; trace-identical to the linear scan).
  channel_config.max_node_speed = config.mobility.max_speed;
  Channel channel(sim, mobility, channel_config);

  // Everything per-node — routing agents, transports, attack scripts, the
  // fault injector, the audit monitor — is wired by the element-graph
  // builder in the exact construction (and RNG-fork) order the historical
  // hand-rolled runner used.
  const std::unique_ptr<BuiltScenario> world =
      build_scenario(config, sim, channel);

  // --- Per-sample monitored-node state ------------------------------------
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
      state.average_route_len.push_back(
          monitor.routing().average_route_length());
    });
  }

  sim.run_until(config.duration);

  // A fired deadline unwinds run_until early, so the sampled node state is
  // incomplete and extraction's preconditions do not hold.
  if (deadline_exceeded()) {
    return Status{StatusCode::kDeadlineExceeded,
                  "scenario simulation cut short by its deadline"};
  }

  // --- Extraction ---------------------------------------------------------
  const FeatureSchema schema = FeatureSchema::standard();
  FeatureExtractor extractor(schema, config.sample_interval);
  ScenarioResult result;
  result.trace = extractor.extract(world->monitor_audit, state,
                                   config.duration);

  ScenarioSummary& summary = result.summary;
  for (const auto& node : world->nodes) {
    summary.data_originated += node->data_originated();
    summary.data_delivered += node->data_delivered();
  }
  summary.packet_delivery_ratio =
      summary.data_originated == 0
          ? 0.0
          : static_cast<double>(summary.data_delivered) /
                static_cast<double>(summary.data_originated);
  summary.scheduler_events = sim.scheduler().dispatched();
  summary.channel = channel.stats();
  summary.monitor_routing = monitor.routing().stats();
  summary.monitor_audit_packets = world->monitor_audit.total_packet_records();
  summary.monitor_audit_route_events =
      world->monitor_audit.total_route_events();
  return result;
}

}  // namespace

void apply_labels(RawTrace& trace, const ScenarioConfig& config,
                  LabelPolicy policy) {
  trace.labels.assign(trace.size(), 0);
  if (!config.has_attacks()) return;

  std::vector<IntrusionSchedule> schedules;
  schedules.reserve(config.attacks.size());
  SimTime first_onset = kNever;
  for (const AttackSpec& spec : config.attacks) {
    schedules.push_back(spec.schedule.build());
    first_onset = std::min(first_onset, schedules.back().first_start());
  }

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const SimTime t = trace.times[i];
    if (policy == LabelPolicy::OnsetOnwards) {
      trace.labels[i] = t > first_onset ? 1 : 0;
    } else {
      const SimTime window_start = t - config.sample_interval;
      for (const IntrusionSchedule& schedule : schedules) {
        if (schedule.active_in(window_start, t)) {
          trace.labels[i] = 1;
          break;
        }
      }
    }
  }
}

Status validate_scenario_result(const ScenarioResult& result) {
  if (result.trace.rows.empty())
    return {StatusCode::kDegenerateData, "trace has no samples"};
  if (result.trace.times.size() != result.trace.rows.size())
    return {StatusCode::kDegenerateData, "times/rows length mismatch"};
  const std::size_t width = result.trace.rows.front().size();
  if (width == 0) return {StatusCode::kDegenerateData, "zero-width rows"};
  for (const auto& row : result.trace.rows) {
    if (row.size() != width)
      return {StatusCode::kDegenerateData, "ragged trace rows"};
    for (const double value : row)
      if (!std::isfinite(value))
        return {StatusCode::kDegenerateData, "non-finite feature value"};
  }
  if (result.summary.monitor_audit_packets == 0)
    return {StatusCode::kDegenerateData, "monitor node observed no packets"};
  return Status::Ok();
}

namespace {

/// Cache, then simulate, then store — for one config, labels not yet
/// applied. This is the section the single-flight guard protects: everything
/// in here is a pure function of the config, so one execution serves every
/// concurrent requester of the same key. Two processes that simulate one key
/// publish identical bytes by atomic rename, so no cross-process
/// coordination is needed.
Result<ScenarioResult> load_or_simulate(const ScenarioConfig& config,
                                        const std::string& key) {
  // Constructed per call (cheap: reads of the env snapshot) so tests can
  // toggle XFA_NO_CACHE between scenarios via refresh_env_for_testing().
  const TraceCache cache;
  if (Result<ScenarioResult> cached = cache.load(key); cached.ok()) {
    // A checksum-valid artifact can still be semantically degenerate (stored
    // by an older build with laxer validation); treat it like a miss.
    if (validate_scenario_result(*cached).ok()) return std::move(*cached);
  }
  // Cache-only mode: a miss is an error naming the key, never a simulation.
  if (require_cached_traces()) {
    return Status{StatusCode::kNotFound,
                  "trace not in cache (cache-only mode): " + key};
  }
  // kNotFound falls through to simulation; kCorruptArtifact additionally
  // quarantined the bad file inside load() — regeneration is the self-heal.
  // The key names one seed's run, so a failed run is reported, not re-run.
  // A non-positive XFA_TRACE_DEADLINE_MS makes the guard a no-op.
  const DeadlineGuard guard(static_cast<double>(env().trace_deadline_ms) *
                            1e-3);
  Result<ScenarioResult> simulated = simulate(config);
  const Status status =
      simulated.ok() ? validate_scenario_result(*simulated) : simulated.status();
  if (!status.ok()) {
    return Status{status.code(), status.message() + ": " + key};
  }
  // A failed store only costs the next caller a re-simulation.
  cache.store(key, *simulated);
  return simulated;
}

/// In-flight dedup across pool workers: two tasks asking for the same trace
/// key simulate once. Each run_scenario_checked call owns an isolated
/// Simulator/Channel/FaultInjector world (all state lives inside
/// simulate()), so the *only* cross-task coupling is this keyed rendezvous
/// plus the cache files it guards.
SingleFlight<Result<ScenarioResult>>& scenario_single_flight() {
  static SingleFlight<Result<ScenarioResult>> flights;
  return flights;
}

}  // namespace

Result<ScenarioResult> run_scenario_checked(const ScenarioConfig& config,
                                            LabelPolicy policy) {
  const std::string key = config.cache_key();
  Result<ScenarioResult> result = scenario_single_flight().run(
      key, [&config, &key] { return load_or_simulate(config, key); });
  if (!result.ok()) return result.status();
  // Labels depend on the caller's policy (not part of the key), so they are
  // applied to this caller's copy after the shared flight resolves.
  apply_labels(result->trace, config, policy);
  return std::move(*result);
}

namespace {
// Atomic only so pool workers may read it while the driver is quiescent;
// flipping it mid-plan is not supported (the flag is a run mode, not a gate).
std::atomic<bool> g_require_cached_traces{false};
}  // namespace

void set_require_cached_traces(bool require) {
  g_require_cached_traces.store(require, std::memory_order_relaxed);
}

bool require_cached_traces() {
  return g_require_cached_traces.load(std::memory_order_relaxed);
}

}  // namespace xfa
