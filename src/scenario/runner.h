// End-to-end scenario execution: simulate a MANET trace and extract the
// monitored node's feature matrix (the ns-2 run + trace post-processing).
#pragma once

#include "common/status.h"
#include "features/extract.h"
#include "net/channel.h"
#include "routing/route_events.h"
#include "scenario/config.h"

namespace xfa {

/// Ground-truth labelling for attack traces.
///
/// The paper observes that the implemented intrusions do not self-heal
/// ("there is no way to figure out exactly when the intrusion actions have
/// ended and the observed anomalies are just the lasting damages"), so the
/// default treats everything from the first intrusion onset onward as
/// abnormal — this matches the flat-vs-oscillating split in Figure 3.
/// ActiveSessions labels only samples that overlap an on-phase (ablation).
enum class LabelPolicy { OnsetOnwards, ActiveSessions };

/// Network-level health counters for one run (tests, examples, sanity).
struct ScenarioSummary {
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  double packet_delivery_ratio = 0;
  /// Scheduler events dispatched. A fault-free transmission's arrivals are
  /// one event however many nodes receive it, so this counts dispatches,
  /// not deliveries (those are in `channel`).
  std::uint64_t scheduler_events = 0;
  ChannelStats channel;
  RoutingStats monitor_routing;
  std::uint64_t monitor_audit_packets = 0;
  std::uint64_t monitor_audit_route_events = 0;
};

struct ScenarioResult {
  RawTrace trace;  // labelled per the requested policy
  ScenarioSummary summary;
};

/// Usability check on a finished run: non-empty, rectangular, finite feature
/// rows and a monitor node that actually observed traffic. Anything else is
/// kDegenerateData — the kind of trace heavy benign faults can produce.
Status validate_scenario_result(const ScenarioResult& result);

/// Runs (or loads from the trace cache) one scenario. Caching is keyed on
/// ScenarioConfig::cache_key(); labels are recomputed per call so the policy
/// is not part of the key. Set XFA_NO_CACHE=1 to force re-simulation;
/// XFA_CACHE_DIR overrides the cache directory (default ./xfa_cache); both
/// are read from the process env snapshot (common/env.h).
///
/// Concurrency-safe: every call owns an isolated simulation world, and an
/// in-flight single-flight guard keyed on the cache key makes concurrent
/// requests for the same trace simulate exactly once — each caller then
/// labels its own copy per its policy. Across processes there is no
/// handshake: two processes that simulate one key publish identical bytes
/// by atomic rename, and one artifact survives.
///
/// Recovery path: a corrupt or degenerate cache artifact is a miss — the
/// corrupt file is quarantined and the trace regenerated. Each trace is the
/// run of the seed its key names, so a simulation is never repeated under
/// another seed: a degenerate run returns kDegenerateData at once, its
/// message naming the cache key, and nothing is stored.
///
/// Deadline supervision: with XFA_TRACE_DEADLINE_MS=N (> 0) the simulation
/// runs under a soft wall-clock deadline (exec/deadline.h) — a hung run is
/// cooperatively cancelled at a scheduler dispatch boundary. A run cut short
/// by that deadline, or by a DeadlineGuard the caller holds, returns
/// kDeadlineExceeded and stores nothing.
Result<ScenarioResult> run_scenario_checked(
    const ScenarioConfig& config, LabelPolicy policy = LabelPolicy::OnsetOnwards);

/// Cache-only mode: while set, run_scenario_checked never simulates — a
/// trace missing from the cache is a kNotFound error naming the key, and
/// nothing is written. A caller that must run on stored traces only (a
/// benchmark that times detection, not simulation) turns it on.
/// Process-wide; flip it before any plan runs.
void set_require_cached_traces(bool require);
bool require_cached_traces();

/// Labels a trace in place according to the config's attack schedules.
void apply_labels(RawTrace& trace, const ScenarioConfig& config,
                  LabelPolicy policy);

}  // namespace xfa
