// xfa_microbench: simulation-core and detection-pipeline hot-path kernels,
// reported as ops/sec.
//
// Usage: xfa_microbench [--quick] [--kernel=NAME]
//
// Simulation kernels:
//   transmit-throughput  Broadcast transmits through the channel (spatial
//                        neighbor grid + zero-copy fan-out) with full event
//                        drain, on the paper's topology (50 nodes, 1000x1000,
//                        250 m range, 20 m/s waypoint motion).
//   scheduler-churn      schedule / cancel / dispatch cycles through the
//                        slab-allocated scheduler, including the tombstone
//                        compaction path.
//   mobility-query       Random-waypoint position evaluation at advancing
//                        times, including the same-instant memoization hit
//                        pattern the channel produces.
//   packet-fanout        Shared-handle fan-out of a route-bearing packet to
//                        12 receivers versus the deep-copy equivalent.
//   scale-sweep          Whole AODV/UDP worlds at N = 100 / 1k / 5k / 10k
//                        nodes under constant spatial density, reported as
//                        dispatched scheduler events per second (the
//                        scale-out axis; see DESIGN.md §15 and the
//                        perf/ scale-1k workload).
//
// Detection kernels (the paper's computational-cost axis):
//   c45-train            C4.5 fit through the column-major DatasetView and
//                        the flat count-scratch arena.
//   featsel-rank         Mutual-information feature ranking over the wide
//                        140-column schema shape: fused joint-histogram +
//                        memoized-log2 pass per candidate (DESIGN.md §16),
//                        checked against the brute-force oracle.
//   featsel-train        Composite cross-feature train at full width vs
//                        top-32 selection (rank + select + fit survivors),
//                        with the k=all bit-identity self-check.
//   ripper-train         RIPPER fit (grow/prune decision list) through the
//                        view with reused shuffle/coverage scratch.
//   nbc-train            Naive Bayes fit: one column pass per feature into
//                        the flattened [value, unseen][class] table.
//   score-throughput     CrossFeatureModel::score_all over a discrete trace
//                        (each sub-model's predict_block kernel over 64-row
//                        column-major blocks, block-parallel on the shared
//                        pool).
//
// --quick shrinks the iteration counts so the run doubles as a CI
// correctness smoke: every kernel self-checks its results with XFA_CHECK
// (the detection kernels check determinism across fits and the bit-identity
// of serial score() versus parallel score_all()), so a nonzero exit means a
// real hot-path bug, not a slow machine.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cfa/model.h"
#include "common/check.h"
#include "ml/c45.h"
#include "ml/dataset_view.h"
#include "ml/feature_select.h"
#include "ml/naive_bayes.h"
#include "ml/ripper.h"
#include "mobility/waypoint.h"
#include "net/channel.h"
#include "net/node.h"
#include "net/packet.h"
#include "scenario/config.h"
#include "scenario/graph/builder.h"
#include "scenario/graph/registry.h"
#include "sim/simulator.h"

namespace xfa {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void report(const char* kernel, std::uint64_t ops, double wall_s) {
  std::printf("%-22s %12llu ops  %9.1f ms  %12.0f ops/s\n", kernel,
              static_cast<unsigned long long>(ops), wall_s * 1e3,
              wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0);
}

/// Routing stub: counts deliveries, relays nothing.
class CountingProtocol final : public RoutingProtocol {
 public:
  void send_data(Packet&&) override {}
  void receive(PacketPtr pkt, NodeId) override {
    ++received;
    ttl_sum += pkt->ttl;
  }
  void link_failure(const Packet&, NodeId) override { ++failures; }
  double average_route_length() const override { return 0; }
  std::size_t route_count() const override { return 0; }
  const RoutingStats& stats() const override { return stats_; }
  const char* name() const override { return "bench-stub"; }

  RoutingStats stats_;
  std::uint64_t received = 0;
  std::uint64_t failures = 0;
  std::uint64_t ttl_sum = 0;
};

void bench_transmit(bool quick) {
  const std::size_t kNodes = 50;
  const std::uint64_t iters = quick ? 2000 : 200000;

  Simulator sim(1);
  MobilityConfig mobility_config;  // paper defaults: 1000x1000, 20 m/s
  RandomWaypointMobility mobility(kNodes, mobility_config, Rng(7));
  ChannelConfig config;
  config.max_jitter_s = 0;
  config.promiscuous_taps = false;
  config.max_node_speed = mobility_config.max_speed;  // enable the grid
  Channel channel(sim, mobility, config);

  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<CountingProtocol*> protocols;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(
        std::make_unique<Node>(sim, channel, static_cast<NodeId>(i)));
    channel.register_node(*nodes.back());
    auto protocol = std::make_unique<CountingProtocol>();
    protocols.push_back(protocol.get());
    nodes.back()->set_routing(std::move(protocol));
  }

  // Spread the transmits over sim time so waypoint motion forces periodic
  // grid rebuilds (the production access pattern), then drain everything.
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const SimTime when = static_cast<double>(i) * 0.005;
    const NodeId from = static_cast<NodeId>(i % kNodes);
    sim.at(when, [&channel, from] {
      Packet pkt;
      pkt.src = from;
      pkt.dst = kBroadcast;
      pkt.size_bytes = kDataPacketBytes;
      channel.transmit(from, std::move(pkt), kBroadcast);
    });
  }
  sim.run();
  report("transmit-throughput", iters, seconds_since(start));

  std::uint64_t delivered = 0;
  for (const CountingProtocol* protocol : protocols)
    delivered += protocol->received;
  XFA_CHECK_EQ(channel.stats().transmissions, iters);
  XFA_CHECK_EQ(channel.stats().deliveries, delivered);
  XFA_CHECK_GT(delivered, 0u) << "50 nodes at 250 m range never connected";

  // Correctness smoke: the grid-pruned neighbor set must equal the O(N^2)
  // oracle at the post-run time.
  const SimTime t = sim.now();
  for (NodeId a = 0; a < static_cast<NodeId>(kNodes); ++a) {
    const std::vector<NodeId> pruned = channel.neighbors(a);
    std::vector<NodeId> brute;
    for (NodeId b = 0; b < static_cast<NodeId>(kNodes); ++b)
      if (a != b && channel.in_range(a, b)) brute.push_back(b);
    XFA_CHECK(pruned == brute) << "grid mismatch at node " << a << " t=" << t;
  }
  const NeighborIndex::Stats& grid = channel.neighbor_index().stats();
  XFA_CHECK_GT(grid.queries, 0u);
  XFA_CHECK_GE(grid.candidates, grid.confirmed);
}

void bench_scheduler(bool quick) {
  const std::uint64_t iters = quick ? 20000 : 2000000;

  Simulator sim(1);
  Scheduler& scheduler = sim.scheduler();
  std::uint64_t fired = 0;
  const auto start = Clock::now();
  // Per cycle: two schedules, one cancel, then drain — the discovery-timer
  // churn pattern (arm a retry, cancel it when the reply arrives) that made
  // tombstones pile up in the old map-based scheduler.
  for (std::uint64_t i = 0; i < iters; ++i) {
    const SimTime base = static_cast<double>(i) * 0.001;
    const EventId keep = sim.at(base + 0.01, [&fired] { ++fired; });
    const EventId drop = sim.at(base + 5.0, [&fired] { ++fired; });
    XFA_CHECK_NE(keep, drop);
    XFA_CHECK(sim.cancel(drop));
    sim.run_until(base);
  }
  sim.run();
  report("scheduler-churn", iters * 3, seconds_since(start));

  XFA_CHECK_EQ(fired, iters);
  XFA_CHECK_EQ(scheduler.dispatched(), iters);
  XFA_CHECK_EQ(scheduler.cancelled(), iters);
  XFA_CHECK_EQ(scheduler.pending(), 0u);
}

void bench_mobility(bool quick) {
  const std::size_t kNodes = 50;
  const std::uint64_t steps = quick ? 5000 : 500000;

  MobilityConfig config;
  RandomWaypointMobility mobility(kNodes, config, Rng(7));
  double checksum = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < steps; ++i) {
    const SimTime t = static_cast<double>(i) * 0.01;
    // One fresh query plus one same-instant repeat per node: the channel's
    // pattern (sender positioned, then re-confirmed as a grid candidate).
    const NodeId node = static_cast<NodeId>(i % kNodes);
    const Vec2 fresh = mobility.position(node, t);
    const Vec2 repeat = mobility.position(node, t);
    XFA_CHECK(fresh.x == repeat.x && fresh.y == repeat.y);
    checksum += fresh.x;
  }
  report("mobility-query", steps * 2, seconds_since(start));

  XFA_CHECK(checksum >= 0);
  for (NodeId node = 0; node < static_cast<NodeId>(kNodes); ++node) {
    const Vec2 p = mobility.position(node, static_cast<double>(steps) * 0.01);
    XFA_CHECK(p.x >= 0 && p.x <= config.field_width);
    XFA_CHECK(p.y >= 0 && p.y <= config.field_height);
  }
}

void bench_fanout(bool quick) {
  const std::uint64_t iters = quick ? 20000 : 1000000;
  const std::size_t kReceivers = 12;

  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.src = 0;
  pkt.dst = 9;
  DsrSourceRoute route;
  for (NodeId hop = 0; hop < 10; ++hop) route.hops.push_back(hop);
  pkt.header = route;

  std::vector<PacketPtr> shared_handles;
  shared_handles.reserve(kReceivers);
  std::uint64_t ttl_sum = 0;
  auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    // What the channel does per broadcast: one allocation, then a refcount
    // bump per receiver delivery.
    const PacketPtr shared = std::make_shared<const Packet>(pkt);
    shared_handles.clear();
    for (std::size_t r = 0; r < kReceivers; ++r)
      shared_handles.push_back(shared);
    for (const PacketPtr& handle : shared_handles) ttl_sum += handle->ttl;
  }
  const double shared_s = seconds_since(start);
  report("packet-fanout/shared", iters * kReceivers, shared_s);

  std::vector<Packet> copies;
  copies.reserve(kReceivers);
  start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    // The pre-refactor fan-out: a deep copy (vector-bearing header included)
    // per receiver lambda.
    copies.clear();
    for (std::size_t r = 0; r < kReceivers; ++r) copies.push_back(pkt);
    for (const Packet& copy : copies) ttl_sum += copy.ttl;
  }
  const double copy_s = seconds_since(start);
  report("packet-fanout/copy", iters * kReceivers, copy_s);

  XFA_CHECK_EQ(ttl_sum, 2 * iters * kReceivers * pkt.ttl);
}

/// Full AODV/UDP simulation worlds at growing node count under constant
/// spatial density (the field edge scales with sqrt(N), ~50 nodes per
/// 1000x1000 m — the paper's density), reported as dispatched scheduler
/// events per second (a fault-free transmission is one event however many
/// nodes receive it, DESIGN.md §10). This is the scale-out axis (DESIGN.md §15): route
/// tables, the neighbor grid, the event heap and the audit log must keep
/// the per-event cost flat as N grows 100 → 10k. The worlds match the
/// examples/scenarios/scale-1000.scn family (60 s, seed 5100, 60 CBR
/// connections) so kernel numbers and `xfa_bench scn:scale-1000` agree.
void bench_scale_sweep(bool quick) {
  struct ScalePoint {
    std::size_t nodes;
    double side_m;  // field edge: sqrt(nodes / 50) * 1000 m
  };
  const std::vector<ScalePoint> points =
      quick ? std::vector<ScalePoint>{{100, 1414}, {500, 3162}}
            : std::vector<ScalePoint>{
                  {100, 1414}, {1000, 4500}, {5000, 10000}, {10000, 14142}};

  for (const ScalePoint& point : points) {
    ScenarioConfig config;
    config.node_count = point.nodes;
    config.duration = quick ? 20 : 60;
    config.seed = 5100;
    config.mobility.field_width = point.side_m;
    config.mobility.field_height = point.side_m;
    config.traffic.max_connections = 60;

    Simulator sim(config.seed);
    RandomWaypointMobility mobility(config.node_count, config.mobility,
                                    Rng(config.mobility_seed));
    ChannelConfig channel_config = config.channel;
    channel_config.promiscuous_taps = element_for(config.routing).promiscuous;
    channel_config.max_node_speed = config.mobility.max_speed;
    Channel channel(sim, mobility, channel_config);
    const std::unique_ptr<BuiltScenario> world =
        build_scenario(config, sim, channel);

    const auto start = Clock::now();
    sim.run_until(config.duration);
    const double wall = seconds_since(start);

    char name[32];
    std::snprintf(name, sizeof(name), "scale-sweep/%zu", point.nodes);
    report(name, sim.scheduler().dispatched(), wall);

    // Self-check: the world actually ran — events dispatched, radio traffic
    // flowed, and the monitored node heard some of it.
    XFA_CHECK(sim.scheduler().dispatched() > 0);
    XFA_CHECK(channel.stats().deliveries > 0);
    XFA_CHECK(world->monitor_audit.total_packet_records() > 0);
  }
}

/// Synthetic discrete dataset with the detection pipeline's shape:
/// cardinality 5, correlated in blocks of 4 columns.
Dataset synthetic_dataset(std::size_t rows, std::size_t columns,
                          std::uint64_t seed) {
  Dataset data;
  data.cardinality.assign(columns, 5);
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<int> row(columns);
    for (std::size_t c = 0; c < columns; c += 4) {
      const int base = static_cast<int>(rng.uniform_int(5));
      for (std::size_t k = c; k < std::min(c + 4, columns); ++k)
        row[k] =
            rng.chance(0.8) ? base : static_cast<int>(rng.uniform_int(5));
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

std::vector<std::size_t> iota_columns(std::size_t n) {
  std::vector<std::size_t> columns(n);
  for (std::size_t i = 0; i < n; ++i) columns[i] = i;
  return columns;
}

/// Self-check shared by the training kernels: the first and the last fit of
/// a timing loop over the same view must produce the identical model — the
/// same describe() rendering and the same distribution on every row.
void check_refit(const Classifier& first, const Classifier& last,
                 const Dataset& data) {
  XFA_CHECK(first.describe({}) == last.describe({}))
      << first.name() << " refit diverged";
  std::vector<double> first_scratch(first.label_cardinality());
  std::vector<double> last_scratch(last.label_cardinality());
  for (const std::vector<int>& row : data.rows) {
    const std::span<const double> a = first.predict_dist(row, first_scratch);
    const std::span<const double> b = last.predict_dist(row, last_scratch);
    XFA_CHECK(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << first.name() << " refit diverged";
  }
}

void bench_c45_train(bool quick) {
  const std::size_t rows = quick ? 300 : 2000;
  const std::uint64_t iters = quick ? 3 : 30;
  const Dataset data = synthetic_dataset(rows, 40, 5);
  const DatasetView view(data);
  std::vector<std::size_t> features = iota_columns(40);
  features.pop_back();

  C45 first, last;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    C45& tree = i == 0 ? first : last;
    tree.fit(view, features, 39);
    XFA_CHECK_GT(tree.node_count(), 1u) << "degenerate training tree";
  }
  report("c45-train", iters * rows, seconds_since(start));
  check_refit(first, last, data);
}

void bench_ripper_train(bool quick) {
  const std::size_t rows = quick ? 300 : 2000;
  const std::uint64_t iters = quick ? 3 : 30;
  const Dataset data = synthetic_dataset(rows, 40, 5);
  const DatasetView view(data);
  std::vector<std::size_t> features = iota_columns(40);
  features.pop_back();

  Ripper first, last;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i)
    (i == 0 ? first : last).fit(view, features, 39);
  report("ripper-train", iters * rows, seconds_since(start));
  check_refit(first, last, data);
}

void bench_nbc_train(bool quick) {
  const std::size_t rows = quick ? 300 : 2000;
  const std::uint64_t iters = quick ? 30 : 300;
  const Dataset data = synthetic_dataset(rows, 40, 5);
  const DatasetView view(data);
  std::vector<std::size_t> features = iota_columns(40);
  features.pop_back();

  NaiveBayes first, last;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i)
    (i == 0 ? first : last).fit(view, features, 39);
  report("nbc-train", iters * rows, seconds_since(start));
  check_refit(first, last, data);
}

void bench_featsel_rank(bool quick) {
  const std::size_t rows = quick ? 300 : 2000;
  const std::uint64_t iters = quick ? 3 : 20;
  const std::size_t columns = 140;  // the wide-schema shape (ROADMAP item 5)
  const Dataset data = synthetic_dataset(rows, columns, 5);
  const DatasetView view(data);
  const std::vector<std::size_t> candidates = iota_columns(columns);
  const ClassifierFactory factory = [] { return std::make_unique<C45>(); };

  FeatureSelectionConfig config;
  config.ranker = FeatureRanker::MutualInformation;

  FeatureRanking ranking;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i)
    ranking = rank_features(view, candidates, config, factory);
  // One "op" = one candidate column ranked against the rest.
  report("featsel-rank", iters * columns, seconds_since(start));

  // Self-checks: the fused memoized pass must agree exactly with the
  // brute-force std::log2 oracle on the full-row config, and the pooled
  // pass must be bit-identical to the serial one.
  FeatureSelectionConfig exact = config;
  exact.max_rank_rows = 0;
  const FeatureRanking serial =
      rank_features(view, candidates, exact, factory, 1);
  const FeatureRanking pooled =
      rank_features(view, candidates, exact, factory, 0);
  XFA_CHECK_EQ(serial.ranked.size(), pooled.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    XFA_CHECK(serial.ranked[i].column == pooled.ranked[i].column);
    XFA_CHECK(serial.ranked[i].score == pooled.ranked[i].score);
  }
  const std::size_t probe = serial.ranked.front().column;
  double oracle = 0;
  for (const std::size_t other : candidates) {
    if (other == probe) continue;
    oracle += mutual_information(view.column(probe), view.cardinality(probe),
                                 view.column(other), view.cardinality(other));
  }
  oracle /= static_cast<double>(candidates.size() - 1);
  XFA_CHECK(serial.ranked.front().score == oracle)
      << "fused MI diverged from the brute-force oracle";
}

void bench_featsel_train(bool quick) {
  const std::size_t rows = quick ? 300 : 2000;
  const std::uint64_t iters = quick ? 1 : 5;
  const std::size_t columns = 140;
  const Dataset data = synthetic_dataset(rows, columns, 5);
  const ClassifierFactory factory = [] { return std::make_unique<C45>(); };

  const auto time_train = [&](const FeatureSelectionConfig& config,
                              CrossFeatureModel& model) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      const Status status =
          model.train(data, iota_columns(columns), factory, config);
      XFA_CHECK(status.ok()) << status.message();
    }
    return seconds_since(start);
  };

  CrossFeatureModel full;
  const double full_s = time_train(FeatureSelectionConfig{}, full);
  report("featsel-train full", iters * columns, full_s);

  FeatureSelectionConfig top32;
  top32.ranker = FeatureRanker::MutualInformation;
  top32.top_k = 32;
  CrossFeatureModel selected;
  const double selected_s = time_train(top32, selected);
  report("featsel-train k=32", iters * 32, selected_s);
  std::printf("%-22s %.2fx composite train speedup at k=32\n", "",
              selected_s > 0 ? full_s / selected_s : 0.0);
  XFA_CHECK_EQ(selected.submodel_count(), 32u);
  XFA_CHECK_EQ(selected.selected_out_columns().size(), columns - 32);

  // k=all (rank, cap nothing) must reproduce the unselected model exactly.
  FeatureSelectionConfig all = top32;
  all.top_k = 0;
  CrossFeatureModel ranked_all;
  const Status status =
      ranked_all.train(data, iota_columns(columns), factory, all);
  XFA_CHECK(status.ok()) << status.message();
  XFA_CHECK_EQ(ranked_all.submodel_count(), full.submodel_count());
  for (const std::vector<int>& row : data.rows) {
    const EventScore a = ranked_all.score(row);
    const EventScore b = full.score(row);
    XFA_CHECK(a.avg_match_count == b.avg_match_count);
    XFA_CHECK(a.avg_probability == b.avg_probability);
  }
}

void bench_score_throughput(bool quick) {
  const std::size_t rows = quick ? 200 : 500;
  const std::uint64_t iters = quick ? 2 : 20;
  const Dataset data = synthetic_dataset(rows, 60, 5);
  CrossFeatureModel model;
  const Status status = model.train(
      data, iota_columns(60), [] { return std::make_unique<C45>(); });
  XFA_CHECK(status.ok()) << status.message();

  std::vector<EventScore> scores;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) scores = model.score_all(data.rows);
  report("score-throughput", iters * rows, seconds_since(start));

  // Bit-identity: the block-parallel batch path must reproduce the serial
  // per-row score() exactly (same summation order per sub-model).
  XFA_CHECK_EQ(scores.size(), data.rows.size());
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    const EventScore serial = model.score(data.rows[r]);
    XFA_CHECK(scores[r].avg_match_count == serial.avg_match_count);
    XFA_CHECK(scores[r].avg_probability == serial.avg_probability);
  }
}

}  // namespace
}  // namespace xfa

int main(int argc, char** argv) {
  bool quick = false;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      only = argv[i] + 9;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--kernel=NAME]\n", argv[0]);
      return 64;
    }
  }
  const auto want = [&only](const char* name) {
    return only.empty() || only == name;
  };
  if (want("transmit-throughput")) xfa::bench_transmit(quick);
  if (want("scheduler-churn")) xfa::bench_scheduler(quick);
  if (want("mobility-query")) xfa::bench_mobility(quick);
  if (want("packet-fanout")) xfa::bench_fanout(quick);
  if (want("scale-sweep")) xfa::bench_scale_sweep(quick);
  if (want("c45-train")) xfa::bench_c45_train(quick);
  if (want("featsel-rank")) xfa::bench_featsel_rank(quick);
  if (want("featsel-train")) xfa::bench_featsel_train(quick);
  if (want("ripper-train")) xfa::bench_ripper_train(quick);
  if (want("nbc-train")) xfa::bench_nbc_train(quick);
  if (want("score-throughput")) xfa::bench_score_throughput(quick);
  return 0;
}
