// Scenario element-graph coverage: parser error paths (every malformed
// input yields an actionable Status — this layer never aborts), registry
// sanity, and a seeded fuzz sweep of generated scenario files through
// parse -> lower.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "scenario/config.h"
#include "scenario/graph/generate.h"
#include "scenario/graph/parse.h"
#include "scenario/graph/registry.h"
#include "scenario/graph/spec.h"
#include "sim/rng.h"

namespace xfa {
namespace {

// --- Parser error paths -----------------------------------------------------

/// Parses `text` expecting failure; the error message must contain `hint`
/// so operators can act on it.
void expect_parse_error(const std::string& text, const std::string& hint) {
  const Result<ScenarioSpec> parsed = parse_scenario_text(text);
  ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(hint), std::string::npos)
      << "message: " << parsed.status().message();
}

/// Parses `text` (must succeed) then lowers expecting failure with `hint`.
void expect_lower_error(const std::string& text, const std::string& hint) {
  const Result<ScenarioSpec> parsed = parse_scenario_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const Result<ScenarioConfig> lowered = lower_spec(*parsed);
  ASSERT_FALSE(lowered.ok()) << "lowered: " << text;
  EXPECT_EQ(lowered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(lowered.status().message().find(hint), std::string::npos)
      << "message: " << lowered.status().message();
}

const char* kMinimal =
    "[element aodv]\n"
    "[element cbr]\n";

TEST(ScenarioParse, MinimalScenarioLowers) {
  const Result<ScenarioSpec> parsed = parse_scenario_text(kMinimal);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const Result<ScenarioConfig> lowered = lower_spec(*parsed);
  ASSERT_TRUE(lowered.ok()) << lowered.status().to_string();
  // Omitted keys keep the ScenarioConfig defaults.
  EXPECT_EQ(lowered->cache_key(), ScenarioConfig{}.cache_key());
}

TEST(ScenarioParse, KeyBeforeAnySectionNamesTheLine) {
  expect_parse_error("# comment\nnodes = 50\n", "line 2");
  expect_parse_error("nodes = 50\n", "before any [section] header");
}

TEST(ScenarioParse, UnterminatedSectionHeader) {
  expect_parse_error("[sim\nnodes = 50\n", "unterminated section header");
  expect_parse_error("[]\n", "empty section header");
}

TEST(ScenarioParse, UnknownSectionListsAccepted) {
  expect_parse_error("[simulation]\nnodes = 50\n", "unknown section");
}

TEST(ScenarioParse, UnknownKeyListsAccepted) {
  // The message enumerates the accepted keys so typos are self-correcting.
  expect_parse_error("[sim]\nnode_count = 50\n", "nodes");
  expect_parse_error("[mobility]\nspeed = 5\n", "max-speed");
}

TEST(ScenarioParse, MalformedValuesNameTheKey) {
  expect_parse_error("[sim]\nduration = abc\n", "duration");
  expect_parse_error("[sim]\nnodes = -3\n", "nodes");
  expect_parse_error("[sim]\nnodes =\n", "empty value");
  expect_parse_error("[channel]\nloss-rate = 1.5\n", "loss-rate");
  expect_parse_error("[channel]\ntaps = yes\n", "taps");
}

TEST(ScenarioParse, GarbageLineIsRejected) {
  expect_parse_error("[sim]\nthis is not a key value pair\n",
                     "expected 'key = value'");
}

TEST(ScenarioLower, UnknownElementTypeListsRegistry) {
  expect_lower_error("[element wormhole]\n", "unknown element type");
  expect_lower_error("[element wormhole]\n", "blackhole");  // the listing
}

TEST(ScenarioLower, UnknownParameterListsAccepted) {
  expect_lower_error(
      "[element aodv]\n[element cbr]\n[element blackhole]\nattacker = 1\n"
      "rate = 3\n",
      "unknown parameter 'rate'");
}

TEST(ScenarioLower, DuplicateInstanceNames) {
  expect_lower_error("[element aodv]\n[element cbr]\n[element cbr]\n",
                     "duplicate element name");
  // Distinct names for repeated attack types are fine.
  const Result<ScenarioSpec> parsed = parse_scenario_text(
      "[element aodv]\n[element cbr]\n"
      "[element blackhole first]\nattacker = 1\n"
      "[element blackhole second]\nattacker = 2\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(lower_spec(*parsed).ok());
}

TEST(ScenarioLower, RoleArities) {
  expect_lower_error("[element cbr]\n", "exactly one routing");
  expect_lower_error("[element aodv]\n", "exactly one transport");
  expect_lower_error("[element aodv]\n[element dsr]\n[element cbr]\n",
                     "exactly one routing");
  expect_lower_error("[element aodv]\n[element cbr]\n[element tcp mine]\n",
                     "exactly one transport");
  expect_lower_error(
      "[element aodv]\n[element cbr]\n"
      "[element monitor a]\nnode = 0\n[element monitor b]\nnode = 1\n",
      "at most one monitor");
}

TEST(ScenarioLower, OutOfRangeValues) {
  expect_lower_error(
      "[sim]\nnodes = 10\n[element aodv]\n[element cbr]\n"
      "[element monitor]\nnode = 10\n",
      "monitor node 10 out of range");
  expect_lower_error(
      "[sim]\nnodes = 10\n[element aodv]\n[element cbr]\n"
      "[element blackhole]\nattacker = 64\n",
      "attacker node 64 out of range");
  expect_lower_error(
      "[element aodv]\n[element cbr]\n"
      "[element drop]\nattacker = 1\nprobability = 2\n",
      "probability");
}

TEST(ScenarioLower, ScheduleSessionsExcludePeriodicKeys) {
  expect_lower_error(
      "[element aodv]\n[element cbr]\n"
      "[element blackhole]\nattacker = 1\nstart = 100\n"
      "sessions = 100:50,300:50\n",
      "'sessions' excludes 'start'/'session'");
}

TEST(ScenarioLower, AttackerCannotBeAuto) {
  expect_lower_error(
      "[element aodv]\n[element cbr]\n[element blackhole]\nattacker = auto\n",
      "'attacker' cannot be auto");
}

TEST(ScenarioLower, ImpersonationVictimMustDifferFromAttacker) {
  expect_lower_error(
      "[element aodv]\n[element cbr]\n"
      "[element impersonation]\nattacker = 3\nvictim = 3\n",
      "victim must differ from the attacker");
}

TEST(ScenarioLower, FullyDisabledFaultPlanIsRejected) {
  expect_lower_error("[element aodv]\n[element cbr]\n[element faults]\n",
                     "enables no mechanism");
}

TEST(ScenarioLower, SampleIntervalMustFitDuration) {
  expect_lower_error(
      "[sim]\nduration = 3\n[element aodv]\n[element cbr]\n",
      "sample-interval");
}

TEST(ScenarioLoad, MissingFileIsIoErrorNotAbort) {
  const Result<ScenarioSpec> loaded =
      load_scenario_file("/nonexistent/path/to/scenario.scn");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("scenario.scn"),
            std::string::npos);
}

// --- Generated scenario files ---------------------------------------------

TEST(ScenarioRoundTrip, FuzzedGraphsSurviveTextRoundTrip) {
  // Seeded sweep: every generated scenario file must parse and lower, and
  // the same seed must regenerate the same text, so failures reproduce from
  // the seed alone.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::string text = random_scenario_text(rng);
    const Result<ScenarioSpec> parsed = parse_scenario_text(text);
    ASSERT_TRUE(parsed.ok())
        << "seed " << seed << ": " << parsed.status().to_string() << "\n"
        << text;
    const Result<ScenarioConfig> lowered = lower_spec(*parsed);
    ASSERT_TRUE(lowered.ok())
        << "seed " << seed << ": " << lowered.status().to_string() << "\n"
        << text;

    Rng replay(seed);
    EXPECT_EQ(random_scenario_text(replay), text) << "seed " << seed;
  }
}

// --- Registry sanity ---------------------------------------------------------

TEST(ElementRegistry, EveryConfigEnumHasABackingElement) {
  EXPECT_EQ(element_for(RoutingKind::Aodv).type, "aodv");
  EXPECT_EQ(element_for(RoutingKind::Dsr).type, "dsr");
  EXPECT_EQ(element_for(TransportKind::Udp).type, "cbr");
  EXPECT_EQ(element_for(TransportKind::Tcp).type, "tcp");
  EXPECT_EQ(element_for(AttackKind::Blackhole).type, "blackhole");
  EXPECT_EQ(element_for(AttackKind::SelectiveDrop).type, "selective-drop");
  EXPECT_EQ(element_for(AttackKind::UpdateStorm).type, "update-storm");
  EXPECT_EQ(element_for(AttackKind::RandomDrop).type, "drop");
  EXPECT_EQ(element_for(AttackKind::Impersonation).type, "impersonation");
}

TEST(ElementRegistry, TypesAreUniqueAndHooksMatchRoles) {
  std::set<std::string_view> types;
  for (const ElementDef& def : element_registry()) {
    EXPECT_TRUE(types.insert(def.type).second) << def.type;
    EXPECT_NE(def.lower, nullptr) << def.type;
    EXPECT_FALSE(def.doc.empty()) << def.type;
    switch (def.role) {
      case ElementRole::Routing:
        EXPECT_NE(def.make_routing, nullptr) << def.type;
        break;
      case ElementRole::Transport:
        EXPECT_NE(def.make_flow, nullptr) << def.type;
        break;
      case ElementRole::Attack:
        EXPECT_NE(def.make_attack, nullptr) << def.type;
        break;
      case ElementRole::Fault:
      case ElementRole::Monitor:
        break;  // lower-only roles
    }
  }
  // Only DSR runs its interfaces promiscuously (tap-based route cache).
  EXPECT_TRUE(find_element("dsr")->promiscuous);
  EXPECT_FALSE(find_element("aodv")->promiscuous);
  EXPECT_EQ(find_element("no-such-element"), nullptr);
}

}  // namespace
}  // namespace xfa
