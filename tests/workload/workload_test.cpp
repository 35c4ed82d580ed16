#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "pipeline/serialize.hpp"
#include "workload/scenario.hpp"
#include "workload/small_case.hpp"
#include "workload/suite.hpp"

#include "../graph/tree_json_oracle.hpp"

namespace elpc::workload {
namespace {

TEST(Suite, HasTwentyCases) {
  const auto suite = default_suite();
  ASSERT_EQ(suite.size(), 20u);
  for (const CaseSpec& spec : suite) {
    EXPECT_NO_THROW(spec.validate());
  }
}

TEST(Suite, SizesGrowMonotonically) {
  const auto suite = default_suite();
  for (std::size_t i = 1; i < suite.size(); ++i) {
    EXPECT_GE(suite[i].modules, suite[i - 1].modules);
    EXPECT_GT(suite[i].nodes, suite[i - 1].nodes);
    EXPECT_GT(suite[i].links, suite[i - 1].links);
  }
}

TEST(Suite, FirstCaseMatchesIllustratedScale) {
  const auto suite = default_suite();
  EXPECT_EQ(suite[0].modules, 5u);
  EXPECT_EQ(suite[0].nodes, 6u);
}

TEST(Suite, BuildScenarioHonoursSpec) {
  const auto suite = default_suite();
  const Scenario s = build_scenario(suite[3]);
  EXPECT_EQ(s.pipeline.module_count(), suite[3].modules);
  EXPECT_EQ(s.network.node_count(), suite[3].nodes);
  EXPECT_EQ(s.network.link_count(), suite[3].links);
  EXPECT_NE(s.source, s.destination);
  EXPECT_LT(s.source, s.network.node_count());
  EXPECT_LT(s.destination, s.network.node_count());
}

TEST(Suite, ScenariosAreStronglyConnected) {
  for (const CaseSpec& spec : default_suite()) {
    if (spec.nodes > 60) {
      break;  // keep the test fast; the generator is size-agnostic
    }
    const Scenario s = build_scenario(spec);
    EXPECT_TRUE(graph::is_strongly_connected(s.network)) << spec.name;
  }
}

TEST(Suite, GenerationIsDeterministic) {
  const auto suite = default_suite();
  const Scenario a = build_scenario(suite[2]);
  const Scenario b = build_scenario(suite[2]);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.destination, b.destination);
  EXPECT_DOUBLE_EQ(a.pipeline.module(1).complexity,
                   b.pipeline.module(1).complexity);
  EXPECT_EQ(a.network.link_count(), b.network.link_count());
}

TEST(Suite, DifferentSeedsGiveDifferentScenarios) {
  const auto suite = default_suite();
  SuiteConfig other;
  other.base_seed = 999;
  const Scenario a = build_scenario(suite[2]);
  const Scenario b = build_scenario(suite[2], other);
  EXPECT_NE(a.pipeline.module(1).complexity,
            b.pipeline.module(1).complexity);
}

TEST(Suite, CaseSpecValidationCatchesBadSizes) {
  CaseSpec bad;
  bad.modules = 1;
  bad.nodes = 5;
  bad.links = 10;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.modules = 5;
  bad.links = 3;  // fewer than nodes
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.links = 25;  // > n*(n-1) = 20
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(SmallCase, MatchesPaperStructure) {
  const Scenario s = small_case();
  EXPECT_EQ(s.pipeline.module_count(), 5u);
  EXPECT_EQ(s.network.node_count(), 6u);
  EXPECT_EQ(s.network.link_count(), 28u);
  EXPECT_EQ(s.source, 0u);
  EXPECT_EQ(s.destination, 5u);
  EXPECT_NO_THROW(s.network.validate());
}

TEST(SmallCase, SourceDestinationNotDirectlyLinked) {
  // The direct links are omitted to force mappings through the middle.
  const Scenario s = small_case();
  EXPECT_FALSE(s.network.has_link(0, 5));
  EXPECT_FALSE(s.network.has_link(5, 0));
}

TEST(ScenarioJson, RoundTrip) {
  const Scenario original = small_case();
  const Scenario restored = scenario_from_json(to_json(original));
  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.source, original.source);
  EXPECT_EQ(restored.destination, original.destination);
  EXPECT_EQ(restored.pipeline.module_count(),
            original.pipeline.module_count());
  EXPECT_EQ(restored.network.link_count(), original.network.link_count());
}

/// dump_json writes the network as text, and the bytes are the dump of
/// the scenario built as one tree (what `elpc generate` wrote before).
TEST(ScenarioJson, DumpJsonMatchesTheTreeDump) {
  for (const Scenario& scenario :
       {small_case(), build_scenario(default_suite()[2])}) {
    util::Json tree;
    tree.set("name", scenario.name);
    tree.set("pipeline", pipeline::to_json(scenario.pipeline));
    tree.set("network", graph::testing::tree_to_json(scenario.network));
    tree.set("source", scenario.source);
    tree.set("destination", scenario.destination);
    EXPECT_EQ(dump_json(scenario, 2), tree.dump(2));
    EXPECT_EQ(dump_json(scenario), tree.dump());
    EXPECT_EQ(to_json(scenario), tree);
  }
}

TEST(ScenarioJson, RejectsOutOfRangeEndpoints) {
  util::Json doc = to_json(small_case());
  doc.set("source", 99);
  EXPECT_THROW((void)scenario_from_json(doc), util::JsonError);
}

}  // namespace
}  // namespace elpc::workload
