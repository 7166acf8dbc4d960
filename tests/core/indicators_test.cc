#include "core/indicators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "testing/test_cubes.h"

namespace f2db {
namespace {

TEST(Indicators, SelfIndicatorIsZero) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 1.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  EXPECT_DOUBLE_EQ(computer.Indicate(0, 0), 0.0);
}

TEST(Indicators, LowForDerivableHighForNot) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  // Proportional series: derivation is near perfect.
  EXPECT_LT(computer.Indicate(graph.top_node(), graph.base_nodes()[0]), 0.05);
}

TEST(Indicators, AblationWeightsRespected) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 2.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorOptions history_only;
  history_only.similarity_weight = 0.0;
  IndicatorOptions similarity_only;
  similarity_only.historical_weight = 0.0;
  similarity_only.similarity_weight = 1.0;
  IndicatorComputer hist(evaluator, history_only);
  IndicatorComputer sim(evaluator, similarity_only);
  IndicatorComputer both(evaluator, IndicatorOptions{});

  const NodeId s = graph.top_node();
  const NodeId t = graph.base_nodes()[1];
  EXPECT_NEAR(both.Indicate(s, t),
              hist.Indicate(s, t) + 0.5 * sim.Indicate(s, t), 1e-12);
}

TEST(Indicators, LocalIncludesSelfAtZero) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 1.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  const LocalIndicator local = computer.ComputeLocal(graph.top_node(), 3);
  ASSERT_EQ(local.entries.size(), 4u);  // self + 3 nearest
  bool found_self = false;
  for (const auto& [target, value] : local.entries) {
    if (target == graph.top_node()) {
      found_self = true;
      EXPECT_DOUBLE_EQ(value, 0.0);
    }
  }
  EXPECT_TRUE(found_self);
}

TEST(Indicators, LocalSizeClampedToGraph) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 1.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  const LocalIndicator local = computer.ComputeLocal(0, 1000);
  EXPECT_EQ(local.entries.size(), graph.num_nodes());
}

TEST(GlobalIndicator, DefaultsToUncovered) {
  GlobalIndicator global(4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(global.value(static_cast<NodeId>(i)),
                     kUncoveredIndicator);
  }
  EXPECT_DOUBLE_EQ(global.Mean(), kUncoveredIndicator);
  EXPECT_DOUBLE_EQ(global.StdDev(), 0.0);
}

TEST(GlobalIndicator, MergeTakesElementwiseMin) {
  GlobalIndicator global(3);
  LocalIndicator a;
  a.source = 0;
  a.entries = {{0, 0.0}, {1, 0.5}};
  global.Merge(a);
  LocalIndicator b;
  b.source = 1;
  b.entries = {{1, 0.2}, {2, 0.9}};
  global.Merge(b);
  EXPECT_DOUBLE_EQ(global.value(0), 0.0);
  EXPECT_DOUBLE_EQ(global.value(1), 0.2);
  EXPECT_DOUBLE_EQ(global.value(2), 0.9);
}

TEST(GlobalIndicator, RebuildResetsFirst) {
  GlobalIndicator global(2);
  LocalIndicator a;
  a.source = 0;
  a.entries = {{0, 0.1}, {1, 0.1}};
  global.Merge(a);
  LocalIndicator b;
  b.source = 1;
  b.entries = {{1, 0.3}};
  global.Rebuild({&b});
  EXPECT_DOUBLE_EQ(global.value(0), kUncoveredIndicator);  // a gone
  EXPECT_DOUBLE_EQ(global.value(1), 0.3);
}

TEST(GlobalIndicator, MeanAndStdDev) {
  GlobalIndicator global(2);
  LocalIndicator a;
  a.source = 0;
  a.entries = {{0, 0.0}, {1, 1.0}};
  global.Merge(a);
  EXPECT_DOUBLE_EQ(global.Mean(), 0.5);
  EXPECT_DOUBLE_EQ(global.StdDev(), 0.5);
}

TEST(Indicators, UncoveredDominatesAnyComputedValue) {
  // historical <= 1 and similarity term <= similarity_weight, so any
  // computed indicator stays below the uncovered default.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 5.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  for (NodeId s = 0; s < graph.num_nodes(); ++s) {
    for (NodeId t = 0; t < graph.num_nodes(); ++t) {
      EXPECT_LT(computer.Indicate(s, t), kUncoveredIndicator);
    }
  }
}

// RankRemovals by its definition: the increase of every global entry when
// one local is dropped, summed over all targets in ascending order.
std::vector<NodeId> RankRemovalsByDefinition(
    const std::vector<NodeId>& model_nodes,
    const std::vector<LocalIndicator>& locals, std::size_t num_nodes) {
  auto global_without = [&](std::size_t skip) {
    std::vector<double> global(num_nodes, kUncoveredIndicator);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      if (i == skip) continue;
      for (const auto& [target, value] : locals[i].entries) {
        global[target] = std::min(global[target], value);
      }
    }
    return global;
  };
  const std::vector<double> all = global_without(locals.size());
  std::vector<std::pair<double, NodeId>> scores;
  for (std::size_t r = 0; r < model_nodes.size(); ++r) {
    const std::vector<double> rest = global_without(r);
    double penalty = 0.0;
    for (std::size_t t = 0; t < num_nodes; ++t) penalty += rest[t] - all[t];
    scores.emplace_back(penalty, model_nodes[r]);
  }
  std::sort(scores.begin(), scores.end());
  std::vector<NodeId> ranked;
  for (const auto& [penalty, node] : scores) ranked.push_back(node);
  return ranked;
}

TEST(Indicators, RemovalRankingMatchesDefinitionOnEveryPoolWidth) {
  constexpr std::size_t kNodes = 97;
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool three(3);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // Distinct ascending model nodes, each with a random sorted local that
    // holds itself at 0 and values from a small set, so ties are common.
    std::vector<NodeId> model_nodes;
    for (NodeId node = 0; node < kNodes; ++node) {
      if (rng.NextBernoulli(0.15)) model_nodes.push_back(node);
    }
    if (model_nodes.size() < 2) continue;
    std::vector<LocalIndicator> locals;
    for (NodeId source : model_nodes) {
      LocalIndicator local;
      local.source = source;
      local.entries.emplace_back(source, 0.0);
      for (NodeId target = 0; target < kNodes; ++target) {
        if (target != source && rng.NextBernoulli(0.3)) {
          local.entries.emplace_back(
              target, 0.125 * static_cast<double>(rng.UniformInt(1, 12)));
        }
      }
      std::sort(local.entries.begin(), local.entries.end());
      locals.push_back(std::move(local));
    }
    std::vector<const LocalIndicator*> pointers;
    for (const LocalIndicator& local : locals) pointers.push_back(&local);

    const std::vector<NodeId> expected =
        RankRemovalsByDefinition(model_nodes, locals, kNodes);
    for (ThreadPool* pool : {&one, &two, &three}) {
      EXPECT_EQ(RankRemovals(model_nodes, pointers, kNodes, *pool), expected)
          << "seed " << seed << " width " << pool->size();
    }
  }
}

}  // namespace
}  // namespace f2db
