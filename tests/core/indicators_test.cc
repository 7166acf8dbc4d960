#include "core/indicators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/datasets.h"
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
  ThreadPool pool(2);
  GlobalIndicator global(2);
  LocalIndicator a;
  a.source = 0;
  a.entries = {{0, 0.1}, {1, 0.1}};
  global.Merge(a);
  LocalIndicator b;
  b.source = 1;
  b.entries = {{1, 0.3}};
  EXPECT_TRUE(global.RebuildAndRankRemovals({1}, {&b}, pool).empty());
  EXPECT_DOUBLE_EQ(global.value(0), kUncoveredIndicator);  // a gone
  EXPECT_DOUBLE_EQ(global.value(1), 0.3);
  EXPECT_TRUE(global.RebuildAndRankRemovals({}, {}, pool).empty());
  EXPECT_DOUBLE_EQ(global.value(0), kUncoveredIndicator);
  EXPECT_DOUBLE_EQ(global.value(1), kUncoveredIndicator);
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

// The global indicator by its definition: Merge of every local in turn.
std::vector<double> GlobalByMerge(const std::vector<LocalIndicator>& locals,
                                  std::size_t count, std::size_t num_nodes) {
  GlobalIndicator global(num_nodes);
  for (std::size_t i = 0; i < count; ++i) global.Merge(locals[i]);
  return global.values();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Indicators, RemovalRankingMatchesDefinitionOnEveryPoolWidth) {
  constexpr std::size_t kNodes = 97;
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool three(3);
  // A local that the rebuild must drop: it covers every node at 0.
  LocalIndicator stale;
  for (NodeId node = 0; node < kNodes; ++node) {
    stale.entries.emplace_back(node, 0.0);
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // Distinct ascending model nodes, each with a random sorted local that
    // holds itself at 0 and values from a small set, so ties are common.
    std::vector<NodeId> model_nodes;
    for (NodeId node = 0; node < kNodes; ++node) {
      if (rng.NextBernoulli(0.15)) model_nodes.push_back(node);
    }
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

    // The full model set, and its first zero and one models.
    for (std::size_t count :
         {std::size_t{0}, std::min<std::size_t>(1, model_nodes.size()),
          model_nodes.size()}) {
      const std::vector<NodeId> nodes(model_nodes.begin(),
                                      model_nodes.begin() + count);
      const std::vector<const LocalIndicator*> subset(
          pointers.begin(), pointers.begin() + count);
      const std::vector<NodeId> expected =
          count >= 2 ? RankRemovalsByDefinition(nodes, locals, kNodes)
                     : std::vector<NodeId>{};
      const std::vector<double> merged = GlobalByMerge(locals, count, kNodes);
      for (ThreadPool* pool : {&one, &two, &three}) {
        GlobalIndicator global(kNodes);
        global.Merge(stale);
        EXPECT_EQ(global.RebuildAndRankRemovals(nodes, subset, *pool),
                  expected)
            << "seed " << seed << " models " << count << " width "
            << pool->size();
        EXPECT_TRUE(SameBits(global.values(), merged))
            << "seed " << seed << " models " << count << " width "
            << pool->size();
      }
    }
  }
}

// ---------------------------------------------------------------------
// ComputeLocal's lane-blocked kernel against Indicate, bit for bit.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every entry of the local of `source` at `size` holds exactly the bits
/// of Indicate(source, target); the targets are the source and its
/// NearestNodes, ascending.
void ExpectLocalMatchesIndicate(const IndicatorComputer& computer,
                                const TimeSeriesGraph& graph, NodeId source,
                                std::size_t size) {
  const LocalIndicator local = computer.ComputeLocal(source, size);
  std::vector<NodeId> want = graph.NearestNodes(source, size);
  want.push_back(source);
  std::sort(want.begin(), want.end());
  ASSERT_EQ(local.entries.size(), want.size()) << "source " << source;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto [target, value] = local.entries[i];
    ASSERT_EQ(target, want[i]) << "source " << source;
    const double expected = computer.Indicate(source, target);
    EXPECT_TRUE(SameBits(value, expected))
        << "source " << source << " target " << target << ": " << value
        << " vs " << expected;
  }
}

TEST(Indicators, LocalKernelBitIdenticalToIndicate) {
  std::vector<DataSet> sets;
  sets.push_back(MakeTourism().value());
  sets.push_back(MakeSales().value());
  sets.push_back(MakeEnergy().value());
  for (const DataSet& data : sets) {
    const TimeSeriesGraph& graph = data.graph;
    ConfigurationEvaluator evaluator(graph, 0.8);
    IndicatorComputer computer(evaluator, IndicatorOptions{});
    for (NodeId source = 0; source < graph.num_nodes(); ++source) {
      // The whole graph, and a size that leaves a partial lane block.
      ExpectLocalMatchesIndicate(computer, graph, source,
                                 graph.num_nodes() - 1);
      ExpectLocalMatchesIndicate(computer, graph, source, 13);
    }
  }
  const DataSet gen = MakeGenX(10000).value();
  ConfigurationEvaluator evaluator(gen.graph, 0.8);
  IndicatorComputer computer(evaluator, IndicatorOptions{});
  for (NodeId source = 0; source < gen.graph.num_nodes(); source += 211) {
    ExpectLocalMatchesIndicate(computer, gen.graph, source, 1024);
  }
  ExpectLocalMatchesIndicate(computer, gen.graph, gen.graph.top_node(), 1024);
}

TEST(Indicators, LocalKernelBitIdenticalOnCraftedSeries) {
  // One flat dimension of nine cities (ten nodes with ALL); training
  // length 8 of 10 observations.
  std::vector<std::string> names;
  for (int c = 0; c < 9; ++c) names.push_back("C" + std::to_string(c));
  CubeSchema schema;
  ASSERT_TRUE(schema.AddHierarchy(Hierarchy::Flat("city", names)).ok());
  TimeSeriesGraph graph = TimeSeriesGraph::Create(std::move(schema)).value();
  const std::vector<std::vector<double>> series = {
      {0, 0, 0, 0, 0, 0, 0, 0, 3, 4},      // all-zero training values
      {0, 0, 0, 5, 0, 0, 0, 0, 1, 1},      // exactly one nonzero step
      {2, -2, 3, -3, 1, -1, 4, -4, 2, 2},  // history sum 0: weight k = 0
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},      // all-zero target
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
      {5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
      {1e-13, 1, 1e-13, 2, 0, 3, 1e-13, 4, 1, 1},  // near-zero source steps
      {-1, -2, -3, -1, -2, -3, -1, -2, 0, 0},
      {3.25, 0.5, 7.75, 1e6, 2e-6, 9, 4, 1, 1, 1},
  };
  for (std::size_t c = 0; c < series.size(); ++c) {
    ASSERT_TRUE(
        graph.SetBaseSeries(graph.base_nodes()[c], TimeSeries(series[c]))
            .ok());
  }
  ASSERT_TRUE(graph.BuildAggregates().ok());
  ConfigurationEvaluator evaluator(graph, 0.8);
  ASSERT_EQ(evaluator.train_length(), 8u);
  IndicatorOptions similarity_only;
  similarity_only.historical_weight = 0.0;
  similarity_only.similarity_weight = 1.0;
  for (const IndicatorOptions& options :
       {IndicatorOptions{}, similarity_only}) {
    IndicatorComputer computer(evaluator, options);
    for (NodeId source = 0; source < graph.num_nodes(); ++source) {
      // Target counts of 0, 1, a partial block, one full block and more.
      for (std::size_t size : {0, 1, 3, 8, 9}) {
        ExpectLocalMatchesIndicate(computer, graph, source, size);
      }
    }
  }
}

}  // namespace
}  // namespace f2db
