#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/test_cubes.h"
#include "ts/accuracy.h"

namespace f2db {
namespace {

TEST(Evaluator, SplitLengths) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_EQ(evaluator.train_length(), 32u);
  EXPECT_EQ(evaluator.test_length(), 8u);
  EXPECT_EQ(evaluator.TrainSeries(0).size(), 32u);
  EXPECT_EQ(evaluator.TestActual(0).size(), 8u);
}

TEST(Evaluator, SplitAlwaysLeavesTestData) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(10);
  ConfigurationEvaluator evaluator(graph, 1.0);
  EXPECT_GE(evaluator.test_length(), 1u);
}

TEST(Evaluator, HistorySumIsTrainSum) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId node = graph.base_nodes()[0];
  EXPECT_NEAR(evaluator.HistorySum(node),
              graph.series(node).Head(32).Sum(), 1e-9);
}

TEST(Evaluator, WeightEquationTwo) {
  // Disaggregation weight k_{parent->child} = h_child / h_parent.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId child = graph.base_nodes()[0];
  const NodeId parent = graph.top_node();
  const double k = evaluator.Weight({parent}, child);
  EXPECT_NEAR(k, evaluator.HistorySum(child) / evaluator.HistorySum(parent),
              1e-12);
  EXPECT_GT(k, 0.0);
  EXPECT_LT(k, 1.0);
}

TEST(Evaluator, WeightEquationThreeAggregationIsOne) {
  // Aggregating all children of the top node: k = h_t / sum h_children = 1.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  std::vector<NodeId> children(graph.base_nodes());
  EXPECT_NEAR(evaluator.Weight(children, graph.top_node()), 1.0, 1e-9);
}

TEST(Evaluator, DirectWeightIsOne) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId node = graph.base_nodes()[1];
  EXPECT_NEAR(evaluator.Weight({node}, node), 1.0, 1e-12);
}

TEST(Evaluator, WeightGuardsZeroDenominator) {
  TimeSeriesGraph graph = testing::MakeRegionCube(40);
  // Zero out one base series; weight from it must be 0, not inf.
  ASSERT_TRUE(graph
                  .SetBaseSeries(graph.base_nodes()[0],
                                 TimeSeries(std::vector<double>(40, 0.0)))
                  .ok());
  ASSERT_TRUE(graph.BuildAggregates().ok());
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_DOUBLE_EQ(
      evaluator.Weight({graph.base_nodes()[0]}, graph.base_nodes()[1]), 0.0);
}

TEST(Evaluator, DeriveSumsAndScales) {
  const std::vector<double> f1{1, 2};
  const std::vector<double> f2{10, 20};
  const auto derived = ConfigurationEvaluator::Derive(0.5, {&f1, &f2});
  EXPECT_DOUBLE_EQ(derived[0], 5.5);
  EXPECT_DOUBLE_EQ(derived[1], 11.0);
}

TEST(Evaluator, SchemeErrorPerfectSourceMatchesSmape) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const NodeId node = graph.base_nodes()[0];
  // Using the node's actual test values as its "forecast": error 0.
  const std::vector<double> perfect = evaluator.TestActual(node);
  EXPECT_NEAR(evaluator.SchemeError(DerivationScheme::Direct(node), {&perfect},
                                    node),
              0.0, 1e-12);
}

TEST(Evaluator, SchemeErrorEmptySchemeIsWorstCase) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_DOUBLE_EQ(evaluator.SchemeError(DerivationScheme{}, {}, 0), 1.0);
}

TEST(Evaluator, SchemeErrorBitIdenticalToDeriveThenSmape) {
  TimeSeriesGraph graph = testing::MakeFigure2Cube(40);
  const std::vector<NodeId> base = graph.base_nodes();
  // An all-zero series, and one that is zero over the training part only
  // (its derivation weights and history sum vanish, its test part not).
  ASSERT_TRUE(
      graph.SetBaseSeries(base[0], TimeSeries(std::vector<double>(40, 0.0)))
          .ok());
  std::vector<double> late(40, 0.0);
  for (std::size_t t = 32; t < 40; ++t) late[t] = 3.0 + double(t % 4);
  ASSERT_TRUE(graph.SetBaseSeries(base[1], TimeSeries(late)).ok());
  ASSERT_TRUE(graph.BuildAggregates().ok());
  ConfigurationEvaluator evaluator(graph, 0.8);

  // Per-node test "forecasts": the actual values with deterministic
  // distortion, so SMAPE terms are non-trivial; all-zero stays all-zero.
  const std::size_t n = graph.num_nodes();
  std::vector<std::vector<double>> forecasts(n);
  for (NodeId node = 0; node < n; ++node) {
    forecasts[node] = evaluator.TestActual(node);
    for (std::size_t i = 0; i < forecasts[node].size(); ++i) {
      forecasts[node][i] *= 1.0 + 0.07 * std::sin(double(node * 13 + i));
    }
  }
  auto reference = [&](const DerivationScheme& scheme, NodeId target) {
    std::vector<const std::vector<double>*> sources;
    for (NodeId s : scheme.sources) sources.push_back(&forecasts[s]);
    return Smape(evaluator.TestActual(target),
                 ConfigurationEvaluator::Derive(
                     evaluator.Weight(scheme.sources, target), sources));
  };
  auto scheme_error = [&](const DerivationScheme& scheme, NodeId target) {
    std::vector<const std::vector<double>*> sources;
    for (NodeId s : scheme.sources) sources.push_back(&forecasts[s]);
    return evaluator.SchemeError(scheme, sources, target);
  };

  for (NodeId source = 0; source < n; ++source) {
    for (NodeId target = 0; target < n; ++target) {
      const DerivationScheme single = DerivationScheme::Single(source);
      EXPECT_EQ(scheme_error(single, target), reference(single, target))
          << source << " -> " << target;
      for (NodeId second = source + 1; second < n; second += 7) {
        const DerivationScheme multi = DerivationScheme::Multi({source, second});
        EXPECT_EQ(scheme_error(multi, target), reference(multi, target))
            << source << "+" << second << " -> " << target;
      }
    }
  }
  // The zero cases really occur: a zero-history source derives zeros.
  EXPECT_EQ(scheme_error(DerivationScheme::Single(base[1]), base[2]), 1.0);
  EXPECT_EQ(scheme_error(DerivationScheme::Single(base[0]), base[0]), 0.0);
}

TEST(Evaluator, HistoricalErrorZeroForProportionalSeries) {
  // Noise-free region cube: city series are exact shares of the region, so
  // the perfect-model derivation reproduces history exactly.
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const double err =
      evaluator.HistoricalError(graph.top_node(), graph.base_nodes()[0]);
  EXPECT_NEAR(err, 0.0, 1e-9);
}

TEST(Evaluator, HistoricalErrorGrowsWithNoise) {
  const TimeSeriesGraph clean = testing::MakeRegionCube(40, 0.0);
  const TimeSeriesGraph noisy = testing::MakeRegionCube(40, 3.0);
  ConfigurationEvaluator eval_clean(clean, 0.8);
  ConfigurationEvaluator eval_noisy(noisy, 0.8);
  EXPECT_LT(
      eval_clean.HistoricalError(clean.top_node(), clean.base_nodes()[0]),
      eval_noisy.HistoricalError(noisy.top_node(), noisy.base_nodes()[0]));
}

TEST(Evaluator, WeightInstabilityZeroForStableShares) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_NEAR(
      evaluator.WeightInstability(graph.top_node(), graph.base_nodes()[0]),
      0.0, 1e-9);
}

TEST(Evaluator, WeightInstabilityPositiveForNoisyShares) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 3.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  EXPECT_GT(
      evaluator.WeightInstability(graph.top_node(), graph.base_nodes()[0]),
      0.01);
}

TEST(Evaluator, MultiSourceHistoricalErrorUsesJointWeight) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(40, 0.0);
  ConfigurationEvaluator evaluator(graph, 0.8);
  // Deriving the region from all three cities is exact.
  const double err = evaluator.HistoricalErrorMulti(
      {graph.base_nodes()[0], graph.base_nodes()[1], graph.base_nodes()[2]},
      graph.top_node());
  EXPECT_NEAR(err, 0.0, 1e-9);
}

}  // namespace
}  // namespace f2db
