#include "core/configuration.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

#include "testing/test_cubes.h"
#include "ts/exponential_smoothing.h"

namespace f2db {
namespace {

ModelEntry MakeEntry(const ConfigurationEvaluator& evaluator, NodeId node,
                     std::vector<NodeId> coverage) {
  ModelEntry entry;
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(4);
  EXPECT_TRUE(model->Fit(evaluator.TrainSeries(node)).ok());
  entry.test_forecast = model->Forecast(evaluator.test_length());
  entry.model = std::move(model);
  entry.creation_seconds = 0.5;
  entry.coverage = std::move(coverage);
  return entry;
}

class ConfigurationTest : public ::testing::Test {
 protected:
  ConfigurationTest()
      : graph_(testing::MakeRegionCube(48, 0.5)), evaluator_(graph_, 0.8) {}

  TimeSeriesGraph graph_;
  ConfigurationEvaluator evaluator_;
};

TEST_F(ConfigurationTest, StartsEmptyAndUncovered) {
  ModelConfiguration config(graph_.num_nodes());
  EXPECT_EQ(config.num_models(), 0u);
  EXPECT_DOUBLE_EQ(config.MeanError(), 1.0);
  EXPECT_DOUBLE_EQ(config.TotalCostSeconds(), 0.0);
  EXPECT_EQ(config.model(0), nullptr);
  EXPECT_TRUE(config.assignment(0).scheme.IsEmpty());
}

TEST_F(ConfigurationTest, AddRemoveModel) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  config.AddModel(top, MakeEntry(evaluator_, top, {}));
  EXPECT_TRUE(config.HasModel(top));
  EXPECT_EQ(config.num_models(), 1u);
  EXPECT_DOUBLE_EQ(config.TotalCostSeconds(), 0.5);
  EXPECT_EQ(config.model_nodes(), std::vector<NodeId>{top});

  ModelEntry removed = config.RemoveModel(top);
  EXPECT_NE(removed.model, nullptr);
  EXPECT_FALSE(config.HasModel(top));
  EXPECT_EQ(config.RemoveModel(top).model, nullptr);  // idempotent
}

TEST_F(ConfigurationTest, ApplyModelSchemesImprovesCoveredNodes) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  std::vector<NodeId> coverage(graph_.base_nodes());
  config.AddModel(top, MakeEntry(evaluator_, top, coverage));
  const std::size_t improved = config.ApplyModelSchemes(evaluator_, top);
  EXPECT_EQ(improved, 4u);  // top itself + 3 cities
  EXPECT_LT(config.MeanError(), 1.0);
  EXPECT_EQ(config.assignment(top).scheme, DerivationScheme::Direct(top));
  for (NodeId base : graph_.base_nodes()) {
    EXPECT_EQ(config.assignment(base).scheme, DerivationScheme::Single(top));
    EXPECT_LT(config.assignment(base).error, 1.0);
  }
}

TEST_F(ConfigurationTest, ApplyModelSchemesNeverWorsens) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  const NodeId base = graph_.base_nodes()[0];
  config.AddModel(top, MakeEntry(evaluator_, top, {base}));
  config.ApplyModelSchemes(evaluator_, top);
  const double before = config.assignment(base).error;
  // A second application changes nothing.
  EXPECT_EQ(config.ApplyModelSchemes(evaluator_, top), 0u);
  EXPECT_DOUBLE_EQ(config.assignment(base).error, before);
}

TEST_F(ConfigurationTest, MultiSourceSchemeAdoptedOnlyWhenBetter) {
  ModelConfiguration config(graph_.num_nodes());
  for (NodeId base : graph_.base_nodes()) {
    config.AddModel(base, MakeEntry(evaluator_, base, {}));
    config.ApplyModelSchemes(evaluator_, base);
  }
  // Aggregation of all three cities for the region node.
  const DerivationScheme agg =
      DerivationScheme::Multi(graph_.base_nodes());
  EXPECT_TRUE(config.TryMultiSourceScheme(evaluator_, graph_.top_node(), agg));
  EXPECT_EQ(config.assignment(graph_.top_node()).scheme.sources.size(), 3u);
  // Re-trying the same scheme is no longer an improvement.
  EXPECT_FALSE(
      config.TryMultiSourceScheme(evaluator_, graph_.top_node(), agg));
}

TEST_F(ConfigurationTest, MultiSourceRejectedWhenSourceMissing) {
  ModelConfiguration config(graph_.num_nodes());
  EXPECT_FALSE(config.TryMultiSourceScheme(
      evaluator_, graph_.top_node(),
      DerivationScheme::Multi(graph_.base_nodes())));
}

TEST_F(ConfigurationTest, RecomputeAfterDeletionFallsBack) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  const NodeId base0 = graph_.base_nodes()[0];
  std::vector<NodeId> all_nodes;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    if (n != top) all_nodes.push_back(n);
  }
  config.AddModel(top, MakeEntry(evaluator_, top, all_nodes));
  config.AddModel(base0, MakeEntry(evaluator_, base0, {top}));
  config.ApplyModelSchemes(evaluator_, top);
  config.ApplyModelSchemes(evaluator_, base0);

  config.RemoveModel(base0);
  config.RecomputeAssignments(evaluator_);
  // base0 falls back to a scheme from the remaining top model.
  EXPECT_EQ(config.assignment(base0).scheme, DerivationScheme::Single(top));
  EXPECT_LT(config.assignment(base0).error, 1.0);
}

TEST_F(ConfigurationTest, RecomputeNodesMatchesFullRecompute) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId top = graph_.top_node();
  std::vector<NodeId> all_nodes;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    if (n != top) all_nodes.push_back(n);
  }
  config.AddModel(top, MakeEntry(evaluator_, top, all_nodes));
  config.ApplyModelSchemes(evaluator_, top);

  ModelConfiguration reference(graph_.num_nodes());
  reference.AddModel(top, MakeEntry(evaluator_, top, all_nodes));
  reference.RecomputeAssignments(evaluator_);

  std::vector<NodeId> targets;
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) targets.push_back(n);
  config.RecomputeNodes(evaluator_, targets);
  for (NodeId n = 0; n < graph_.num_nodes(); ++n) {
    EXPECT_NEAR(config.assignment(n).error, reference.assignment(n).error,
                1e-12);
  }
}

// Every node whose current scheme uses `source`, by a scan over all nodes.
std::vector<NodeId> ScanDerivedFrom(const ModelConfiguration& config,
                                    NodeId source) {
  std::vector<NodeId> out;
  for (NodeId t = 0; t < config.num_nodes(); ++t) {
    const std::vector<NodeId>& sources = config.assignment(t).scheme.sources;
    if (std::find(sources.begin(), sources.end(), source) != sources.end()) {
      out.push_back(t);
    }
  }
  return out;
}

TEST(ConfigurationQuery, NodesDerivedFromMatchesFullScan) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(48);
  ConfigurationEvaluator evaluator(graph, 0.8);
  const std::size_t n = graph.num_nodes();
  std::size_t multi_adopted = 0;
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    ModelConfiguration config(n);
    for (int i = 0; i < 8; ++i) {
      const auto node = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (config.HasModel(node)) continue;
      std::vector<NodeId> coverage = graph.NearestNodes(
          node, static_cast<std::size_t>(rng.UniformInt(2, 24)));
      std::sort(coverage.begin(), coverage.end());
      config.AddModel(node, MakeEntry(evaluator, node, std::move(coverage)));
      config.ApplyModelSchemes(evaluator, node);
    }
    const std::vector<NodeId> models = config.model_nodes();
    for (int i = 0; i < 30 && models.size() >= 2; ++i) {
      const NodeId a = models[rng.UniformInt(0, models.size() - 1)];
      const NodeId b = models[rng.UniformInt(0, models.size() - 1)];
      if (a == b) continue;
      const auto target = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      if (config.TryMultiSourceScheme(evaluator, target,
                                      DerivationScheme::Multi({a, b}))) {
        ++multi_adopted;
      }
    }
    for (NodeId m : config.model_nodes()) {
      const std::vector<NodeId> scanned = ScanDerivedFrom(config, m);
      EXPECT_EQ(config.NodesDerivedFrom(m), scanned)
          << "seed " << seed << " source " << m;
      if (!scanned.empty()) ++nonempty;
    }

    // Delete one model the way the advisor does and query again.
    const NodeId victim = models[rng.UniformInt(0, models.size() - 1)];
    const std::vector<NodeId> affected = ScanDerivedFrom(config, victim);
    config.RemoveModel(victim);
    config.RecomputeNodes(evaluator, affected);
    EXPECT_TRUE(ScanDerivedFrom(config, victim).empty());
    EXPECT_TRUE(config.NodesDerivedFrom(victim).empty());
    for (NodeId m : config.model_nodes()) {
      EXPECT_EQ(config.NodesDerivedFrom(m), ScanDerivedFrom(config, m))
          << "seed " << seed << " source " << m << " after deleting "
          << victim;
    }
  }
  // The configurations exercised both kinds of scheme.
  EXPECT_GT(multi_adopted, 0u);
  EXPECT_GT(nonempty, 0u);
}

TEST_F(ConfigurationTest, ForecastsForCollectsInSchemeOrder) {
  ModelConfiguration config(graph_.num_nodes());
  const NodeId a = graph_.base_nodes()[0];
  const NodeId b = graph_.base_nodes()[1];
  config.AddModel(a, MakeEntry(evaluator_, a, {}));
  config.AddModel(b, MakeEntry(evaluator_, b, {}));
  const auto forecasts = config.ForecastsFor(DerivationScheme::Multi({a, b}));
  ASSERT_EQ(forecasts.size(), 2u);
  EXPECT_EQ(forecasts[0], &config.entry(a)->test_forecast);
  EXPECT_EQ(forecasts[1], &config.entry(b)->test_forecast);
  // Missing source -> empty result.
  EXPECT_TRUE(
      config.ForecastsFor(DerivationScheme::Multi({a, graph_.top_node()}))
          .empty());
}

TEST(DerivationScheme, Helpers) {
  EXPECT_TRUE(DerivationScheme{}.IsEmpty());
  EXPECT_TRUE(DerivationScheme::Direct(3).IsDirect(3));
  EXPECT_FALSE(DerivationScheme::Single(2).IsDirect(3));
  EXPECT_EQ(DerivationScheme::Multi({1, 2}).ToString(), "{1,2}");
}

}  // namespace
}  // namespace f2db
