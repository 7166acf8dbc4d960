#include "core/advisor.h"

#include <gtest/gtest.h>

#include "testing/test_cubes.h"

namespace f2db {
namespace {

AdvisorOptions FastOptions() {
  AdvisorOptions options;
  options.models_per_iteration = 4;
  options.seed = 7;
  options.stop.max_iterations = 20;
  return options;
}

ModelFactory HwFactory(std::size_t period = 4) {
  return ModelFactory(ModelSpec::TripleExponentialSmoothing(period));
}

TEST(Advisor, ProducesValidConfiguration) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  ModelConfigurationAdvisor advisor(graph, HwFactory(), FastOptions());
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const AdvisorResult& r = result.value();
  EXPECT_GE(r.configuration.num_models(), 1u);
  EXPECT_GT(r.iterations, 0u);
  EXPECT_LE(r.final_error, 1.0);
  EXPECT_EQ(r.final_error, r.configuration.MeanError());
  EXPECT_EQ(r.history.size(), r.iterations);
}

TEST(Advisor, ErrorNeverWorseThanSeedConfiguration) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), FastOptions());
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.value().history.size(), 2u);
  EXPECT_LE(result.value().final_error,
            result.value().history.front().error + 1e-9);
}

TEST(Advisor, ErrorMonotonicallyNonIncreasingAcrossIterations) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), FastOptions());
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  double prev = 1.0;
  for (const AdvisorSnapshot& s : result.value().history) {
    // Deletions may trade tiny error for cost; allow an epsilon.
    EXPECT_LE(s.error, prev + 0.05);
    prev = s.error;
  }
}

TEST(Advisor, StopCriterionMaxModels) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};
  options.stop.max_models = 2;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().configuration.num_models(), 2u + 4u);
}

TEST(Advisor, StopCriterionTargetError) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.2);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};
  options.stop.target_error = 0.9;  // satisfied almost immediately
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().iterations, 2u);
}

TEST(Advisor, StopCriterionMaxIterations) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.stop.max_iterations = 3;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().iterations, 3u);
}

TEST(Advisor, CallbackCanInterrupt) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};  // no automatic stop except alpha
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  std::size_t calls = 0;
  advisor.set_iteration_callback([&calls](const AdvisorSnapshot&) {
    ++calls;
    return calls < 2;  // interrupt after the second iteration
  });
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().iterations, 2u);
}

TEST(Advisor, AlphaScheduleReachesFinalAlpha) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  AdvisorOptions options = FastOptions();
  options.stop = StopCriteria{};
  options.initial_alpha = 0.1;
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().history.back().alpha, 1.0, 1e-9);
}

TEST(Advisor, PinnedAlphaStaysPinned) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  AdvisorOptions options = FastOptions();
  options.initial_alpha = 0.5;
  options.final_alpha = 0.5;
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  for (const AdvisorSnapshot& s : result.value().history) {
    EXPECT_NEAR(s.alpha, 0.5, 1e-9);
  }
}

TEST(Advisor, HigherAlphaAcceptsAtLeastAsManyModels) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60, 0.1);
  auto run_with_alpha = [&](double alpha) {
    AdvisorOptions options = FastOptions();
    options.initial_alpha = alpha;
    options.final_alpha = alpha;
    ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
    auto result = advisor.Run();
    EXPECT_TRUE(result.ok());
    return result.value().configuration.num_models();
  };
  EXPECT_LE(run_with_alpha(0.2), run_with_alpha(1.0) + 1);
}

TEST(Advisor, WithoutTopSeedStillWorks) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(48, 0.5);
  AdvisorOptions options = FastOptions();
  options.start_with_top_model = false;
  ModelConfigurationAdvisor advisor(graph, HwFactory(), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().configuration.num_models(), 1u);
  EXPECT_LT(result.value().final_error, 1.0);
}

TEST(Advisor, IndicatorSizeOptionRespected) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.indicator_size = 5;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  EXPECT_EQ(advisor.indicator_size(), 5u);
  AdvisorOptions big = FastOptions();
  big.indicator_size = 100000;
  ModelConfigurationAdvisor clamped(graph, HwFactory(12), big);
  EXPECT_EQ(clamped.indicator_size(), graph.num_nodes() - 1);
}

TEST(Advisor, RejectsTooShortSeries) {
  const TimeSeriesGraph graph = testing::MakeRegionCube(4);
  ModelConfigurationAdvisor advisor(graph, HwFactory(), FastOptions());
  EXPECT_FALSE(advisor.Run().ok());
}

TEST(Advisor, DeterministicAcrossRuns) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.num_threads = 1;             // single worker for full determinism
  options.count_models_as_cost = true;  // no wall-clock noise in Eq. 8
  ModelConfigurationAdvisor a(graph, HwFactory(12), options);
  ModelConfigurationAdvisor b(graph, HwFactory(12), options);
  auto ra = a.Run();
  auto rb = b.Run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().configuration.num_models(),
            rb.value().configuration.num_models());
  EXPECT_NEAR(ra.value().final_error, rb.value().final_error, 1e-12);
  EXPECT_EQ(ra.value().configuration.model_nodes(),
            rb.value().configuration.model_nodes());
}

TEST(Advisor, DecisionsIndependentOfThreadCount) {
  // Reproducible-cost mode: the pool width may change only the speed.
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options;
  options.count_models_as_cost = true;
  options.models_per_iteration = 8;
  options.seed = 2013;
  options.stop.max_iterations = 40;
  std::vector<AdvisorResult> results;
  for (std::size_t threads : {1, 2, 4}) {
    options.num_threads = threads;
    ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
    auto result = advisor.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }
  const AdvisorResult& one = results.front();
  // The run reaches every decision path: accept, reject, delete.
  ASSERT_GT(one.history.size(), 1u);
  ASSERT_GT(one.models_rejected, 0u);
  ASSERT_GT(one.models_deleted, 0u);
  for (std::size_t r = 1; r < results.size(); ++r) {
    const AdvisorResult& other = results[r];
    ASSERT_EQ(other.history.size(), one.history.size());
    for (std::size_t i = 0; i < one.history.size(); ++i) {
      EXPECT_EQ(other.history[i].error, one.history[i].error) << i;
      EXPECT_EQ(other.history[i].cost_seconds, one.history[i].cost_seconds)
          << i;
      EXPECT_EQ(other.history[i].num_models, one.history[i].num_models) << i;
      EXPECT_EQ(other.history[i].alpha, one.history[i].alpha) << i;
    }
    EXPECT_EQ(other.configuration.model_nodes(),
              one.configuration.model_nodes());
    EXPECT_EQ(other.models_created, one.models_created);
    EXPECT_EQ(other.models_accepted, one.models_accepted);
    EXPECT_EQ(other.models_rejected, one.models_rejected);
    EXPECT_EQ(other.models_deleted, one.models_deleted);
    EXPECT_EQ(other.final_error, one.final_error);
  }
}

TEST(Advisor, AsyncMultiSourceRunsCleanly) {
  const TimeSeriesGraph graph = testing::MakeFigure2Cube(60);
  AdvisorOptions options = FastOptions();
  options.async_multi_source = true;
  ModelConfigurationAdvisor advisor(graph, HwFactory(12), options);
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().final_error, 1.0);
}

}  // namespace
}  // namespace f2db
