// Model contract sweep: every concrete model family must uphold the
// ForecastModel interface contract on every series shape — fit cleanly or
// fail with a Status (never crash), produce finite forecasts, survive
// serialization, clone independently, and keep variances monotone.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "ts/model_factory.h"

namespace f2db {
namespace {

enum class SeriesKind {
  kConstant,
  kTrend,
  kSeasonal,
  kNoisy,
  kShort,
  kTiny,
  kLargeScale,
};

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kConstant:
      return "constant";
    case SeriesKind::kTrend:
      return "trend";
    case SeriesKind::kSeasonal:
      return "seasonal";
    case SeriesKind::kNoisy:
      return "noisy";
    case SeriesKind::kShort:
      return "short";
    case SeriesKind::kTiny:
      return "tiny";
    case SeriesKind::kLargeScale:
      return "largescale";
  }
  return "?";
}

TimeSeries MakeSeries(SeriesKind kind) {
  Rng rng(99);
  switch (kind) {
    case SeriesKind::kConstant:
      return TimeSeries(std::vector<double>(60, 7.5));
    case SeriesKind::kTrend: {
      std::vector<double> out(60);
      for (std::size_t t = 0; t < out.size(); ++t) {
        out[t] = 5.0 + 1.2 * static_cast<double>(t);
      }
      return TimeSeries(out);
    }
    case SeriesKind::kSeasonal: {
      std::vector<double> out(72);
      for (std::size_t t = 0; t < out.size(); ++t) {
        out[t] = 50.0 + 10.0 * std::sin(2.0 * M_PI * t / 12.0) +
                 rng.Gaussian(0.0, 0.5);
      }
      return TimeSeries(out);
    }
    case SeriesKind::kNoisy: {
      std::vector<double> out(60);
      for (double& v : out) v = 20.0 + rng.Gaussian(0.0, 8.0);
      return TimeSeries(out);
    }
    case SeriesKind::kShort:
      return TimeSeries({3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
    case SeriesKind::kTiny:
      return TimeSeries({1.0, 2.0});
    case SeriesKind::kLargeScale: {
      std::vector<double> out(60);
      for (std::size_t t = 0; t < out.size(); ++t) {
        out[t] = 1e9 + 1e7 * std::sin(2.0 * M_PI * t / 12.0) +
                 rng.Gaussian(0.0, 1e6);
      }
      return TimeSeries(out);
    }
  }
  return TimeSeries();
}

using ContractCase = std::tuple<ModelType, SeriesKind>;

class ModelContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(ModelContract, FitForecastSerializeCloneUpdate) {
  const auto [type, kind] = GetParam();
  ModelSpec spec;
  spec.type = type;
  spec.period = 12;
  if (type == ModelType::kArima) spec.arima = ArimaOrder{1, 0, 1, 0, 0, 0, 1};
  ModelFactory factory(spec);
  const TimeSeries series = MakeSeries(kind);

  auto fitted = factory.CreateAndFit(series);
  if (!fitted.ok()) {
    // Clean rejection is an acceptable contract outcome (short series etc.).
    EXPECT_FALSE(fitted.status().message().empty());
    return;
  }
  ForecastModel& model = *fitted.value();
  EXPECT_TRUE(model.is_fitted());

  // Forecasts are finite at several horizons.
  for (const std::size_t horizon : {1u, 7u, 30u}) {
    const auto f = model.Forecast(horizon);
    ASSERT_EQ(f.size(), horizon);
    for (double v : f) EXPECT_TRUE(std::isfinite(v)) << SeriesKindName(kind);
  }

  // Variances (when provided) are finite, non-negative, monotone.
  const auto var = model.ForecastVariance(12);
  if (!var.empty()) {
    ASSERT_EQ(var.size(), 12u);
    for (std::size_t h = 0; h < var.size(); ++h) {
      EXPECT_TRUE(std::isfinite(var[h]));
      EXPECT_GE(var[h], 0.0);
      if (h > 0) {
        EXPECT_GE(var[h] + 1e-9, var[h - 1]);
      }
    }
  }

  // Serialization round trip preserves forecasts.
  const std::string payload = ModelFactory::SerializeModel(model);
  auto restored = ModelFactory::DeserializeModel(payload);
  ASSERT_TRUE(restored.ok()) << payload.substr(0, 40);
  const auto f1 = model.Forecast(6);
  const auto f2 = restored.value()->Forecast(6);
  for (std::size_t h = 0; h < 6; ++h) {
    EXPECT_NEAR(f1[h], f2[h], 1e-6 * (1.0 + std::abs(f1[h])));
  }

  // Clones evolve independently.
  auto clone = model.Clone();
  model.Update(series[series.size() - 1] * 2.0 + 1.0);
  const auto clone_forecast = clone->Forecast(1);
  EXPECT_TRUE(std::isfinite(clone_forecast[0]));

  // Updates keep forecasts finite.
  for (int i = 0; i < 5; ++i) model.Update(series[i % series.size()]);
  for (double v : model.Forecast(4)) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllShapes, ModelContract,
    ::testing::Combine(
        ::testing::Values(ModelType::kMean, ModelType::kNaive,
                          ModelType::kSeasonalNaive, ModelType::kDrift,
                          ModelType::kSes, ModelType::kHolt,
                          ModelType::kHoltWintersAdd,
                          ModelType::kHoltWintersMul, ModelType::kArima,
                          ModelType::kTheta),
        ::testing::Values(SeriesKind::kConstant, SeriesKind::kTrend,
                          SeriesKind::kSeasonal, SeriesKind::kNoisy,
                          SeriesKind::kShort, SeriesKind::kTiny,
                          SeriesKind::kLargeScale)),
    [](const auto& info) {
      return std::string(ModelTypeName(std::get<0>(info.param))) + "_" +
             SeriesKindName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace f2db
