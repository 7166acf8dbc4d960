#include "ts/accuracy.h"

#include <cmath>
#include <limits>

namespace f2db {

double Smape(const std::vector<double>& actual,
             const std::vector<double>& forecast) {
  if (actual.empty() || actual.size() != forecast.size()) return 1.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    sum += SmapeTerm(actual[i], forecast[i]);
  }
  return sum / static_cast<double>(actual.size());
}

double MeanAbsoluteError(const std::vector<double>& actual,
                         const std::vector<double>& forecast) {
  if (actual.empty() || actual.size() != forecast.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    sum += std::abs(actual[i] - forecast[i]);
  }
  return sum / static_cast<double>(actual.size());
}

double RootMeanSquaredError(const std::vector<double>& actual,
                            const std::vector<double>& forecast) {
  if (actual.empty() || actual.size() != forecast.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = actual[i] - forecast[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(actual.size()));
}

double Mape(const std::vector<double>& actual,
            const std::vector<double>& forecast) {
  if (actual.empty() || actual.size() != forecast.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) < 1e-12) continue;
    sum += std::abs((actual[i] - forecast[i]) / actual[i]);
    ++count;
  }
  if (count == 0) return std::numeric_limits<double>::infinity();
  return sum / static_cast<double>(count);
}

double Mase(const std::vector<double>& train,
            const std::vector<double>& actual,
            const std::vector<double>& forecast) {
  if (train.size() < 2) return std::numeric_limits<double>::infinity();
  double scale = 0.0;
  for (std::size_t i = 1; i < train.size(); ++i) {
    scale += std::abs(train[i] - train[i - 1]);
  }
  scale /= static_cast<double>(train.size() - 1);
  if (scale < 1e-12) return std::numeric_limits<double>::infinity();
  return MeanAbsoluteError(actual, forecast) / scale;
}

}  // namespace f2db
