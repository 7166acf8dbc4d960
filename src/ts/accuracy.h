// Forecast accuracy measures.
//
// The paper (Section II-D, Eq. 4) evaluates configurations with SMAPE, the
// symmetric mean absolute percentage error, because it is scale independent
// and bounded in [0, 1]. The additional measures here (MAE, RMSE, MAPE,
// MASE) support the test suite and ablation studies.

#ifndef F2DB_TS_ACCURACY_H_
#define F2DB_TS_ACCURACY_H_

#include <cmath>
#include <vector>

namespace f2db {

/// One SMAPE summand: |x - xhat| / (|x| + |xhat|), and 0 when both are ~0.
inline double SmapeTerm(double actual, double forecast) {
  const double denom = std::abs(actual) + std::abs(forecast);
  return denom < 1e-12 ? 0.0 : std::abs(actual - forecast) / denom;
}

/// Symmetric mean absolute percentage error (Eq. 4):
///   mean_t |x_t - xhat_t| / (|x_t| + |xhat_t|), in [0, 1].
/// A time step where both actual and forecast are ~0 contributes 0.
/// Returns 1.0 (the worst value) for empty or mismatched inputs.
double Smape(const std::vector<double>& actual,
             const std::vector<double>& forecast);

/// Mean absolute error.
double MeanAbsoluteError(const std::vector<double>& actual,
                         const std::vector<double>& forecast);

/// Root mean squared error.
double RootMeanSquaredError(const std::vector<double>& actual,
                            const std::vector<double>& forecast);

/// Mean absolute percentage error; steps with |actual| ~ 0 are skipped.
double Mape(const std::vector<double>& actual,
            const std::vector<double>& forecast);

/// Mean absolute scaled error (Hyndman & Koehler 2006): MAE scaled by the
/// in-sample one-step naive MAE of `train`. Returns +inf when the scale
/// denominator is ~0.
double Mase(const std::vector<double>& train,
            const std::vector<double>& actual,
            const std::vector<double>& forecast);

}  // namespace f2db

#endif  // F2DB_TS_ACCURACY_H_
