#include "core/indicators.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "math/stats.h"

namespace f2db {

double IndicatorComputer::Indicate(NodeId source, NodeId target) const {
  if (source == target) return 0.0;
  const double historical =
      options_.historical_weight * evaluator_->HistoricalError(source, target);
  const double instability = std::min(
      1.0, evaluator_->WeightInstability(source, target));
  return historical + options_.similarity_weight * instability;
}

LocalIndicator IndicatorComputer::ComputeLocal(NodeId source,
                                               std::size_t size) const {
  LocalIndicator local;
  local.source = source;
  const TimeSeriesGraph& graph = evaluator_->graph();
  const std::vector<NodeId> targets = graph.NearestNodes(source, size);
  local.entries.reserve(targets.size() + 1);
  local.entries.emplace_back(source, 0.0);

  // Indicate(source, t) for kLanes targets at a time. Each lane keeps its
  // own sums and adds in the same order as HistoricalError and
  // WeightInstability, so every lane yields Indicate's bits; the lanes
  // only run independent add chains side by side.
  constexpr std::size_t kLanes = 8;
  const std::size_t train = evaluator_->train_length();
  const TimeSeries& source_series = graph.series(source);
  // Weight({source}, t) divides by this sum, or is 0 when it vanishes.
  const double source_sum = 0.0 + evaluator_->HistorySum(source);
  const bool no_weight = std::abs(source_sum) < 1e-12;
  // The steps with a nonzero source value are the weight samples of every
  // target alike.
  std::vector<std::size_t> samples;
  for (std::size_t i = 0; i < train; ++i) {
    if (std::abs(source_series[i]) >= 1e-12) samples.push_back(i);
  }
  // block[i * kLanes + l]: training value i of lane l's target.
  std::vector<double> block(train * kLanes);
  std::vector<double> weights(samples.size() * kLanes);

  for (std::size_t first = 0; first < targets.size(); first += kLanes) {
    // A short last block repeats its last target in the spare lanes.
    const std::size_t lanes = std::min(kLanes, targets.size() - first);
    double k[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const NodeId target = targets[first + std::min(l, lanes - 1)];
      const TimeSeries& series = graph.series(target);
      for (std::size_t i = 0; i < train; ++i) {
        block[i * kLanes + l] = series[i];
      }
      k[l] = no_weight ? 0.0 : evaluator_->HistorySum(target) / source_sum;
    }

    // HistoricalError: SMAPE of k * y_s against y_t over the training
    // steps. A skipped step adds +0.0, which leaves a sum of non-negative
    // terms unchanged.
    double error_sum[kLanes] = {};
    for (std::size_t i = 0; i < train; ++i) {
      const double src = 0.0 + source_series[i];
      const double* actual = &block[i * kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double derived = k[l] * src;
        const double denom = std::abs(actual[l]) + std::abs(derived);
        const double term = std::abs(actual[l] - derived) / denom;
        error_sum[l] += denom >= 1e-12 ? term : 0.0;
      }
    }

    // WeightInstability: coefficient of variation of y_t / y_s over the
    // weight samples, as Mean then Variance compute it.
    double weight_sum[kLanes] = {};
    for (std::size_t j = 0; j < samples.size(); ++j) {
      const double s = source_series[samples[j]];
      const double* y = &block[samples[j] * kLanes];
      double* w = &weights[j * kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        w[l] = y[l] / s;
        weight_sum[l] += w[l];
      }
    }
    const auto count = static_cast<double>(samples.size());
    double mean[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) mean[l] = weight_sum[l] / count;
    double square_sum[kLanes] = {};
    for (std::size_t j = 0; j < samples.size(); ++j) {
      const double* w = &weights[j * kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double d = w[l] - mean[l];
        square_sum[l] += d * d;
      }
    }

    for (std::size_t l = 0; l < lanes; ++l) {
      const double historical_error =
          train == 0 ? 1.0 : error_sum[l] / static_cast<double>(train);
      double variation = 1.0;  // fewer than two samples
      if (samples.size() >= 2) {
        variation = std::abs(mean[l]) < 1e-12
                        ? 0.0
                        : std::sqrt(square_sum[l] / count) / std::abs(mean[l]);
      }
      const double historical = options_.historical_weight * historical_error;
      const double instability = std::min(1.0, variation);
      local.entries.emplace_back(
          targets[first + l],
          historical + options_.similarity_weight * instability);
    }
  }
  std::sort(local.entries.begin(), local.entries.end());
  return local;
}

void GlobalIndicator::Merge(const LocalIndicator& local) {
  for (const auto& [target, value] : local.entries) {
    values_[target] = std::min(values_[target], value);
  }
}

double GlobalIndicator::Mean() const { return f2db::Mean(values_); }

double GlobalIndicator::StdDev() const { return f2db::StdDev(values_); }

std::vector<NodeId> GlobalIndicator::RebuildAndRankRemovals(
    const std::vector<NodeId>& model_nodes,
    const std::vector<const LocalIndicator*>& locals, ThreadPool& pool) {
  // Per target: the minimum, the model that first reached it, and the best
  // value of any other model. The minimum is the global indicator itself:
  // a min is exact in any order, so it equals merging the locals one by
  // one.
  constexpr NodeId kNoOwner = std::numeric_limits<NodeId>::max();
  const std::size_t num_nodes = values_.size();
  std::vector<double>& min1 = values_;
  std::vector<double> min2(num_nodes, kUncoveredIndicator);
  std::vector<NodeId> owner(num_nodes, kNoOwner);
  // One task per target range. Each range sees the models in the given
  // order, exactly as a single pass over all targets would.
  const std::size_t ranges = pool.size();
  pool.ParallelFor(ranges, [&](std::size_t r) {
    const auto lo = static_cast<NodeId>(num_nodes * r / ranges);
    const auto hi = static_cast<NodeId>(num_nodes * (r + 1) / ranges);
    std::fill(min1.begin() + lo, min1.begin() + hi, kUncoveredIndicator);
    for (std::size_t i = 0; i < model_nodes.size(); ++i) {
      const NodeId m = model_nodes[i];
      const auto& entries = locals[i]->entries;
      auto it = std::lower_bound(
          entries.begin(), entries.end(), lo,
          [](const auto& entry, NodeId t) { return entry.first < t; });
      for (; it != entries.end() && it->first < hi; ++it) {
        const auto& [target, value] = *it;
        if (value < min1[target]) {
          min2[target] = min1[target];
          min1[target] = value;
          owner[target] = m;
        } else if (value < min2[target] && owner[target] != m) {
          min2[target] = value;
        }
      }
    }
  });
  if (model_nodes.size() < 2) return {};
  // Every entry r owns is in r's own local, whose entries are sorted by
  // target, so each sum runs in ascending target order.
  std::vector<std::pair<double, NodeId>> scores(model_nodes.size());
  pool.ParallelFor(ranges, [&](std::size_t r) {
    const std::size_t begin = model_nodes.size() * r / ranges;
    const std::size_t end = model_nodes.size() * (r + 1) / ranges;
    for (std::size_t i = begin; i < end; ++i) {
      double penalty = 0.0;
      for (const auto& [target, value] : locals[i]->entries) {
        if (owner[target] == model_nodes[i]) {
          penalty += min2[target] - min1[target];
        }
      }
      scores[i] = {penalty, model_nodes[i]};
    }
  });
  std::sort(scores.begin(), scores.end());
  std::vector<NodeId> ranked;
  ranked.reserve(scores.size());
  for (const auto& [score, node] : scores) ranked.push_back(node);
  return ranked;
}

}  // namespace f2db
