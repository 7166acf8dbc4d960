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
  const std::vector<NodeId> targets =
      evaluator_->graph().NearestNodes(source, size);
  local.entries.reserve(targets.size() + 1);
  local.entries.emplace_back(source, 0.0);
  for (NodeId target : targets) {
    local.entries.emplace_back(target, Indicate(source, target));
  }
  std::sort(local.entries.begin(), local.entries.end());
  return local;
}

void GlobalIndicator::Merge(const LocalIndicator& local) {
  for (const auto& [target, value] : local.entries) {
    values_[target] = std::min(values_[target], value);
  }
}

void GlobalIndicator::Rebuild(const std::vector<const LocalIndicator*>& locals) {
  std::fill(values_.begin(), values_.end(), kUncoveredIndicator);
  for (const LocalIndicator* local : locals) Merge(*local);
}

double GlobalIndicator::Mean() const { return f2db::Mean(values_); }

double GlobalIndicator::StdDev() const { return f2db::StdDev(values_); }

std::vector<NodeId> RankRemovals(
    const std::vector<NodeId>& model_nodes,
    const std::vector<const LocalIndicator*>& locals, std::size_t num_nodes,
    ThreadPool& pool) {
  // Per target: the minimum, the model that first reached it, and the best
  // value of any other model.
  constexpr NodeId kNoOwner = std::numeric_limits<NodeId>::max();
  std::vector<double> min1(num_nodes, kUncoveredIndicator);
  std::vector<double> min2(num_nodes, kUncoveredIndicator);
  std::vector<NodeId> owner(num_nodes, kNoOwner);
  // One task per target range. Each range sees the models in the given
  // order, exactly as a single pass over all targets would.
  const std::size_t ranges = pool.size();
  pool.ParallelFor(ranges, [&](std::size_t r) {
    const auto lo = static_cast<NodeId>(num_nodes * r / ranges);
    const auto hi = static_cast<NodeId>(num_nodes * (r + 1) / ranges);
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
