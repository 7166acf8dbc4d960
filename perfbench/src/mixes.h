// The request streams of the serving workloads, generated from the
// workload seed. The program under test only ever sees the frames.

#ifndef PERFBENCH_MIXES_H_
#define PERFBENCH_MIXES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "loadgen.h"
#include "statements.h"

namespace perfbench {

/// Prepared statement ids by node level (index num_levels() = top node).
/// Every connection prepares the same texts in the same order, and the
/// workloads check that the ids agree, so one table serves all
/// connections.
using StatementIds = std::vector<std::uint32_t>;

/// A sampled reply, checked against the engine's direct answer afterwards.
struct ReplySample {
  OpType type = OpType::kQuery;
  std::size_t node_index = 0;  ///< index into the mix's node list
  std::size_t horizon = 1;
  f2db::StatusCode status = f2db::StatusCode::kOk;
  std::string body;
};

/// Builds the op for (node, horizon): a raw QUERY frame, or an EXECUTE
/// frame binding the node's value and the horizon.
void MakeForecastOp(const NodeRef& node, std::size_t horizon, bool prepared,
                    const StatementIds& ids, Op* op);

/// serve: raw QUERY and EXECUTE mixed 50/50 over Zipf-skewed nodes
/// (exponent 1) and uniform horizons 1..12. Node popularity follows a
/// seeded permutation of the graph's nodes, so hot nodes sit on every
/// level.
class ServeMix : public OpSource {
 public:
  ServeMix(std::vector<NodeRef> nodes, StatementIds ids, std::uint64_t seed);

  void NextOpen(Op* op) override { Draw(op); }
  bool NextClosed(std::size_t, Op* op) override {
    Draw(op);
    return true;
  }
  void OnResponse(std::size_t conn, const Op& op,
                  const f2db::WireResponse& response) override;

  /// Keep every `every`-th reply (0 = none) up to `limit` samples.
  void SampleReplies(std::size_t every, std::size_t limit) {
    sample_every_ = every;
    sample_limit_ = limit;
  }
  const std::vector<ReplySample>& samples() const { return samples_; }
  const std::vector<NodeRef>& nodes() const { return nodes_; }

 private:
  void Draw(Op* op);

  std::vector<NodeRef> nodes_;
  StatementIds ids_;
  f2db::Rng rng_;
  std::vector<std::size_t> rank_to_node_;
  std::vector<double> cdf_;
  std::uint64_t drawn_ = 0;
  std::size_t sample_every_ = 0;
  std::size_t sample_limit_ = 0;
  std::vector<ReplySample> samples_;
};

/// ingest: connections 0 and 1 are closed-loop loaders, each sweeping its
/// own half of the base cells one period at a time (a loader may run at
/// most one period ahead of the other); the remaining connections take
/// open-loop dashboard reads over a small fixed statement set, raw and
/// prepared 50/50. Inserted values continue every cell's series
/// (seasonal naive plus seeded noise).
class IngestMix : public OpSource {
 public:
  /// `cells` are the base cells with their stored history (starting at
  /// time 0); `reads` the dashboard nodes; `first_time` the first period
  /// to insert.
  IngestMix(std::vector<NodeRef> cells,
            std::vector<std::vector<double>> history,
            std::vector<NodeRef> reads, std::vector<std::size_t> horizons,
            StatementIds ids, std::int64_t first_time, std::uint64_t seed);

  void NextOpen(Op* op) override;
  bool NextClosed(std::size_t conn, Op* op) override;
  void OnResponse(std::size_t conn, const Op& op,
                  const f2db::WireResponse& response) override;
  bool Finished() const override;
  /// Retries a cross-shard read that arrived while one shard had already
  /// advanced to the next period and the other had not: the engine
  /// refuses to sum misaligned shards, and the condition clears as soon
  /// as the lagging shard's period completes.
  bool ShouldRetry(const Op& op, const f2db::WireResponse& response) override;

  /// From now on loaders only complete the sweeps up to the period the
  /// furthest loader has started, so every period is complete when both
  /// stop and no insert is left buffered.
  void FinishSweeps();
  /// Moves the finish line `periods` further (after FinishSweeps).
  void ExtendSweeps(std::int64_t periods) { finish_time_ += periods; }

  /// Last period both loaders completed (first_time - 1 before any).
  std::int64_t completed_time() const;
  const std::vector<NodeRef>& cells() const { return cells_; }
  /// Inserts acknowledged so far, and the bytes of their statement text
  /// (the user's payload).
  std::uint64_t acked_count() const { return acked_count_; }
  std::uint64_t acked_bytes() const { return acked_bytes_; }
  /// Sum of every value acknowledged for a cell.
  double acked_sum(std::size_t cell) const { return cell_[cell].acked_sum; }
  /// Latest period acknowledged for a cell (first_time - 1 before any).
  std::int64_t last_acked(std::size_t cell) const {
    return cell_[cell].last_acked;
  }
  /// The acknowledged value of (cell, time) while it is among the cell's
  /// kKeptPeriods most recent periods; false otherwise.
  bool AckedValue(std::size_t cell, std::int64_t time, double* value) const;

  /// Periods of inserted values kept per cell: more than the engine's
  /// retention window plus the periods between two compactions.
  static constexpr std::int64_t kKeptPeriods = 256;

 private:
  struct Loader {
    std::size_t begin = 0;  ///< first cell of this loader's half
    std::size_t end = 0;
    std::int64_t time = 0;  ///< period of the current sweep
    std::size_t next = 0;   ///< next cell of the current sweep
  };
  double ValueFor(std::size_t cell, std::int64_t time);

  /// Per cell, bounded so memory does not grow with the run: the values of
  /// the last kKeptPeriods periods (indexed by time mod kKeptPeriods),
  /// which of them were acknowledged, and the running sum of acknowledged
  /// values.
  struct Cell {
    std::vector<double> value;
    std::vector<std::int64_t> acked_time;  ///< -1 = not acknowledged
    double acked_sum = 0;
    std::int64_t last_acked = 0;
  };
  static std::size_t Slot(std::int64_t time) {
    return static_cast<std::size_t>(time % kKeptPeriods);
  }

  std::vector<NodeRef> cells_;
  std::vector<Cell> cell_;
  std::vector<NodeRef> reads_;
  std::vector<std::size_t> horizons_;
  StatementIds ids_;
  std::int64_t first_time_;
  std::uint64_t seed_;
  f2db::Rng rng_;
  Loader loaders_[2];
  bool finishing_ = false;
  std::int64_t finish_time_ = 0;
  std::uint64_t acked_count_ = 0;
  std::uint64_t acked_bytes_ = 0;
  /// The (cell, time) each loader has in flight; an op's tag is its
  /// loader.
  std::pair<std::size_t, std::int64_t> in_flight_[2];
};

}  // namespace perfbench

#endif  // PERFBENCH_MIXES_H_
