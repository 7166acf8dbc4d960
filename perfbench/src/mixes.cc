#include "mixes.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "server/wire.h"

namespace perfbench {

using f2db::EncodeExecuteBody;
using f2db::EncodeRequest;
using f2db::FrameType;
using f2db::WireRequest;

namespace {

constexpr std::int64_t kMaxHorizon = 12;

/// Random value in [0, 1) from a 64-bit key (splitmix64 finalizer).
double HashUnit(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

void MakeForecastOp(const NodeRef& node, std::size_t horizon, bool prepared,
                    const StatementIds& ids, Op* op) {
  op->key = ForecastKey(node.value, horizon);
  const std::string h = std::to_string(horizon);
  if (prepared) {
    op->type = OpType::kExecute;
    op->text_key = 0;
    std::vector<std::string> binds;
    if (!node.level.empty()) binds.push_back(node.value);
    binds.push_back(h);
    op->frame = EncodeRequest(WireRequest{
        FrameType::kExecute,
        EncodeExecuteBody(ids.at(node.level_index), binds)});
  } else {
    op->type = OpType::kQuery;
    const std::string sql = QueryText(node, horizon);
    op->text_key = Fnv1a(sql);
    op->frame = EncodeRequest(WireRequest{FrameType::kQuery, sql});
  }
}

ServeMix::ServeMix(std::vector<NodeRef> nodes, StatementIds ids,
                   std::uint64_t seed)
    : nodes_(std::move(nodes)), ids_(std::move(ids)), rng_(seed) {
  rank_to_node_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) rank_to_node_[i] = i;
  for (std::size_t i = nodes_.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(rank_to_node_[i - 1], rank_to_node_[j]);
  }
  cdf_.resize(nodes_.size());
  double total = 0;
  for (std::size_t r = 0; r < nodes_.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

void ServeMix::Draw(Op* op) {
  const double u = rng_.NextDouble();
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin()),
      cdf_.size() - 1);
  const std::size_t index = rank_to_node_[rank];
  const std::size_t horizon = static_cast<std::size_t>(
      rng_.UniformInt(1, kMaxHorizon));
  const bool prepared = rng_.NextBernoulli(0.5);
  MakeForecastOp(nodes_[index], horizon, prepared, ids_, op);
  const bool sample = sample_every_ != 0 && drawn_ % sample_every_ == 0 &&
                      samples_.size() < sample_limit_;
  op->tag = sample ? (index << 8 | horizon) + 1 : 0;
  ++drawn_;
}

void ServeMix::OnResponse(std::size_t, const Op& op,
                          const f2db::WireResponse& response) {
  if (op.tag == 0) return;
  const std::uint64_t packed = op.tag - 1;
  samples_.push_back(ReplySample{op.type, packed >> 8, packed & 0xff,
                                 response.status, response.body});
}

IngestMix::IngestMix(std::vector<NodeRef> cells,
                     std::vector<std::vector<double>> history,
                     std::vector<NodeRef> reads,
                     std::vector<std::size_t> horizons, StatementIds ids,
                     std::int64_t first_time, std::uint64_t seed)
    : cells_(std::move(cells)),
      cell_(cells_.size()),
      reads_(std::move(reads)),
      horizons_(std::move(horizons)),
      ids_(std::move(ids)),
      first_time_(first_time),
      seed_(seed),
      rng_(seed) {
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    Cell& state = cell_[c];
    state.value.assign(kKeptPeriods, 0.0);
    state.acked_time.assign(kKeptPeriods, -1);
    state.last_acked = first_time - 1;
    for (std::size_t t = 0; t < history[c].size(); ++t) {
      state.value[Slot(static_cast<std::int64_t>(t))] = history[c][t];
    }
  }
  // Each loader starts "done with" the period before the first insert.
  const std::size_t half = cells_.size() / 2;
  loaders_[0] = Loader{0, half, first_time - 1, half};
  loaders_[1] = Loader{half, cells_.size(), first_time - 1, cells_.size()};
}

double IngestMix::ValueFor(std::size_t cell, std::int64_t time) {
  // Values are a pure function of (seed, cell, time) and the series so
  // far, so the inputs do not depend on how the two loaders interleave.
  const std::uint64_t key = seed_ * 0x9e3779b97f4a7c15ULL ^
                            (static_cast<std::uint64_t>(cell) << 32) ^
                            static_cast<std::uint64_t>(time);
  double noise = 0;
  for (std::uint64_t k = 0; k < 4; ++k) noise += HashUnit(key * 4 + k) - 0.5;
  const double seasonal = cell_[cell].value[Slot(time - 12)];
  // Round to the literal sent on the wire, so the kept values are exactly
  // what the engine parses.
  char text[32];
  std::snprintf(text, sizeof(text), "%.4f", seasonal + noise);
  const double value = std::strtod(text, nullptr);
  cell_[cell].value[Slot(time)] = value;
  cell_[cell].acked_time[Slot(time)] = -1;
  return value;
}

bool IngestMix::AckedValue(std::size_t cell, std::int64_t time,
                           double* value) const {
  const Cell& state = cell_[cell];
  if (state.acked_time[Slot(time)] != time) return false;
  *value = state.value[Slot(time)];
  return true;
}

bool IngestMix::NextClosed(std::size_t conn, Op* op) {
  if (conn > 1) return false;
  Loader& self = loaders_[conn];
  const Loader& other = loaders_[1 - conn];
  if (self.next == self.end) {
    // Sweep done: start the next period unless that would run two periods
    // ahead of the other loader, or the finish line is reached.
    const std::int64_t other_done =
        other.next == other.end ? other.time : other.time - 1;
    if (self.time + 1 > other_done + 1) return false;
    if (finishing_ && self.time >= finish_time_) return false;
    ++self.time;
    self.next = self.begin;
  }
  const std::size_t cell = self.next++;
  const double value = ValueFor(cell, self.time);
  char text[32];
  std::snprintf(text, sizeof(text), "%.4f", value);
  op->type = OpType::kInsert;
  op->key = InsertKey(cells_[cell].value, self.time);
  op->text_key = 0;
  op->frame = EncodeRequest(WireRequest{
      FrameType::kInsert, InsertText(cells_[cell].value, self.time, text)});
  op->tag = conn;
  in_flight_[conn] = {cell, self.time};
  return true;
}

void IngestMix::NextOpen(Op* op) {
  const NodeRef& node = reads_[static_cast<std::size_t>(
      rng_.UniformInt(0, static_cast<std::int64_t>(reads_.size()) - 1))];
  const std::size_t horizon = horizons_[static_cast<std::size_t>(
      rng_.UniformInt(0, static_cast<std::int64_t>(horizons_.size()) - 1))];
  MakeForecastOp(node, horizon, rng_.NextBernoulli(0.5), ids_, op);
  op->tag = 0;
}

void IngestMix::OnResponse(std::size_t, const Op& op,
                           const f2db::WireResponse& response) {
  if (op.type != OpType::kInsert ||
      response.status != f2db::StatusCode::kOk) {
    return;
  }
  const auto [cell, time] = in_flight_[op.tag];
  Cell& state = cell_[cell];
  state.acked_time[Slot(time)] = time;
  state.acked_sum += state.value[Slot(time)];
  state.last_acked = std::max(state.last_acked, time);
  ++acked_count_;
  acked_bytes_ += op.frame.size();
}

bool IngestMix::ShouldRetry(const Op& op,
                            const f2db::WireResponse& response) {
  return op.type != OpType::kInsert &&
         response.status == f2db::StatusCode::kFailedPrecondition &&
         response.body.find("misaligned shard frontiers") != std::string::npos;
}

void IngestMix::FinishSweeps() {
  finishing_ = true;
  finish_time_ = std::max(loaders_[0].time, loaders_[1].time);
}

bool IngestMix::Finished() const {
  if (!finishing_) return false;
  for (const Loader& loader : loaders_) {
    if (loader.time < finish_time_ || loader.next != loader.end) return false;
  }
  return true;
}

std::int64_t IngestMix::completed_time() const {
  std::int64_t done = loaders_[0].time;
  for (const Loader& loader : loaders_) {
    const std::int64_t t =
        loader.next == loader.end ? loader.time : loader.time - 1;
    done = std::min(done, t);
  }
  return done;
}

}  // namespace perfbench
