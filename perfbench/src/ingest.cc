// ingest: durable writes beside dashboard reads, then crash recovery.
//
// Gen1000 on a 2-shard durable ShardedEngine with its shardable
// configuration (one model per base cell). WAL group commit
// (fsync=batch, 64 records), background checkpoints every 1.5 s and
// compactions every 2.5 s, lazy re-estimation after 48 updates, and a
// retention window of 120 periods, so memory and per-advance work reach a
// steady state instead of growing with the run. Two
// closed-loop loader connections sweep INSERTs over their own half of the
// 1,000 base cells; two open-loop connections read a fixed dashboard set
// (12 statement texts, well inside the plan cache) at 1,000 reads/s, raw
// and prepared 50/50. After the load the loaders finish their sweeps, a
// crash image of the data directory is taken with a fixed two-period WAL
// tail, and recovery from that image is timed.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <unistd.h>

#include "common/stopwatch.h"
#include "data/datasets.h"
#include "engine/sharded_engine.h"
#include "mixes.h"
#include "statements.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBaseSeries = 1000;
constexpr std::size_t kShards = 2;
constexpr std::size_t kConnections = 4;
constexpr double kReadRatePerS = 1000;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kRecoveries = 3;
constexpr std::int64_t kTailPeriods = 2;
constexpr std::size_t kSpanCapacity = 600000;
constexpr std::size_t kFitProbes = 200;

f2db::ShardedEngineOptions EngineOptions(const std::string& data_dir) {
  f2db::ShardedEngineOptions options;
  options.num_shards = kShards;
  options.engine.data_dir = data_dir;
  options.engine.fsync_policy = f2db::FsyncPolicy::kBatch;
  options.engine.wal_batch_records = 64;
  options.engine.checkpoint_interval_seconds = 1.5;
  options.engine.compaction_interval_seconds = 2.5;
  options.engine.reestimate_after_updates = 48;
  options.engine.retention_window = 120;
  return options;
}

/// Removes a directory tree when it goes out of scope, on every exit path.
struct DirGuard {
  std::string path;
  ~DirGuard() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

/// One ingest set-up. Members are destroyed in reverse: connections close,
/// the server drains (and takes its shutdown checkpoint), the engine
/// closes, and finally the data directory is removed.
struct IngestSystem {
  DirGuard dir;
  std::unique_ptr<f2db::DataSet> data;
  std::unique_ptr<f2db::ShardedEngine> engine;
  std::unique_ptr<TracingEngine> tracing;
  std::unique_ptr<f2db::F2dbServer> server;
  std::unique_ptr<LoadGenerator> gen;
  std::vector<NodeRef> nodes;
  StatementIds ids;
  double generate_s = 0;
};

f2db::Result<std::unique_ptr<IngestSystem>> SetUpIngest(
    const std::string& dir) {
  auto sys = std::make_unique<IngestSystem>();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return f2db::Status::Internal("cannot create " + dir);
  sys->dir.path = dir;

  f2db::StopWatch generate;
  F2DB_ASSIGN_OR_RETURN(f2db::DataSet data, f2db::MakeGenX(kBaseSeries));
  sys->data = std::make_unique<f2db::DataSet>(std::move(data));
  sys->generate_s = generate.ElapsedSeconds();
  const f2db::TimeSeriesGraph& graph = sys->data->graph;
  F2DB_ASSIGN_OR_RETURN(
      f2db::ModelConfiguration config,
      f2db::BuildShardableConfiguration(
          graph,
          f2db::ModelSpec::TripleExponentialSmoothing(sys->data->season),
          0.8));
  F2DB_ASSIGN_OR_RETURN(sys->engine,
                        f2db::ShardedEngine::Open(graph, EngineOptions(dir)));
  F2DB_RETURN_IF_ERROR(sys->engine->LoadConfiguration(config, 0.8));
  sys->nodes = NodeRefs(graph);
  sys->tracing = std::make_unique<TracingEngine>(*sys->engine);
  sys->server =
      std::make_unique<f2db::F2dbServer>(*sys->tracing, BenchServerOptions());
  F2DB_RETURN_IF_ERROR(sys->server->Start());
  F2DB_ASSIGN_OR_RETURN(
      sys->gen,
      LoadGenerator::Connect("127.0.0.1", sys->server->port(), kConnections));
  F2DB_ASSIGN_OR_RETURN(sys->ids, PrepareLevels(*sys->gen, sys->nodes));
  return sys;
}

/// The dashboard: the top node, the one level-2 node and two level-1
/// groups (all spanning both shards), and two base cells (one shard each).
std::vector<NodeRef> DashboardNodes(const std::vector<NodeRef>& nodes) {
  std::vector<NodeRef> reads;
  for (const NodeRef& n : nodes) {
    if (n.level.empty() || n.value == "L2_0" || n.value == "L1_3" ||
        n.value == "L1_17" || n.value == "L0_42" || n.value == "L0_517") {
      reads.push_back(n);
    }
  }
  return reads;
}
const std::vector<std::size_t> kDashboardHorizons = {1, 6};

std::string Render(const f2db::Result<f2db::QueryResult>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out;
  f2db::RenderQueryResultInto(result.value(), &out);
  return out;
}

f2db::Result<f2db::ForecastQuery> Parse(const NodeRef& node,
                                        std::size_t horizon) {
  return f2db::ParseForecastQuery(QueryText(node, horizon));
}

/// Name -> node id of one shard's graph.
std::map<std::string, f2db::NodeId> NodesByName(
    const f2db::TimeSeriesGraph& graph) {
  std::map<std::string, f2db::NodeId> by_name;
  for (const NodeRef& ref : NodeRefs(graph)) by_name[ref.value] = ref.node;
  return by_name;
}

/// The live engine as of the crash image: background compaction keeps
/// applying retention afterwards, so the comparison is against state
/// pinned when the image was copied.
struct LiveState {
  std::size_t pending = 0;
  std::vector<f2db::SnapshotPtr> shards;  ///< by partition
  std::vector<std::string> answers;       ///< dashboard, reads x horizons
};

std::vector<std::string> DashboardAnswers(const f2db::ShardedEngine& engine,
                                          const std::vector<NodeRef>& reads) {
  std::vector<std::string> answers;
  for (const NodeRef& node : reads) {
    for (const std::size_t h : kDashboardHorizons) {
      auto query = Parse(node, h);
      answers.push_back(query.ok() ? Render(engine.Execute(query.value()))
                                   : "unparsable");
    }
  }
  return answers;
}

LiveState PinLive(const f2db::ShardedEngine& live,
                  const std::vector<NodeRef>& reads) {
  LiveState state;
  state.pending = live.pending_inserts();
  state.shards.resize(kShards);
  for (const std::size_t p : live.active_partitions()) {
    state.shards[p] = live.shard(p)->snapshot();
  }
  state.answers = DashboardAnswers(live, reads);
  return state;
}

/// Every acknowledged insert is in the recovered engine, every shard's
/// series equal the live shard's, nothing is left buffered, and the
/// recovered engine answers the dashboard exactly like the live one.
/// Retention drops raw history older than the window by design, so an
/// insert is checked by value while its period is retained, and every
/// insert (retained or not) through its cell's history sum, which the
/// engine keeps exactly across retention.
void CheckRecovered(const LiveState& live,
                    const f2db::ShardedEngine& recovered,
                    const f2db::TimeSeriesGraph& initial, const IngestMix& mix,
                    const std::vector<NodeRef>& reads, Checks* checks) {
  checks->Expect(live.pending == 0 &&
                     recovered.pending_inserts() == 0,
                 "ingest: no insert left buffered after the sweeps");
  std::size_t series_mismatch = 0;
  std::vector<std::map<std::string, f2db::NodeId>> names(kShards);
  std::vector<f2db::SnapshotPtr> snaps(kShards);
  for (const std::size_t p : recovered.active_partitions()) {
    const f2db::SnapshotPtr& a = live.shards[p];
    const f2db::SnapshotPtr b = recovered.shard(p)->snapshot();
    if (a == nullptr || b == nullptr) {
      ++series_mismatch;
      continue;
    }
    for (f2db::NodeId n = 0; n < a->graph->num_nodes(); ++n) {
      // History sums are rebuilt in another summation order on recovery.
      const double sum = a->history_sums[n];
      if (a->graph->series(n).values() != b->graph->series(n).values() ||
          std::abs(sum - b->history_sums[n]) >
              1e-9 * std::max(1.0, std::abs(sum))) {
        ++series_mismatch;
      }
    }
    names[p] = NodesByName(*b->graph);
    snaps[p] = b;
  }
  checks->Expect(series_mismatch == 0,
                 "ingest: " + std::to_string(series_mismatch) +
                     " recovered series differ from the live engine");

  // Per cell: the retained periods hold the acknowledged values, the last
  // acknowledged period is present, and the history sum is the initial
  // history plus every acknowledged value.
  const std::vector<NodeRef>& cells = mix.cells();
  std::size_t missing = 0;
  std::uint64_t checked_values = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::size_t p =
        f2db::ShardedEngine::PartitionOf(cells[c].value, kShards);
    const auto it = names[p].find(cells[c].value);
    if (snaps[p] == nullptr || it == names[p].end()) {
      ++missing;
      continue;
    }
    const f2db::TimeSeries& series = snaps[p]->graph->series(it->second);
    const std::int64_t last = mix.last_acked(c);
    if (series.end_time() <= last) ++missing;
    const std::int64_t from = std::max(
        series.start_time(), last - IngestMix::kKeptPeriods + 1);
    for (std::int64_t t = from; t < series.end_time(); ++t) {
      double value = 0;
      if (!mix.AckedValue(c, t, &value)) continue;
      ++checked_values;
      if (series.AtTime(t) != value) ++missing;
    }
    double expected = mix.acked_sum(c);
    for (const double v : initial.series(cells[c].node).values()) expected += v;
    const double got = snaps[p]->history_sums[it->second];
    if (std::abs(got - expected) > 1e-9 * std::max(1.0, std::abs(expected))) {
      ++missing;
    }
  }
  checks->Expect(mix.acked_count() > 0 && checked_values > 0 && missing == 0,
                 "ingest: " + std::to_string(missing) +
                     " acknowledged values or cell sums missing after "
                     "recovery (" +
                     std::to_string(mix.acked_count()) + " acknowledged, " +
                     std::to_string(checked_values) + " checked by value)");

  const std::vector<std::string> answers = DashboardAnswers(recovered, reads);
  std::size_t answer_mismatch = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (i >= live.answers.size() || answers[i] != live.answers[i]) {
      ++answer_mismatch;
    }
  }
  checks->Expect(answer_mismatch == 0,
                 "ingest: " + std::to_string(answer_mismatch) +
                     " dashboard answers differ after recovery");
}

/// CreateAndFit on the training prefix of sampled base cells.
double FitP50Us(const f2db::DataSet& data, SpanBuffer* spans) {
  f2db::ConfigurationEvaluator evaluator(data.graph, 0.8);
  f2db::ModelFactory factory(
      f2db::ModelSpec::TripleExponentialSmoothing(data.season));
  const auto& base = data.graph.base_nodes();
  std::vector<double> fit_us;
  for (std::size_t i = 0; i < kFitProbes; ++i) {
    const f2db::NodeId node = base[(i * 7919) % base.size()];
    const f2db::TimeSeries train = evaluator.TrainSeries(node);
    Span span;
    span.kind = SpanKind::kCreateAndFit;
    span.thread = TraceThreadId();
    span.key = node;
    span.start_ns = NowNs();
    const auto model = factory.CreateAndFit(train);
    span.end_ns = NowNs();
    (void)model;
    fit_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    if (spans != nullptr) spans->Add(span);
  }
  return Median(fit_us);
}

/// Insert spans split into plain inserts and the insert of each shard that
/// completed a period (and so ran the time advance): within one (shard,
/// period), the advancing insert is the last to leave the engine. Only
/// periods in [from, to] whose every insert was traced count.
void SplitInsertSpans(const std::vector<Span>& spans, const IngestMix& mix,
                      std::int64_t from, std::int64_t to,
                      std::vector<double>* plain_us,
                      std::vector<double>* advance_us) {
  std::map<std::uint64_t, std::pair<std::size_t, std::int64_t>> where;
  std::vector<std::size_t> cells_per_shard(kShards, 0);
  for (const NodeRef& cell : mix.cells()) {
    const std::size_t p = f2db::ShardedEngine::PartitionOf(cell.value, kShards);
    ++cells_per_shard[p];
    for (std::int64_t t = from; t <= to; ++t) {
      where[InsertKey(cell.value, t)] = {p, t};
    }
  }
  std::map<std::pair<std::size_t, std::int64_t>, std::vector<const Span*>>
      groups;
  for (const Span& span : spans) {
    if (span.kind != SpanKind::kInsertFact) continue;
    const auto it = where.find(span.key);
    if (it != where.end()) groups[it->second].push_back(&span);
  }
  for (const auto& [group, members] : groups) {
    if (members.size() != cells_per_shard[group.first]) continue;
    const Span* last = *std::max_element(
        members.begin(), members.end(),
        [](const Span* a, const Span* b) { return a->end_ns < b->end_ns; });
    for (const Span* s : members) {
      (s == last ? advance_us : plain_us)
          ->push_back(static_cast<double>(s->end_ns - s->start_ns) / 1e3);
    }
  }
}

}  // namespace

f2db::Status RunIngest(const RunOptions& options, RunOutput* out) {
  Metrics& m = out->metrics;
  const std::string base_dir =
      options.work_dir + "/ingest-" + std::to_string(::getpid());
  const DirGuard remove_base{base_dir};

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<IngestSystem> sys;
  for (std::size_t i = 0; i < kSetups; ++i) {
    sys.reset();
    f2db::StopWatch watch;
    F2DB_ASSIGN_OR_RETURN(sys,
                          SetUpIngest(base_dir + "/data-" + std::to_string(i)));
    setup_s.push_back(watch.ElapsedSeconds());
    generate_s.push_back(sys->generate_s);
  }
  m.E2e("setup_s", Median(setup_s), "s");
  m.Layer("data.generate_s", Median(generate_s), "s");

  const f2db::TimeSeriesGraph& graph = sys->data->graph;
  std::vector<NodeRef> cells;
  std::vector<std::vector<double>> history;
  for (const f2db::NodeId node : graph.base_nodes()) {
    cells.push_back(sys->nodes[node]);
    history.push_back(graph.series(node).values());
  }
  const f2db::TimeSeries& first = graph.series(graph.base_nodes()[0]);
  out->checks.Expect(first.start_time() == 0 && cells.size() == kBaseSeries,
                     "ingest: Gen1000 base series start at time 0");
  const std::vector<NodeRef> reads = DashboardNodes(sys->nodes);
  IngestMix mix(cells, std::move(history), reads, kDashboardHorizons,
                sys->ids, first.end_time(), options.seed);
  LoadGenerator& gen = *sys->gen;

  PhaseSpec load;
  load.seconds = options.trace ? options.seconds / 2 : options.seconds;
  load.open_rate_per_s = kReadRatePerS;
  load.open_loop = {false, false, true, true};
  load.seed = options.seed;

  const double steal0 = HostStealSeconds();
  const f2db::EngineStats stats0 = sys->engine->stats();
  const double cpu0 = ProcessCpuSeconds();
  const PhaseResult main = gen.Run(load, mix);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const std::uint64_t main_acked = mix.acked_count();
  CountPhase(main, "ingest load", out);

  PhaseResult traced;
  SpanBuffer spans(options.trace ? kSpanCapacity : 1);
  const std::int64_t traced_from = mix.completed_time();
  if (options.trace) {
    sys->tracing->set_spans(&spans);
    PhaseSpec traced_spec = load;
    traced_spec.seed = options.seed + 1;
    traced_spec.record_requests = true;
    traced = gen.Run(traced_spec, mix);
    sys->tracing->set_spans(nullptr);
    CountPhase(traced, "ingest traced load", out);
  }
  const f2db::EngineStats stats1 = sys->engine->stats();
  const std::uint64_t load_acked_bytes = mix.acked_bytes();

  // Loaders complete their sweeps so every period is whole.
  PhaseSpec drain;
  drain.seconds = 60;
  drain.open_loop = {false, false, true, true};
  mix.FinishSweeps();
  CountPhase(gen.Run(drain, mix), "ingest sweep completion", out);

  // Crash image: checkpoint, then a fixed WAL tail of whole periods, then
  // copy the directory while nothing writes. A background checkpoint or
  // compaction racing the tail would shorten it, so that attempt is
  // repeated.
  const std::string data_dir = sys->dir.path;
  const std::string image = base_dir + "/image";
  bool image_ok = false;
  LiveState live;
  for (int attempt = 0; attempt < 5 && !image_ok; ++attempt) {
    const f2db::EngineStats before = sys->engine->stats();
    F2DB_RETURN_IF_ERROR(sys->engine->CheckpointNow());
    mix.ExtendSweeps(kTailPeriods);
    CountPhase(gen.Run(drain, mix), "ingest crash tail", out);
    std::error_code ec;
    fs::remove_all(image, ec);
    fs::copy(data_dir, image, fs::copy_options::recursive, ec);
    if (ec) return f2db::Status::Internal("copy failed: " + ec.message());
    live = PinLive(*sys->engine, reads);
    const f2db::EngineStats after = sys->engine->stats();
    image_ok = after.checkpoints_completed ==
                   before.checkpoints_completed +
                       sys->engine->num_active_shards() &&
               after.compactions_completed == before.compactions_completed;
  }
  out->checks.Expect(image_ok, "ingest: crash image without a racing "
                               "background checkpoint or compaction");

  std::vector<double> recovery_s;
  std::unique_ptr<f2db::ShardedEngine> recovered;
  for (std::size_t i = 0; i < kRecoveries; ++i) {
    recovered.reset();
    const std::string dir = base_dir + "/recovered-" + std::to_string(i);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::copy(image, dir, fs::copy_options::recursive, ec);
    if (ec) return f2db::Status::Internal("copy failed: " + ec.message());
    f2db::StopWatch watch;
    F2DB_ASSIGN_OR_RETURN(recovered,
                          f2db::ShardedEngine::Open(graph, EngineOptions(dir)));
    recovery_s.push_back(watch.ElapsedSeconds());
  }
  CheckRecovered(live, *recovered, graph, mix, reads, &out->checks);
  const f2db::EngineStats rstats = recovered->stats();
  recovered.reset();

  // ------------------------------------------------------------ metrics
  const double rows_per_s =
      WindowedRate(main, {OpType::kInsert}, load.seconds);
  const double insert_p50 = WindowedP50(main, OpType::kInsert, load.seconds);
  m.E2e("ops_per_s", rows_per_s, "1/s");
  m.E2e("p50_us", insert_p50, "us");
  m.E2e("cpu_us_per_op", CpuUsPerOp(main, cpu_s), "us");
  m.Diag("insert_rows_per_s", rows_per_s, "rows/s");
  m.Diag("insert_p50_us", insert_p50, "us");
  m.Diag("query_p50_us", Median(main.of(OpType::kQuery).latency_us), "us");
  m.Diag("execute_p50_us", Median(main.of(OpType::kExecute).latency_us),
         "us");
  m.Diag("acked_inserts", static_cast<double>(main_acked), "count");
  m.Diag("recovery_s", Median(recovery_s), "s");
  m.Diag("periods_inserted",
         static_cast<double>(mix.completed_time() - first.end_time() + 1),
         "count");
  AddNoiseMetrics(main, HostStealSeconds() - steal0, &m, options.trace);

  m.Layer("sharded_engine.misaligned_retries",
          static_cast<double>(main.of(OpType::kQuery).retries +
                              main.of(OpType::kExecute).retries),
          "count");
  // Bytes of INSERT statements acknowledged while loading (both halves of
  // a traced run); the engine counters are deltas over the same span.
  const double user_bytes = static_cast<double>(std::max<std::uint64_t>(
      load_acked_bytes, 1));
  m.Layer("engine.reestimates",
          static_cast<double>(stats1.reestimates - stats0.reestimates),
          "count");
  m.Layer("engine.wal_records",
          static_cast<double>(stats1.wal_records_appended -
                              stats0.wal_records_appended),
          "count");
  m.Layer("engine.wal_bytes_per_user_byte",
          static_cast<double>(stats1.wal_bytes - stats0.wal_bytes) /
              user_bytes,
          "ratio");
  m.Layer("engine.checkpoints",
          static_cast<double>(stats1.checkpoints_completed -
                              stats0.checkpoints_completed),
          "count");
  m.Layer("engine.compactions",
          static_cast<double>(stats1.compactions_completed -
                              stats0.compactions_completed),
          "count");
  m.Layer("storage.segments_sealed",
          static_cast<double>(stats1.segments_sealed - stats0.segments_sealed),
          "count");
  m.Layer("storage.live_bytes_per_user_byte",
          static_cast<double>(stats1.segment_live_bytes) / user_bytes,
          "ratio");
  m.Layer("recovery.wal_records_replayed",
          static_cast<double>(rstats.wal_records_replayed), "count");
  m.Layer("recovery.segment_records_recovered",
          static_cast<double>(rstats.segment_records_recovered), "count");
  AddPlanCacheMetrics(stats0, stats1, &m);

  if (options.trace) {
    m.Layer("ts.fit_p50_us", FitP50Us(*sys->data, &spans), "us");
    out->spans = spans.Snapshot();
    std::vector<double> plain_us;
    std::vector<double> advance_us;
    SplitInsertSpans(out->spans, mix, traced_from, mix.completed_time(),
                     &plain_us, &advance_us);
    const TraceSummary trace = SummarizeTrace(
        traced.records, &out->spans, [&](std::uint64_t key) {
          for (const NodeRef& node : reads) {
            for (const std::size_t h : kDashboardHorizons) {
              if (ForecastKey(node.value, h) == key) return !node.is_base;
            }
          }
          return false;
        });
    AddTraceLayerMetrics(trace, &m);
    m.Layer("engine.insert_p50_us", Median(plain_us), "us");
    m.Layer("engine.advance_p50_us", Median(advance_us), "us");
    m.Layer("engine.advance_p99_us", Percentile(advance_us, 0.99), "us");
    m.Layer("trace.spans_dropped", static_cast<double>(spans.dropped()),
            "count");
    const double traced_rate =
        WindowedRate(traced, {OpType::kInsert}, load.seconds);
    m.Layer("trace.overhead_ops_frac",
            rows_per_s > 0 ? 1 - traced_rate / rows_per_s : 0, "ratio");
    m.Layer("trace.overhead_p50_us",
            WindowedP50(traced, OpType::kInsert, load.seconds) - insert_p50, "us");
    out->checks.Expect(trace.stage_sum_max_err_us < 0.01,
                       "ingest: stage times add up to each round trip");
  }

  const f2db::ServerStats server = sys->server->stats();
  m.Layer("server.requests_shed", static_cast<double>(server.requests_shed),
          "count");
  m.Layer("server.protocol_errors",
          static_cast<double>(server.protocol_errors), "count");
  sys.reset();
  m.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  return f2db::Status::OK();
}

}  // namespace perfbench
