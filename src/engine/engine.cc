#include "engine/engine.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/recovery.h"
#include "storage/fsio.h"
#include "ts/model_factory.h"
#include "ts/naive_models.h"

namespace f2db {

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNone:
      return "NONE";
    case DegradationLevel::kStaleModel:
      return "STALE_MODEL";
    case DegradationLevel::kDerivedFallback:
      return "DERIVED_FALLBACK";
    case DegradationLevel::kNaiveFallback:
      return "NAIVE_FALLBACK";
    case DegradationLevel::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

namespace {

/// Derived-fallback recursion bound: a source that fell back to its own
/// scheme may hit sources that are themselves degraded; beyond this depth
/// the ladder skips to the naive rung instead of walking the graph.
constexpr std::size_t kMaxDerivationDepth = 4;

/// Evaluates `model` into a DegradedForecast tagged with `level`/`reason`.
/// Fails with kUnimplemented when variances are requested but unsupported.
Result<DegradedForecast> ForecastFromModel(const ForecastModel& model,
                                           NodeId source, std::size_t horizon,
                                           bool want_variance,
                                           DegradationLevel level,
                                           std::string reason) {
  DegradedForecast out;
  out.values = model.Forecast(horizon);
  if (want_variance) {
    out.variances = model.ForecastVariance(horizon);
    if (out.variances.size() != horizon) {
      return Status::Unimplemented("model at node " + std::to_string(source) +
                                   " does not support interval forecasts");
    }
  }
  out.level = level;
  out.reason = std::move(reason);
  return out;
}

/// Resolves WHERE filters against a graph's schema (structure only; the
/// schema is identical across snapshots of one engine).
Result<NodeId> ResolveNodeIn(const TimeSeriesGraph& graph,
                             const std::vector<DimensionFilter>& filters) {
  const CubeSchema& schema = graph.schema();
  // Reused across calls: bound-filter EXECUTEs resolve per request, and
  // the hot path must not pay a coords allocation each time.
  thread_local NodeAddress address;
  address.coords.clear();
  address.coords.resize(schema.num_dimensions());
  for (std::size_t d = 0; d < schema.num_dimensions(); ++d) {
    address.coords[d] = {
        static_cast<LevelIndex>(schema.hierarchy(d).num_levels()), 0};  // ALL
  }
  for (const DimensionFilter& filter : filters) {
    F2DB_ASSIGN_OR_RETURN(auto hit, schema.FindLevelAnywhere(filter.level));
    const auto [dim, level] = hit;
    F2DB_ASSIGN_OR_RETURN(ValueIndex value,
                          schema.hierarchy(dim).FindValue(level, filter.value));
    address.coords[dim] = {level, value};
  }
  return graph.NodeFor(address);
}

}  // namespace

Result<PlanPtr> EngineInterface::ParsePlan(const std::string& sql) const {
  auto plan = std::make_shared<CachedPlan>();
  F2DB_ASSIGN_OR_RETURN(plan->tmpl, ParseStatementTemplate(sql));
  return PlanPtr(std::move(plan));
}

Status EngineInterface::ExecutePlanInto(const CachedPlan& plan,
                                        const ForecastQuery& query,
                                        QueryResult* out) const {
  (void)plan;
  F2DB_ASSIGN_OR_RETURN(*out, Execute(query));
  return Status::OK();
}

F2dbEngine::F2dbEngine(TimeSeriesGraph graph, EngineOptions options)
    : options_(options), plan_cache_(options.plan_cache_capacity) {
  auto owned = std::make_shared<TimeSeriesGraph>(std::move(graph));
  for (std::size_t i = 0; i < owned->base_nodes().size(); ++i) {
    base_slot_[owned->base_nodes()[i]] = i;
  }
  auto initial = std::make_shared<EngineSnapshot>();
  initial->schemes.resize(owned->num_nodes());
  initial->history_sums.resize(owned->num_nodes(), 0.0);
  for (NodeId node = 0; node < owned->num_nodes(); ++node) {
    initial->history_sums[node] = owned->series(node).Sum();
  }
  initial->graph = std::move(owned);
  snapshot_.store(std::move(initial), std::memory_order_release);
}

F2dbEngine::~F2dbEngine() {
  if (!maintenance_threads_.empty()) {
    {
      std::lock_guard<std::mutex> lock(checkpoint_mutex_);
      stopping_ = true;
    }
    checkpoint_cv_.notify_all();
    for (std::thread& thread : maintenance_threads_) thread.join();
  }
  if (wal_) {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    wal_->Close();
  }
}

Result<std::unique_ptr<F2dbEngine>> F2dbEngine::Open(TimeSeriesGraph graph,
                                                     EngineOptions options) {
  auto engine = std::make_unique<F2dbEngine>(std::move(graph), options);
  if (options.data_dir.empty()) return engine;

  // Recovery runs single-threaded: the engine exists but no other thread
  // can reach it yet, so the replay callbacks use the regular maintenance
  // paths (with logging suppressed — replayed records are already logged).
  RecoveryCallbacks callbacks;
  callbacks.apply_checkpoint = [&engine](
                                   CheckpointState&& state,
                                   const storage::ManifestData* manifest) {
    return engine->ApplyCheckpointState(std::move(state), manifest);
  };
  callbacks.apply_segments = [&engine](
                                 const storage::ManifestData& manifest,
                                 std::vector<storage::SegmentData>&& chain) {
    return engine->ApplySegmentState(manifest, std::move(chain));
  };
  callbacks.apply_record = [&engine](const WalRecord& record) {
    return engine->ApplyWalRecord(record);
  };
  F2DB_ASSIGN_OR_RETURN(RecoveryInfo info,
                        RunRecovery(options.data_dir, callbacks));
  engine->recovery_records_replayed_ = info.records_replayed;
  engine->recovery_torn_tail_ = info.torn_tail_detected;
  engine->recovery_seconds_ = info.recovery_seconds;
  engine->recovery_segment_records_ =
      static_cast<std::size_t>(info.segment_records_loaded);
  engine->reseal_segments_ = info.segment_fallback;

  auto writer =
      info.create_segment
          ? WalWriter::Create(options.data_dir, info.append_epoch,
                              options.fsync_policy, options.wal_batch_records)
          : WalWriter::Reopen(options.data_dir, info.append_epoch,
                              info.append_valid_bytes, options.fsync_policy,
                              options.wal_batch_records);
  if (!writer.ok()) return writer.status();
  engine->wal_ = std::make_unique<WalWriter>(std::move(writer.value()));

  // The segment store opens AFTER recovery: recovery reads the manifest
  // and chain straight from disk, then the store cleans up whatever a
  // crash orphaned (half-written segments, retention leftovers).
  F2DB_ASSIGN_OR_RETURN(engine->store_,
                        storage::SegmentStore::Open(options.data_dir));

  F2dbEngine* raw = engine.get();
  const MaintenanceTask tasks[] = {
      {options.checkpoint_interval_seconds, false,
       [raw] { return raw->CheckpointNow(); }, "checkpoint"},
      {options.compaction_interval_seconds, false,
       [raw] { return raw->CompactNow(); }, "compaction"},
      // A failing probe is the expected state while read-only: not logged.
      {options.disk_probe_interval_seconds, true,
       [raw] { return raw->ProbeDisk(); }, nullptr},
      {options.scrub_interval_seconds, false,
       [raw] { return raw->ScrubOnce(nullptr); }, "scrub"},
  };
  for (const MaintenanceTask& task : tasks) {
    if (task.interval_seconds > 0.0) {
      engine->maintenance_threads_.emplace_back(
          [raw, task] { raw->MaintenanceLoop(task); });
    }
  }
  return engine;
}

const TimeSeriesGraph& F2dbEngine::graph() const {
  return *LoadSnapshot()->graph;
}

EngineStats F2dbEngine::stats() const {
  EngineStats out;
  out.queries = stats_.queries.Load();
  out.inserts = stats_.inserts.Load();
  out.time_advances = stats_.time_advances.Load();
  out.reestimates = stats_.reestimates.Load();
  out.refit_failures = stats_.refit_failures.Load();
  out.quarantines = stats_.quarantines.Load();
  out.degraded_rows_stale = stats_.degraded_rows_stale.Load();
  out.degraded_rows_derived = stats_.degraded_rows_derived.Load();
  out.degraded_rows_naive = stats_.degraded_rows_naive.Load();
  out.deadline_expired_queries = stats_.deadline_expired_queries.Load();
  out.brownout_refits_skipped = stats_.brownout_refits_skipped.Load();
  const PlanCache::Counters plan = plan_cache_.counters();
  out.plan_cache_hits = plan.hits;
  out.plan_cache_misses = plan.misses;
  out.plan_cache_evictions = plan.evictions;
  out.plan_cache_invalidations = plan.invalidations;
  out.plan_cache_size = plan_cache_.size();
  out.total_query_seconds = stats_.query_seconds.Load();
  out.total_maintenance_seconds = stats_.maintenance_seconds.Load();
  out.wal_records_appended = stats_.wal_records.Load();
  out.wal_bytes = stats_.wal_bytes.Load();
  out.wal_records_replayed = recovery_records_replayed_;
  out.torn_tail_detected = recovery_torn_tail_ ? 1 : 0;
  out.checkpoints_completed = stats_.checkpoints_completed.Load();
  out.checkpoint_failures = stats_.checkpoint_failures.Load();
  out.segments_sealed = stats_.segments_sealed.Load();
  out.segment_records_sealed = stats_.segment_records_sealed.Load();
  out.segments_live =
      store_ ? static_cast<std::size_t>(store_->live_segments()) : 0;
  out.segment_live_bytes =
      store_ ? static_cast<std::size_t>(store_->live_bytes()) : 0;
  out.compactions_completed = stats_.compactions_completed.Load();
  out.compaction_failures = stats_.compaction_failures.Load();
  out.retention_segments_deleted = stats_.retention_segments_deleted.Load();
  out.retention_records_dropped = stats_.retention_records_dropped.Load();
  out.segment_records_recovered = recovery_segment_records_;
  out.recovery_duration_ms = recovery_seconds_ * 1e3;
  const DiskHealthCounters disk = disk_health_.counters();
  out.disk_health = static_cast<std::size_t>(disk_health_.state());
  out.io_retries = disk.io_retries;
  out.io_failures_eio = disk.io_failures_eio;
  out.io_failures_enospc = disk.io_failures_enospc;
  out.io_failures_other = disk.io_failures_other;
  out.read_only_entries = disk.read_only_entries;
  out.read_only_exits = disk.read_only_exits;
  out.emergency_retentions = stats_.emergency_retentions.Load();
  out.scrub_cycles = stats_.scrub_cycles.Load();
  out.scrub_bytes = stats_.scrub_bytes.Load();
  out.scrub_corruptions = stats_.scrub_corruptions.Load();
  out.scrub_reseals = stats_.scrub_reseals.Load();
  const double last = last_checkpoint_seconds_.load(std::memory_order_relaxed);
  out.last_checkpoint_age_seconds =
      last < 0.0 ? -1.0 : uptime_.ElapsedSeconds() - last;
  return out;
}

void F2dbEngine::Publish(std::shared_ptr<EngineSnapshot> next) const {
  snapshot_.store(std::move(next), std::memory_order_release);
}

ThreadPool* F2dbEngine::MaintenancePool() const {
  if (options_.maintenance_threads == 1) return nullptr;
  std::call_once(pool_once_, [this] {
    const std::size_t threads = options_.maintenance_threads == 0
                                    ? ThreadPool::DefaultConcurrency()
                                    : options_.maintenance_threads;
    pool_ = std::make_unique<ThreadPool>(threads);
  });
  return pool_.get();
}

Status F2dbEngine::LoadConfiguration(const ModelConfiguration& config,
                                     const ConfigurationEvaluator& evaluator) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  const TimeSeriesGraph& graph = *cur->graph;
  if (config.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "configuration and engine graph have different node counts");
  }
  const std::vector<NodeId> model_nodes = config.model_nodes();
  if (model_nodes.empty()) {
    return Status::FailedPrecondition("configuration contains no models");
  }

  auto next = cur->CopyForWrite();
  next->models.clear();

  // Install models: clone the advisor's fitted model (trained on the
  // training prefix) and catch it up to the full stored history through
  // incremental updates — exactly the maintenance path. Catch-up is
  // per-model independent and fans out across the maintenance pool.
  const std::size_t train_length = evaluator.train_length();
  std::vector<std::shared_ptr<const LiveModel>> built(model_nodes.size());
  const auto catch_up = [&](std::size_t i) {
    const NodeId node = model_nodes[i];
    const ModelEntry* entry = config.entry(node);
    std::unique_ptr<ForecastModel> model = entry->model->Clone();
    const TimeSeries& series = graph.series(node);
    for (std::size_t t = train_length; t < series.size(); ++t) {
      model->Update(series[t]);
    }
    auto live = std::make_shared<LiveModel>();
    live->model = std::shared_ptr<const ForecastModel>(std::move(model));
    live->creation_seconds = entry->creation_seconds;
    built[i] = std::move(live);
  };
  if (ThreadPool* pool = MaintenancePool()) {
    pool->ParallelFor(model_nodes.size(), catch_up);
  } else {
    for (std::size_t i = 0; i < model_nodes.size(); ++i) catch_up(i);
  }
  for (std::size_t i = 0; i < model_nodes.size(); ++i) {
    next->models[model_nodes[i]] = std::move(built[i]);
  }

  // Install schemes; uncovered nodes fall back to their nearest model node.
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const NodeAssignment& assignment = config.assignment(node);
    if (!assignment.scheme.IsEmpty()) {
      next->schemes[node] = assignment.scheme.sources;
      continue;
    }
    NodeId best = model_nodes.front();
    std::size_t best_distance = std::numeric_limits<std::size_t>::max();
    for (NodeId m : model_nodes) {
      const std::size_t distance = graph.Distance(node, m);
      if (distance < best_distance) {
        best_distance = distance;
        best = m;
      }
    }
    next->schemes[node] = {best};
  }
  // Log the configuration before it becomes visible: a crash after the
  // append replays into this exact state (the caught-up models included),
  // a crash before it leaves the previous state — either way WAL and
  // published state agree.
  F2DB_RETURN_IF_ERROR(WalAppendLocked(
      WalRecord::Catalog(CatalogFromSnapshot(*next).SerializeToString())));
  Publish(std::move(next));
  // Conservative: plans pre-resolve against graph structure only (which a
  // configuration install never changes today), but dropping the cache on
  // every configuration-bearing install keeps that reasoning local.
  plan_cache_.Invalidate();
  return Status::OK();
}

Status F2dbEngine::LoadCatalog(const ConfigurationCatalog& catalog) {
  return LoadCatalogImpl(catalog, /*log=*/true);
}

Status F2dbEngine::LoadCatalogImpl(const ConfigurationCatalog& catalog,
                                   bool log) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  auto next = cur->CopyForWrite();
  next->models.clear();
  for (auto& scheme : next->schemes) scheme.clear();
  for (const ModelRow& row : catalog.model_table()) {
    // Per-row injection point: any row failing must abort the whole load
    // with the previous state still published (transactional contract).
    F2DB_INJECT_FAILPOINT(kFailpointCatalogDecode);
    if (row.node >= cur->graph->num_nodes()) {
      return Status::OutOfRange("model row references unknown node");
    }
    F2DB_ASSIGN_OR_RETURN(std::unique_ptr<ForecastModel> model,
                          ModelFactory::DeserializeModel(row.payload));
    auto live = std::make_shared<LiveModel>();
    live->model = std::shared_ptr<const ForecastModel>(std::move(model));
    live->creation_seconds = row.creation_seconds;
    next->models[row.node] = std::move(live);
  }
  for (const SchemeRow& row : catalog.scheme_table()) {
    if (row.target >= cur->graph->num_nodes()) {
      return Status::OutOfRange("scheme row references unknown node");
    }
    for (NodeId s : row.sources) {
      if (s >= cur->graph->num_nodes()) {
        return Status::OutOfRange("scheme source references unknown node");
      }
    }
    next->schemes[row.target] = row.sources;
  }
  // A scheme source needs either a stored model or a derivation scheme of
  // its own (the query path serves the latter through the degraded-fallback
  // ladder). Validated after both tables are installed because a source's
  // scheme row may follow the row that references it.
  for (const SchemeRow& row : catalog.scheme_table()) {
    for (NodeId s : row.sources) {
      if (next->models.count(s) == 0 && next->schemes[s].empty()) {
        return Status::InvalidArgument(
            "scheme source " + std::to_string(s) +
            " has neither a stored model nor a derivation scheme");
      }
    }
  }
  // All rows validated — log, then only now does the state become visible.
  if (log) {
    F2DB_RETURN_IF_ERROR(
        WalAppendLocked(WalRecord::Catalog(catalog.SerializeToString())));
  }
  Publish(std::move(next));
  plan_cache_.Invalidate();  // same conservative rule as LoadConfiguration
  return Status::OK();
}

ConfigurationCatalog F2dbEngine::CatalogFromSnapshot(const EngineSnapshot& snap) {
  ConfigurationCatalog catalog;
  for (NodeId node = 0; node < snap.graph->num_nodes(); ++node) {
    if (snap.schemes[node].empty()) continue;
    SchemeRow row;
    row.target = node;
    row.sources = snap.schemes[node];
    row.weight = snap.Weight(row.sources, node);
    catalog.scheme_table().push_back(std::move(row));
  }
  for (const auto& [node, live] : snap.models) {
    ModelRow row;
    row.node = node;
    row.payload = ModelFactory::SerializeModel(*live->model);
    row.creation_seconds = live->creation_seconds;
    catalog.model_table().push_back(std::move(row));
  }
  std::sort(catalog.model_table().begin(), catalog.model_table().end(),
            [](const ModelRow& a, const ModelRow& b) { return a.node < b.node; });
  return catalog;
}

Result<ConfigurationCatalog> F2dbEngine::ExportCatalog() const {
  return CatalogFromSnapshot(*LoadSnapshot());
}

Result<QueryResult> F2dbEngine::ExecuteSql(const std::string& sql) const {
  F2DB_ASSIGN_OR_RETURN(ForecastQuery query, ParseForecastQuery(sql));
  return Execute(query);
}

Status F2dbEngine::CheckQueryDeadline(const ForecastQuery& query) const {
  // Deadline gate: a query whose budget is already spent answers
  // kDeadlineExceeded before any node resolution or forecast work — dead
  // work never reaches a model.
  if (query.deadline != ForecastQuery::kNoDeadline &&
      std::chrono::steady_clock::now() >= query.deadline) {
    stats_.deadline_expired_queries.Add();
    return Status::DeadlineExceeded("query deadline expired before execution");
  }
  return Status::OK();
}

Result<QueryResult> F2dbEngine::Execute(const ForecastQuery& query) const {
  QueryResult result;
  F2DB_RETURN_IF_ERROR(ExecuteInto(query, &result));
  return result;
}

Status F2dbEngine::ExecuteInto(const ForecastQuery& query,
                               QueryResult* out) const {
  F2DB_RETURN_IF_ERROR(CheckQueryDeadline(query));
  const SnapshotPtr snap = LoadSnapshot();
  F2DB_ASSIGN_OR_RETURN(NodeId node,
                        ResolveNodeIn(*snap->graph, query.filters));
  out->node = node;
  snap->graph->NodeNameInto(node, &out->node_name);
  return ForecastIntoResult(snap, node, query, out);
}

Result<PlanPtr> F2dbEngine::ParsePlan(const std::string& sql) const {
  const std::string key = NormalizeStatementText(sql);
  if (PlanPtr cached = plan_cache_.Lookup(key)) return cached;
  auto plan = std::make_shared<CachedPlan>();
  F2DB_ASSIGN_OR_RETURN(plan->tmpl, ParseStatementTemplate(sql));
  if (plan->tmpl.statement.kind != Statement::Kind::kInsert) {
    // Pre-resolve the node unless a filter value arrives at bind time.
    // Resolution is a pure function of graph STRUCTURE, which is fixed for
    // this engine's lifetime — so the resolved id stays valid across every
    // snapshot install (the insert → refit → execute property suites pin
    // this). An unresolvable filter is a real error and fails here, at
    // PREPARE time, exactly like the unprepared path fails at QUERY time.
    bool binds_filters = false;
    for (const BindSlot& slot : plan->tmpl.slots) {
      binds_filters |= slot.kind == BindSlot::Kind::kFilterValue;
    }
    if (!binds_filters) {
      const SnapshotPtr snap = LoadSnapshot();
      F2DB_ASSIGN_OR_RETURN(
          plan->resolved_node,
          ResolveNodeIn(*snap->graph, plan->tmpl.statement.forecast.filters));
      plan->node_name = snap->graph->NodeName(plan->resolved_node);
    }
  }
  PlanPtr shared = std::move(plan);
  plan_cache_.Insert(key, shared);
  return shared;
}

Status F2dbEngine::ExecutePlanInto(const CachedPlan& plan,
                                   const ForecastQuery& query,
                                   QueryResult* out) const {
  F2DB_RETURN_IF_ERROR(CheckQueryDeadline(query));
  const SnapshotPtr snap = LoadSnapshot();
  NodeId node;
  if (plan.has_resolved_node()) {
    node = plan.resolved_node;
    out->node = node;
    out->node_name.assign(plan.node_name);  // reuses the buffer's capacity
  } else {
    F2DB_ASSIGN_OR_RETURN(node, ResolveNodeIn(*snap->graph, query.filters));
    out->node = node;
    snap->graph->NodeNameInto(node, &out->node_name);
  }
  return ForecastIntoResult(snap, node, query, out);
}

Status F2dbEngine::ForecastIntoResult(const SnapshotPtr& snap, NodeId node,
                                      const ForecastQuery& query,
                                      QueryResult* out) const {
  StopWatch watch;
  out->rows.clear();
  out->degradation = DegradationLevel::kNone;
  out->degradation_reason.clear();
  if (node >= snap->graph->num_nodes()) {
    return Status::OutOfRange("node id out of range");
  }
  const std::int64_t now = snap->graph->series(node).end_time();
  const std::size_t horizon = query.horizon;
  // A read-only engine serves queries like a brownout: refits are skipped
  // (they could not be WAL-logged anyway) and rows carry the annotation.
  const bool brownout =
      query.brownout || (wal_ != nullptr && disk_health_.read_only());

  // Hot path (EXECUTE / repeat QUERY shapes): a point query whose scheme
  // sources all carry valid models evaluates batched — each model walks
  // its state ONCE emitting every horizon into recycled per-thread
  // buffers, with no DegradedForecast/reason churn. Any degradation (or
  // the interval path) falls through to the general ladder below.
  if (!query.with_intervals) {
    const std::vector<NodeId>& sources = snap->schemes[node];
    bool all_valid = !sources.empty();
    for (NodeId source : sources) {
      const std::shared_ptr<const LiveModel> live = snap->FindModel(source);
      if (live == nullptr || live->invalid || !live->model->is_fitted()) {
        all_valid = false;
        break;
      }
    }
    if (all_valid) {
      thread_local std::vector<double> values;
      thread_local std::vector<double> source_scratch;
      if (sources.size() == 1) {
        snap->FindModel(sources[0])->model->ForecastInto(horizon, &values);
      } else {
        values.clear();
        values.resize(horizon, 0.0);
        for (NodeId source : sources) {
          snap->FindModel(source)->model->ForecastInto(horizon,
                                                       &source_scratch);
          for (std::size_t h = 0; h < horizon; ++h) {
            values[h] += source_scratch[h];
          }
        }
      }
      const double weight = snap->Weight(sources, node);
      if (out->rows.capacity() < horizon) out->rows.reserve(horizon);
      for (std::size_t h = 0; h < horizon; ++h) {
        ForecastRow row;
        row.time = now + static_cast<std::int64_t>(h);
        row.value = values[h] * weight;
        out->rows.push_back(row);
      }
      stats_.queries.Add();
      stats_.query_seconds.Add(watch.ElapsedSeconds());
      return Status::OK();
    }
  }

  if (query.with_intervals) {
    F2DB_ASSIGN_OR_RETURN(
        DegradedForecast forecast,
        ForecastInternal(snap, node, horizon, /*want_variance=*/true,
                         brownout));
    F2DB_ASSIGN_OR_RETURN(
        std::vector<ForecastInterval> intervals,
        IntervalsFromMoments(forecast.values, forecast.variances,
                             query.confidence));
    out->degradation = forecast.level;
    out->degradation_reason = std::move(forecast.reason);
    out->rows.reserve(intervals.size());
    for (std::size_t h = 0; h < intervals.size(); ++h) {
      ForecastRow row;
      row.time = now + static_cast<std::int64_t>(h);
      row.value = intervals[h].point;
      row.lower = intervals[h].lower;
      row.upper = intervals[h].upper;
      row.has_interval = true;
      row.degradation = out->degradation;
      out->rows.push_back(row);
    }
  } else {
    F2DB_ASSIGN_OR_RETURN(
        DegradedForecast forecast,
        ForecastInternal(snap, node, horizon, /*want_variance=*/false,
                         brownout));
    out->degradation = forecast.level;
    out->degradation_reason = std::move(forecast.reason);
    out->rows.reserve(forecast.values.size());
    for (std::size_t h = 0; h < forecast.values.size(); ++h) {
      ForecastRow row;
      row.time = now + static_cast<std::int64_t>(h);
      row.value = forecast.values[h];
      row.degradation = out->degradation;
      out->rows.push_back(row);
    }
  }
  CountDegradedRows(out->degradation, out->rows.size());
  stats_.queries.Add();
  stats_.query_seconds.Add(watch.ElapsedSeconds());
  return Status::OK();
}

Result<ExplainResult> F2dbEngine::Explain(const ForecastQuery& query) const {
  const SnapshotPtr snap = LoadSnapshot();
  F2DB_ASSIGN_OR_RETURN(NodeId node, ResolveNodeIn(*snap->graph, query.filters));
  ExplainResult out;
  out.node = node;
  out.node_name = snap->graph->NodeName(node);
  out.sources = snap->schemes[node];
  out.weight = snap->Weight(out.sources, node);
  out.horizon = query.horizon;
  for (NodeId source : out.sources) {
    const std::shared_ptr<const LiveModel> live = snap->FindModel(source);
    std::string description = "node " + std::to_string(source) + " (" +
                              snap->graph->NodeName(source) + "): ";
    if (live == nullptr) {
      description += "<missing model>";
    } else {
      description += ModelTypeName(live->model->type());
      description +=
          ", " + std::to_string(live->model->num_parameters()) + " params";
      if (live->invalid) description += ", INVALID (lazy re-estimate)";
      if (live->quarantined) {
        description += ", QUARANTINED (" +
                       std::to_string(live->refit_failures) +
                       " refit failures)";
      }
    }
    out.source_models.push_back(std::move(description));
  }
  return out;
}

Result<std::string> F2dbEngine::ExecuteStatementText(const std::string& sql) {
  F2DB_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  std::string out;
  char buffer[160];
  switch (statement.kind) {
    case Statement::Kind::kForecast: {
      F2DB_ASSIGN_OR_RETURN(QueryResult result, Execute(statement.forecast));
      out = "-- node: " + graph().NodeName(result.node) + "\n";
      if (result.degradation != DegradationLevel::kNone) {
        out += "-- degraded: " +
               std::string(DegradationLevelName(result.degradation)) + " (" +
               result.degradation_reason + ")\n";
      }
      for (const ForecastRow& row : result.rows) {
        if (row.has_interval) {
          std::snprintf(buffer, sizeof(buffer), "%lld | %.4f  [%.4f, %.4f]\n",
                        static_cast<long long>(row.time), row.value, row.lower,
                        row.upper);
        } else {
          std::snprintf(buffer, sizeof(buffer), "%lld | %.4f\n",
                        static_cast<long long>(row.time), row.value);
        }
        out += buffer;
      }
      break;
    }
    case Statement::Kind::kInsert: {
      F2DB_RETURN_IF_ERROR(InsertFact(statement.insert.base_values,
                                      statement.insert.time,
                                      statement.insert.value));
      std::snprintf(buffer, sizeof(buffer),
                    "INSERT ok (%zu buffered, %zu advances)\n",
                    pending_inserts(), stats_.time_advances.Load());
      out = buffer;
      break;
    }
    case Statement::Kind::kExplain: {
      F2DB_ASSIGN_OR_RETURN(ExplainResult plan, Explain(statement.forecast));
      out = "Forecast Query Plan\n";
      out += "  node:    " + plan.node_name + " (#" +
             std::to_string(plan.node) + ")\n";
      out += "  horizon: " + std::to_string(plan.horizon) + "\n";
      std::snprintf(buffer, sizeof(buffer), "  weight:  %.6f\n", plan.weight);
      out += buffer;
      out += "  scheme:  " +
             std::string(plan.sources.size() == 1 &&
                                 plan.sources[0] == plan.node
                             ? "direct"
                             : (plan.sources.size() == 1 ? "derivation"
                                                         : "multi-source")) +
             " from " + std::to_string(plan.sources.size()) + " model(s)\n";
      for (const std::string& m : plan.source_models) {
        out += "    " + m + "\n";
      }
      break;
    }
  }
  return out;
}

Result<NodeId> F2dbEngine::ResolveNode(
    const std::vector<DimensionFilter>& filters) const {
  const SnapshotPtr snap = LoadSnapshot();
  return ResolveNodeIn(*snap->graph, filters);
}

Result<std::vector<double>> F2dbEngine::ForecastNode(NodeId node,
                                                     std::size_t horizon) const {
  return ForecastNode(LoadSnapshot(), node, horizon);
}

Result<std::vector<double>> F2dbEngine::ForecastNode(
    const SnapshotPtr& snapshot, NodeId node, std::size_t horizon) const {
  StopWatch watch;
  F2DB_ASSIGN_OR_RETURN(
      DegradedForecast forecast,
      ForecastInternal(snapshot, node, horizon, /*want_variance=*/false));
  CountDegradedRows(forecast.level, forecast.values.size());
  stats_.queries.Add();
  stats_.query_seconds.Add(watch.ElapsedSeconds());
  return std::move(forecast.values);
}

Result<std::vector<ForecastInterval>> F2dbEngine::ForecastNodeWithIntervals(
    NodeId node, std::size_t horizon, double confidence) const {
  StopWatch watch;
  const SnapshotPtr snap = LoadSnapshot();
  F2DB_ASSIGN_OR_RETURN(
      DegradedForecast forecast,
      ForecastInternal(snap, node, horizon, /*want_variance=*/true));
  F2DB_ASSIGN_OR_RETURN(
      std::vector<ForecastInterval> intervals,
      IntervalsFromMoments(forecast.values, forecast.variances, confidence));
  CountDegradedRows(forecast.level, intervals.size());
  stats_.queries.Add();
  stats_.query_seconds.Add(watch.ElapsedSeconds());
  return intervals;
}

Result<DegradedForecast> F2dbEngine::ForecastInternal(
    const SnapshotPtr& snapshot, NodeId node, std::size_t horizon,
    bool want_variance, bool brownout) const {
  if (node >= snapshot->graph->num_nodes()) {
    return Status::OutOfRange("node id out of range");
  }
  return CombineScheme(snapshot, node, horizon, want_variance, brownout,
                       /*depth=*/0);
}

Result<DegradedForecast> F2dbEngine::CombineScheme(const SnapshotPtr& snapshot,
                                                   NodeId node,
                                                   std::size_t horizon,
                                                   bool want_variance,
                                                   bool brownout,
                                                   std::size_t depth) const {
  const std::vector<NodeId>& sources = snapshot->schemes[node];
  if (sources.empty()) {
    return Status::FailedPrecondition("no derivation scheme stored for node " +
                                      snapshot->graph->NodeName(node));
  }
  DegradedForecast out;
  out.values.assign(horizon, 0.0);
  if (want_variance) out.variances.assign(horizon, 0.0);
  for (NodeId source : sources) {
    F2DB_ASSIGN_OR_RETURN(
        DegradedForecast from_source,
        ForecastSource(snapshot, source, horizon, want_variance, brownout,
                       depth));
    for (std::size_t h = 0; h < horizon; ++h) {
      out.values[h] += from_source.values[h];
      if (want_variance) out.variances[h] += from_source.variances[h];
    }
    // Report the worst rung any source had to fall to.
    if (from_source.level > out.level) {
      out.level = from_source.level;
      out.reason = std::move(from_source.reason);
    }
  }
  const double weight = snapshot->Weight(sources, node);
  for (std::size_t h = 0; h < horizon; ++h) {
    out.values[h] *= weight;
    if (want_variance) out.variances[h] *= weight * weight;
  }
  return out;
}

Result<DegradedForecast> F2dbEngine::ForecastSource(const SnapshotPtr& snapshot,
                                                    NodeId source,
                                                    std::size_t horizon,
                                                    bool want_variance,
                                                    bool brownout,
                                                    std::size_t depth) const {
  const std::shared_ptr<const LiveModel> live = snapshot->FindModel(source);

  // Primary path: a valid published model.
  if (live != nullptr && !live->invalid) {
    return ForecastFromModel(*live->model, source, horizon, want_variance,
                             DegradationLevel::kNone, "");
  }

  std::string reason;
  if (live == nullptr) {
    // Previously a hard kInternal; now the first rung of the ladder.
    reason = "scheme source " + std::to_string(source) + " lost its model";
  } else {
    // Invalid entry: lazy re-estimation, copy-on-write — fit a fresh clone
    // on this snapshot's full stored history. The published (invalid)
    // entry is never mutated, so concurrent readers of `snapshot` are
    // unaffected. Quarantined or backing-off nodes skip the attempt, and
    // so do brownout queries: re-estimation is the expensive step the
    // serving layer sheds first under overload.
    if (brownout) {
      stats_.brownout_refits_skipped.Add();
      reason = "node " + std::to_string(source) +
               " re-estimation skipped under brownout";
    } else if (RefitAllowed(*live)) {
      StopWatch watch;
      std::unique_ptr<ForecastModel> refit = live->model->Clone();
      const Status fitted =
          failpoint::Triggered(kFailpointEngineRefit)
              ? failpoint::InjectedFailure(kFailpointEngineRefit)
              : refit->Fit(snapshot->graph->series(source));
      if (fitted.ok()) {
        auto fresh = std::make_shared<LiveModel>();
        fresh->model = std::shared_ptr<const ForecastModel>(std::move(refit));
        fresh->creation_seconds = live->creation_seconds;
        stats_.reestimates.Add();
        stats_.maintenance_seconds.Add(watch.ElapsedSeconds());
        const std::shared_ptr<const ForecastModel> model = fresh->model;
        OfferReestimate(source, live, std::move(fresh));
        return ForecastFromModel(*model, source, horizon, want_variance,
                                 DegradationLevel::kNone, "");
      }
      stats_.refit_failures.Add();
      OfferRefitFailure(source, live);
      reason = "re-estimation of node " + std::to_string(source) +
               " failed: " + fitted.message();
    } else if (live->quarantined) {
      reason = "node " + std::to_string(source) + " quarantined after " +
               std::to_string(live->refit_failures) +
               " failed re-estimations";
    } else {
      reason = "node " + std::to_string(source) +
               " inside re-estimation retry backoff";
    }

    // Rung 1: the stale pre-invalidation model. Its parameters are out of
    // date but its state was advanced through every insert, so it still
    // produces a usable forecast for this snapshot's frontier.
    if (live->model != nullptr && live->model->is_fitted()) {
      return ForecastFromModel(*live->model, source, horizon, want_variance,
                               DegradationLevel::kStaleModel,
                               reason + "; serving stale model");
    }
  }

  // Rung 2: recompute the source through its OWN stored derivation scheme
  // (bounded recursion; schemes that reference the source itself cannot
  // help and are skipped).
  if (depth < kMaxDerivationDepth) {
    const std::vector<NodeId>& scheme = snapshot->schemes[source];
    const bool refers_self =
        std::find(scheme.begin(), scheme.end(), source) != scheme.end();
    if (!scheme.empty() && !refers_self) {
      Result<DegradedForecast> derived =
          CombineScheme(snapshot, source, horizon, want_variance, brownout,
                        depth + 1);
      if (derived.ok()) {
        DegradedForecast out = std::move(derived).value();
        out.level = std::max(out.level, DegradationLevel::kDerivedFallback);
        out.reason = reason + "; served via the node's derivation scheme";
        return out;
      }
    }
  }

  // Rung 3: a drift model fit on the snapshot's stored history — always
  // cheap, needs no stored model, and supports variances.
  DriftModel drift;
  const Status drift_fitted = drift.Fit(snapshot->graph->series(source));
  if (drift_fitted.ok()) {
    return ForecastFromModel(drift, source, horizon, want_variance,
                             DegradationLevel::kNaiveFallback,
                             reason + "; serving naive drift fallback");
  }

  return Status::Unavailable("forecast unavailable for node " +
                             std::to_string(source) + ": " + reason +
                             "; drift fallback failed: " +
                             drift_fitted.message());
}

bool F2dbEngine::RefitAllowed(const LiveModel& live) const {
  if (live.quarantined) return false;
  if (live.refit_failures == 0) return true;
  if (options_.refit_retry_backoff_seconds <= 0.0) return true;
  const std::size_t exponent =
      std::min<std::size_t>(live.refit_failures - 1, 30);
  const double wait = options_.refit_retry_backoff_seconds *
                      static_cast<double>(std::size_t{1} << exponent);
  return uptime_.ElapsedSeconds() >= live.last_refit_attempt_seconds + wait;
}

void F2dbEngine::CountDegradedRows(DegradationLevel level,
                                   std::size_t rows) const {
  switch (level) {
    case DegradationLevel::kNone:
      break;
    case DegradationLevel::kStaleModel:
      stats_.degraded_rows_stale.Add(rows);
      break;
    case DegradationLevel::kDerivedFallback:
      stats_.degraded_rows_derived.Add(rows);
      break;
    case DegradationLevel::kNaiveFallback:
      stats_.degraded_rows_naive.Add(rows);
      break;
    case DegradationLevel::kUnavailable:
      break;  // surfaced as a status, never as rows
  }
}

void F2dbEngine::OfferReestimate(
    NodeId node, const std::shared_ptr<const LiveModel>& expected,
    std::shared_ptr<const LiveModel> fresh) const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  // Install only when the entry is still the one the refit started from;
  // if maintenance advanced the model meanwhile, the refit is stale for
  // the current state (but remains correct for the reader's snapshot).
  const auto it = cur->models.find(node);
  if (it == cur->models.end() || it->second != expected) return;
  // Log before publishing. If the append fails the refit simply is not
  // installed (the caller still serves its result once) — a degradation,
  // never a divergence between the log and the published state.
  if (!WalAppendLocked(
           WalRecord::ModelInstall(node, fresh->creation_seconds,
                                   ModelFactory::SerializeModel(*fresh->model)))
           .ok()) {
    return;
  }
  auto next = cur->CopyForWrite();
  next->models[node] = std::move(fresh);
  Publish(std::move(next));
}

void F2dbEngine::OfferRefitFailure(
    NodeId node, const std::shared_ptr<const LiveModel>& expected) const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  // Same identity check as OfferReestimate: record the failure only
  // against the entry the attempt actually ran on. If maintenance (or a
  // concurrent query's failure record) replaced it, this attempt's
  // outcome no longer describes the published state.
  const auto it = cur->models.find(node);
  if (it == cur->models.end() || it->second != expected) return;
  auto updated = std::make_shared<LiveModel>(*expected);
  updated->refit_failures = expected->refit_failures + 1;
  updated->last_refit_attempt_seconds = uptime_.ElapsedSeconds();
  if (options_.quarantine_after_refit_failures > 0 &&
      updated->refit_failures >= options_.quarantine_after_refit_failures &&
      !updated->quarantined) {
    // The quarantine TRANSITION is durable (plain failure-count bumps are
    // not: they reset to the last logged transition on recovery, which
    // only makes post-crash refits retry sooner). An append failure skips
    // the whole publication; the state stays unchanged and a later
    // attempt retries the transition.
    if (!WalAppendLocked(
             WalRecord::Quarantine(node, updated->refit_failures))
             .ok()) {
      return;
    }
    updated->quarantined = true;
    stats_.quarantines.Add();
  }
  auto next = cur->CopyForWrite();
  next->models[node] = std::move(updated);
  Publish(std::move(next));
}

Status F2dbEngine::InsertFact(const std::vector<std::string>& base_values,
                              std::int64_t time, double value) {
  const SnapshotPtr snap = LoadSnapshot();
  const CubeSchema& schema = snap->graph->schema();
  if (base_values.size() != schema.num_dimensions()) {
    return Status::InvalidArgument("need one level-0 value per dimension");
  }
  NodeAddress address;
  address.coords.resize(schema.num_dimensions());
  for (std::size_t d = 0; d < schema.num_dimensions(); ++d) {
    F2DB_ASSIGN_OR_RETURN(ValueIndex v,
                          schema.hierarchy(d).FindValue(0, base_values[d]));
    address.coords[d] = {0, v};
  }
  F2DB_ASSIGN_OR_RETURN(NodeId node, snap->graph->NodeFor(address));
  return InsertFact(node, time, value);
}

Status F2dbEngine::InsertFact(NodeId base_node, std::int64_t time,
                              double value) {
  F2DB_INJECT_FAILPOINT(kFailpointEngineInsert);
  if (wal_ == nullptr) {
    return InsertFactImpl(base_node, time, value, /*log=*/true);
  }
  if (disk_health_.read_only()) return ReadOnlyRejection();

  Status status = InsertFactImpl(base_node, time, value, /*log=*/true);
  if (status.ok()) {
    disk_health_.RecordSuccess();
    return status;
  }
  // Only statuses carrying an fsio errno marker are disk trouble;
  // validation refusals and failpoint injections pass through untouched.
  int err = storage::ErrnoFromStatus(status);
  if (err == 0) return status;

  // Bounded in-line retry with linear backoff, off the writer lock — a
  // failed append buffered nothing, so the re-run is a clean insert.
  for (std::size_t attempt = 1; attempt <= options_.disk_retry_attempts;
       ++attempt) {
    disk_health_.RecordRetry();
    if (options_.disk_retry_backoff_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.disk_retry_backoff_ms * static_cast<double>(attempt)));
    }
    status = InsertFactImpl(base_node, time, value, /*log=*/true);
    if (status.ok()) {
      disk_health_.RecordSuccess();
      return status;
    }
    err = storage::ErrnoFromStatus(status);
    if (err == 0) return status;
  }

  // A full disk may be self-inflicted: spend the one-shot emergency
  // retention pass (CompactNow phase C reclaims aged sealed history)
  // before giving up on this insert.
  if (err == ENOSPC && options_.retention_window > 0 &&
      disk_health_.TakeEmergencyRetentionToken()) {
    stats_.emergency_retentions.Add();
    (void)CompactNow();  // best effort; its failures classify below
    status = InsertFactImpl(base_node, time, value, /*log=*/true);
    if (status.ok()) {
      disk_health_.RecordSuccess();
      return status;
    }
    err = storage::ErrnoFromStatus(status);
    if (err == 0) return status;
  }

  if (disk_health_.RecordFailure(err) == DiskHealthState::kReadOnly) {
    F2DB_LOG(kError) << "disk failure streak crossed threshold; engine is "
                        "read-only until the health probe succeeds: "
                     << status.message();
    return ReadOnlyRejection();
  }
  return status;
}

Status F2dbEngine::ReadOnlyRejection() const {
  const auto hint = static_cast<long long>(
      std::max(0.0, options_.read_only_retry_after_ms));
  return Status::Unavailable(
      "retry-after-ms=" + std::to_string(hint) +
      "; engine is read-only: disk unhealthy, writes resume after the "
      "health probe succeeds");
}

Status F2dbEngine::InsertFactImpl(NodeId base_node, std::int64_t time,
                                  double value, bool log) {
  // NaN/Inf would silently poison every aggregate above this cell and the
  // CSS/SSE recursions of every model that later updates on it.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument(
        "non-finite fact value for node " + std::to_string(base_node) +
        " at time " + std::to_string(time));
  }
  StopWatch watch;
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  const auto slot = base_slot_.find(base_node);
  if (slot == base_slot_.end()) {
    return Status::InvalidArgument("not a base node: " +
                                   std::to_string(base_node));
  }
  const std::int64_t frontier =
      cur->graph->series(cur->graph->base_nodes()[0]).end_time();
  if (time < frontier) {
    return Status::OutOfRange("insert at time " + std::to_string(time) +
                              " is behind the stored frontier " +
                              std::to_string(frontier));
  }
  const auto existing = pending_.find(time);
  if (existing != pending_.end() &&
      existing->second[slot->second].has_value()) {
    return Status::AlreadyExists("duplicate insert for node " +
                                 cur->graph->NodeName(base_node) +
                                 " at time " + std::to_string(time));
  }
  // Every validation has passed: log, then mutate. A failed append (full
  // disk, failed fsync) rejects the insert with NOTHING buffered — the
  // WAL writer rolled its bytes back, so the caller's error and a future
  // recovery agree the fact does not exist.
  if (log) {
    F2DB_RETURN_IF_ERROR(
        WalAppendLocked(WalRecord::Insert(base_node, time, value)));
  }
  auto& batch = pending_[time];
  if (batch.empty()) batch.resize(cur->graph->num_base_nodes());
  batch[slot->second] = value;
  stats_.inserts.Add();
  const Status advanced = AdvanceWhileCompleteLocked();
  stats_.maintenance_seconds.Add(watch.ElapsedSeconds());
  return advanced;
}

std::size_t F2dbEngine::pending_inserts() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  std::size_t count = 0;
  for (const auto& [time, batch] : pending_) {
    for (const auto& v : batch) {
      if (v.has_value()) ++count;
    }
  }
  return count;
}

Status F2dbEngine::AdvanceWhileCompleteLocked() {
  const SnapshotPtr cur = LoadSnapshot();

  /// Writer-private clone of one model, advanced in place across the
  /// batched advances of this call and frozen into the next snapshot.
  struct PendingModel {
    NodeId node = 0;
    std::unique_ptr<ForecastModel> model;
    double creation_seconds = 0.0;
    bool invalid = false;
    std::size_t updates_since_estimate = 0;
  };

  std::shared_ptr<EngineSnapshot> next;     // successor under construction
  std::shared_ptr<TimeSeriesGraph> graph;   // writable copy of the data
  std::vector<PendingModel> models;
  std::size_t advances = 0;

  for (;;) {
    const TimeSeriesGraph& view = graph ? *graph : *cur->graph;
    const std::int64_t frontier =
        view.series(view.base_nodes()[0]).end_time();
    const auto it = pending_.find(frontier);
    if (it == pending_.end()) break;
    const auto& batch = it->second;
    const bool complete =
        std::all_of(batch.begin(), batch.end(),
                    [](const std::optional<double>& v) { return v.has_value(); });
    if (!complete) break;

    if (!next) {
      // First complete batch: start the copy-on-write successor. The graph
      // data is deep-copied once per publication, models are cloned once
      // and advanced privately.
      next = cur->CopyForWrite();
      graph = std::make_shared<TimeSeriesGraph>(*cur->graph);
      models.reserve(cur->models.size());
      for (const auto& [node, live] : cur->models) {
        PendingModel pending;
        pending.node = node;
        pending.model = live->model->Clone();
        pending.creation_seconds = live->creation_seconds;
        pending.invalid = live->invalid;
        pending.updates_since_estimate = live->updates_since_estimate;
        models.push_back(std::move(pending));
      }
    }

    // Advance the whole graph by one period (batched inserts, Section V).
    std::vector<double> values(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) values[i] = *batch[i];
    pending_.erase(it);
    F2DB_RETURN_IF_ERROR(graph->AdvanceTime(values));
    ++advances;

    // Incremental maintenance: history sums and model states. The model
    // updates are independent per model and fan out across the pool.
    for (NodeId node = 0; node < graph->num_nodes(); ++node) {
      const TimeSeries& series = graph->series(node);
      next->history_sums[node] += series[series.size() - 1];
    }
    const auto update_one = [&](std::size_t i) {
      PendingModel& pending = models[i];
      const TimeSeries& series = graph->series(pending.node);
      pending.model->Update(series[series.size() - 1]);
      ++pending.updates_since_estimate;
      if (options_.reestimate_after_updates > 0 &&
          pending.updates_since_estimate >= options_.reestimate_after_updates) {
        pending.invalid = true;  // re-estimated lazily on next query reference
      }
    };
    if (ThreadPool* pool = MaintenancePool()) {
      pool->ParallelFor(models.size(), update_one);
    } else {
      for (std::size_t i = 0; i < models.size(); ++i) update_one(i);
    }
  }

  if (advances == 0) return Status::OK();
  for (PendingModel& pending : models) {
    auto live = std::make_shared<LiveModel>();
    live->model = std::shared_ptr<const ForecastModel>(std::move(pending.model));
    live->creation_seconds = pending.creation_seconds;
    live->invalid = pending.invalid;
    live->updates_since_estimate = pending.updates_since_estimate;
    // Quarantine ends on data advance by construction: the fresh entries
    // keep the default refit_failures = 0 / quarantined = false, so the
    // next query referencing an invalid model retries the fit against the
    // new history.
    next->models[pending.node] = std::move(live);
  }
  next->graph = std::move(graph);
  stats_.time_advances.Add(advances);
  Publish(std::move(next));
  return Status::OK();
}

// --------------------------------------------------- durability internals

Status F2dbEngine::WalAppendLocked(const WalRecord& record) const {
  if (!wal_) return Status::OK();  // in-memory engine: nothing to log
  if (!wal_->open()) {
    return Status::Unavailable(
        "WAL writer is broken (an earlier fsync rollback failed); "
        "mutations are refused until the engine is reopened");
  }
  const std::uint64_t before = wal_->bytes_appended();
  F2DB_RETURN_IF_ERROR(wal_->Append(record));
  stats_.wal_records.Add();
  stats_.wal_bytes.Add(static_cast<std::size_t>(wal_->bytes_appended() - before));
  return Status::OK();
}

Status F2dbEngine::ApplyCheckpointState(CheckpointState&& state,
                                        const storage::ManifestData* manifest) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();

  // Replace the base fact data wholesale and rebuild the aggregates
  // bottom-up — BuildAggregates and AdvanceTime share the same child
  // summation order, so the rebuilt aggregates are bit-identical to what
  // the pre-crash process computed incrementally.
  auto graph = std::make_shared<TimeSeriesGraph>(*cur->graph);
  for (auto& [node, values] : state.base_series) {
    if (node >= graph->num_nodes()) {
      return Status::Internal("checkpoint references unknown base node " +
                              std::to_string(node));
    }
    F2DB_RETURN_IF_ERROR(graph->SetBaseSeries(
        node, TimeSeries(std::move(values), state.base_start_time)));
  }
  F2DB_RETURN_IF_ERROR(graph->BuildAggregates());

  auto next = cur->CopyForWrite();
  next->graph = graph;
  for (NodeId node = 0; node < graph->num_nodes(); ++node) {
    next->history_sums[node] = graph->series(node).Sum();
  }
  // The checkpointed series start where retention left them: the sums of
  // the forgotten prefix live in the manifest's offsets and must be folded
  // back in so derivation weights stay exact.
  if (manifest != nullptr && !manifest->offsets.empty()) {
    std::vector<double> base_offsets(graph->num_base_nodes(), 0.0);
    for (const auto& [node, offset] : manifest->offsets) {
      const auto slot = base_slot_.find(node);
      if (slot == base_slot_.end()) {
        return Status::Internal(
            "manifest offset references non-base node " +
            std::to_string(node));
      }
      base_offsets[slot->second] = offset;
    }
    F2DB_ASSIGN_OR_RETURN(std::vector<double> node_offsets,
                          graph->AggregateBaseScalars(base_offsets));
    for (NodeId node = 0; node < graph->num_nodes(); ++node) {
      next->history_sums[node] += node_offsets[node];
    }
  }
  for (auto& scheme : next->schemes) scheme.clear();
  for (auto& [target, sources] : state.schemes) {
    if (target >= graph->num_nodes()) {
      return Status::Internal("checkpoint scheme references unknown node " +
                              std::to_string(target));
    }
    next->schemes[target] = std::move(sources);
  }
  next->models.clear();
  for (CheckpointModel& model : state.models) {
    if (model.node >= graph->num_nodes()) {
      return Status::Internal("checkpoint model references unknown node " +
                              std::to_string(model.node));
    }
    F2DB_ASSIGN_OR_RETURN(std::unique_ptr<ForecastModel> restored,
                          ModelFactory::DeserializeModel(model.payload));
    auto live = std::make_shared<LiveModel>();
    live->model = std::shared_ptr<const ForecastModel>(std::move(restored));
    live->creation_seconds = model.creation_seconds;
    live->invalid = model.invalid;
    live->updates_since_estimate = model.updates_since_estimate;
    live->refit_failures = model.refit_failures;
    live->quarantined = model.quarantined;
    next->models[model.node] = std::move(live);
  }

  pending_.clear();
  for (const auto& [time, slot, value] : state.pending) {
    auto& batch = pending_[time];
    if (batch.empty()) batch.resize(graph->num_base_nodes());
    if (slot >= batch.size()) {
      return Status::Internal("checkpoint pending slot out of range");
    }
    batch[slot] = value;
  }

  // Restore the maintenance counters so post-recovery stats continue the
  // pre-crash process's sequence (WAL replay then stacks on top).
  stats_.inserts.Add(state.inserts);
  stats_.time_advances.Add(state.time_advances);
  stats_.reestimates.Add(state.reestimates);
  stats_.quarantines.Add(state.quarantines);
  stats_.refit_failures.Add(state.refit_failures);

  Publish(std::move(next));
  return Status::OK();
}

Status F2dbEngine::ApplyWalRecord(const WalRecord& record) {
  switch (record.kind) {
    case WalRecord::Kind::kInsert: {
      const Status applied = InsertFactImpl(record.node, record.time,
                                            record.value, /*log=*/false);
      // Compaction rewrites the pending inserts into the fresh epoch; a
      // crash between the WAL rotation and the manifest commit leaves both
      // the original record (in a still-undeleted old epoch) and the
      // rewritten copy on disk. Replay applies the first occurrence and
      // skips the duplicate — as AlreadyExists when the batch is still
      // pending, as OutOfRange when it already advanced the frontier.
      if (applied.code() == StatusCode::kAlreadyExists ||
          applied.code() == StatusCode::kOutOfRange) {
        return Status::OK();
      }
      return applied;
    }
    case WalRecord::Kind::kCatalog: {
      ConfigurationCatalog catalog;
      F2DB_RETURN_IF_ERROR(catalog.ParseFromString(record.payload));
      return LoadCatalogImpl(catalog, /*log=*/false);
    }
    case WalRecord::Kind::kModelInstall: {
      F2DB_ASSIGN_OR_RETURN(std::unique_ptr<ForecastModel> model,
                            ModelFactory::DeserializeModel(record.payload));
      std::lock_guard<std::mutex> lock(writer_mutex_);
      const SnapshotPtr cur = LoadSnapshot();
      if (record.node >= cur->graph->num_nodes()) {
        return Status::Internal("model install references unknown node " +
                                std::to_string(record.node));
      }
      auto live = std::make_shared<LiveModel>();
      live->model = std::shared_ptr<const ForecastModel>(std::move(model));
      live->creation_seconds = record.value;
      auto next = cur->CopyForWrite();
      next->models[record.node] = std::move(live);
      Publish(std::move(next));
      return Status::OK();
    }
    case WalRecord::Kind::kQuarantine: {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      const SnapshotPtr cur = LoadSnapshot();
      const auto it = cur->models.find(record.node);
      // A later record may have replaced the entry the transition applied
      // to (catalog reload); the transition is then moot.
      if (it == cur->models.end()) return Status::OK();
      auto updated = std::make_shared<LiveModel>(*it->second);
      updated->refit_failures = record.count;
      updated->quarantined = true;
      auto next = cur->CopyForWrite();
      next->models[record.node] = std::move(updated);
      Publish(std::move(next));
      stats_.quarantines.Add();
      return Status::OK();
    }
  }
  return Status::Internal("unknown WAL record kind " +
                          std::to_string(static_cast<int>(record.kind)));
}

CheckpointState F2dbEngine::BuildCheckpointStateLocked(
    const SnapshotPtr& snap, std::uint64_t wal_epoch) const {
  CheckpointState state;
  state.wal_epoch = wal_epoch;
  state.inserts = stats_.inserts.Load();
  state.time_advances = stats_.time_advances.Load();
  state.reestimates = stats_.reestimates.Load();
  state.quarantines = stats_.quarantines.Load();
  state.refit_failures = stats_.refit_failures.Load();

  const TimeSeriesGraph& graph = *snap->graph;
  if (graph.num_base_nodes() > 0) {
    state.base_start_time = graph.series(graph.base_nodes()[0]).start_time();
  }
  state.base_series.reserve(graph.num_base_nodes());
  for (NodeId node : graph.base_nodes()) {
    state.base_series.emplace_back(node, graph.series(node).values());
  }
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    if (!snap->schemes[node].empty()) {
      state.schemes.emplace_back(node, snap->schemes[node]);
    }
  }
  state.models.reserve(snap->models.size());
  for (const auto& [node, live] : snap->models) {
    CheckpointModel model;
    model.node = node;
    model.invalid = live->invalid;
    model.updates_since_estimate = live->updates_since_estimate;
    model.refit_failures = live->refit_failures;
    model.quarantined = live->quarantined;
    model.creation_seconds = live->creation_seconds;
    model.payload = ModelFactory::SerializeModel(*live->model);
    state.models.push_back(std::move(model));
  }
  std::sort(state.models.begin(), state.models.end(),
            [](const CheckpointModel& a, const CheckpointModel& b) {
              return a.node < b.node;
            });
  for (const auto& [time, batch] : pending_) {
    for (std::size_t slot = 0; slot < batch.size(); ++slot) {
      if (batch[slot].has_value()) {
        state.pending.emplace_back(time, slot, *batch[slot]);
      }
    }
  }
  return state;
}

Status F2dbEngine::CheckpointNow() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "checkpoint requires a durable engine (open with a data_dir)");
  }
  // Exclude whole compactions (ordered before writer_mutex_): without
  // this, a checkpoint could snapshot the still-undropped series between
  // a retention manifest commit and the in-memory drop — recovery would
  // then add the pruned offsets to the full series sum, double-counting
  // the retained prefix in every derivation weight.
  std::lock_guard<std::mutex> serial(compaction_serial_mutex_);
  CheckpointState state;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    if (!wal_->open()) {
      stats_.checkpoint_failures.Add();
      return Status::Unavailable("WAL writer is broken; cannot rotate");
    }
    // Rotate first: everything logged so far lands in segments the
    // checkpoint will cover, everything after this point lands in the new
    // epoch the checkpoint tells recovery to replay. Rotation failure
    // aborts the checkpoint with the old writer still active.
    F2DB_RETURN_IF_ERROR(wal_->Sync());
    auto rotated =
        WalWriter::Create(options_.data_dir, wal_->epoch() + 1,
                          options_.fsync_policy, options_.wal_batch_records);
    if (!rotated.ok()) {
      stats_.checkpoint_failures.Add();
      RecordDiskOutcome(rotated.status());
      return rotated.status();
    }
    wal_->Close();
    *wal_ = std::move(rotated.value());
    state = BuildCheckpointStateLocked(LoadSnapshot(), wal_->epoch());
  }
  // Serialization and IO run OFF the writer lock: the state references
  // only copies and the immutable pinned snapshot, so maintenance and
  // queries proceed while the checkpoint hits disk.
  const Status written = WriteCheckpoint(options_.data_dir, state);
  if (!written.ok()) {
    // Both the old checkpoint and every WAL segment survive; recovery
    // replays across the epoch boundary as if no checkpoint was attempted.
    stats_.checkpoint_failures.Add();
    RecordDiskOutcome(written);
    return written;
  }
  // The checkpoint is durable — segments below its epoch are redundant.
  // A failed unlink merely leaves a stale segment for the next recovery
  // (or checkpoint) to clean up.
  auto epochs = ListWalEpochs(options_.data_dir);
  if (epochs.ok()) {
    for (const std::uint64_t epoch : epochs.value()) {
      if (epoch < state.wal_epoch) {
        ::unlink(WalPath(options_.data_dir, epoch).c_str());
      }
    }
  }
  stats_.checkpoints_completed.Add();
  last_checkpoint_seconds_.store(uptime_.ElapsedSeconds(),
                                 std::memory_order_relaxed);
  return Status::OK();
}

void F2dbEngine::MaintenanceLoop(const MaintenanceTask& task) {
  const auto interval = std::chrono::duration<double>(task.interval_seconds);
  std::unique_lock<std::mutex> lock(checkpoint_mutex_);
  while (!stopping_) {
    if (checkpoint_cv_.wait_for(lock, interval,
                                [this] { return stopping_; })) {
      break;
    }
    // Checkpoints, compactions and scrubs park while read-only: their
    // writes would only churn the failing device, and the probe, which
    // runs only then, owns recovery.
    if (disk_health_.read_only() != task.runs_while_read_only) continue;
    lock.unlock();
    const Status status = task.task();
    if (!status.ok() && task.name != nullptr) {
      F2DB_LOG(kWarning) << "background " << task.name
                         << " failed: " << status.message();
    }
    lock.lock();
  }
}

// ------------------------------------------------------ storage lifecycle

Status F2dbEngine::ApplySegmentState(const storage::ManifestData& manifest,
                                     std::vector<storage::SegmentData>&& chain) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const SnapshotPtr cur = LoadSnapshot();
  auto graph = std::make_shared<TimeSeriesGraph>(*cur->graph);

  if (!chain.empty()) {
    // Bulk load: concatenate each base series across the (validated,
    // contiguous) chain, install it wholesale, and rebuild every
    // aggregate once — instead of re-running maintenance per record.
    const std::size_t num_series = chain.front().series.size();
    if (num_series != graph->num_base_nodes()) {
      return Status::Internal(
          "segment chain holds " + std::to_string(num_series) +
          " series but the cube has " +
          std::to_string(graph->num_base_nodes()) + " base nodes");
    }
    const std::int64_t start = chain.front().start_time;
    for (std::size_t s = 0; s < num_series; ++s) {
      const NodeId node = chain.front().series[s].node;
      if (node >= graph->num_nodes()) {
        return Status::Internal("segment references unknown node " +
                                std::to_string(node));
      }
      std::size_t total = 0;
      for (const storage::SegmentData& segment : chain) {
        total += segment.series[s].values.size();
      }
      std::vector<double> values;
      values.reserve(total);
      for (const storage::SegmentData& segment : chain) {
        values.insert(values.end(), segment.series[s].values.begin(),
                      segment.series[s].values.end());
      }
      F2DB_RETURN_IF_ERROR(
          graph->SetBaseSeries(node, TimeSeries(std::move(values), start)));
    }
    F2DB_RETURN_IF_ERROR(graph->BuildAggregates());
  }

  auto next = cur->CopyForWrite();
  next->graph = graph;
  // History sums = retained history + the retention offsets rolled up the
  // aggregation structure (Sum() alone misses what retention deleted).
  std::vector<double> base_offsets(graph->num_base_nodes(), 0.0);
  for (const auto& [node, offset] : manifest.offsets) {
    const auto slot = base_slot_.find(node);
    if (slot == base_slot_.end()) {
      return Status::Internal("manifest offset references non-base node " +
                              std::to_string(node));
    }
    base_offsets[slot->second] = offset;
  }
  F2DB_ASSIGN_OR_RETURN(std::vector<double> node_offsets,
                        graph->AggregateBaseScalars(base_offsets));
  for (NodeId node = 0; node < graph->num_nodes(); ++node) {
    next->history_sums[node] = graph->series(node).Sum() + node_offsets[node];
  }

  // Configuration, quarantine flags, and the pending buffer arrive via
  // the rewritten records at the head of the manifest's WAL epoch.
  for (auto& scheme : next->schemes) scheme.clear();
  next->models.clear();
  pending_.clear();

  // Restore the maintenance counters so post-recovery stats continue the
  // pre-crash sequence (the rewritten tail replay then stacks on top).
  stats_.inserts.Add(manifest.inserts);
  stats_.time_advances.Add(manifest.time_advances);
  stats_.reestimates.Add(manifest.reestimates);
  stats_.quarantines.Add(manifest.quarantines);
  stats_.refit_failures.Add(manifest.refit_failures);

  Publish(std::move(next));
  return Status::OK();
}

Status F2dbEngine::CompactNow() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "compaction requires a durable engine (open with a data_dir)");
  }
  std::lock_guard<std::mutex> serial(compaction_serial_mutex_);

  const Status status = [&]() -> Status {
    const bool has_base = store_->has_manifest();
    storage::ManifestData base = store_->manifest();
    // When recovery fell back because the sealed chain failed validation,
    // extending that chain would commit a higher-epoch manifest over the
    // invalid segments and then delete the WAL epochs the fallback still
    // needs — the next restart would lose acknowledged writes. Instead,
    // reseal the full retained history from memory into a fresh chain
    // (offsets and drop counters survive) and truncate only once that
    // chain is durable.
    const bool reseal = reseal_segments_;
    std::vector<storage::ManifestSegment> invalid_chain;
    if (reseal) {
      invalid_chain = std::move(base.segments);
      base.segments.clear();
    }

    // ---- Phase A, under the writer lock: rotate the WAL and rewrite the
    // live tail into the fresh epoch. After the manifest commits, replay
    // starts HERE — these records carry everything the sealed history
    // does not: the configuration, every quarantine transition, and the
    // pending insert buffer.
    SnapshotPtr snap;
    std::uint64_t new_epoch = 0;
    std::int64_t sealed_from = 0;
    std::int64_t sealed_to = 0;
    storage::ManifestData next;
    {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      if (!wal_->open()) {
        return Status::Unavailable("WAL writer is broken; cannot rotate");
      }
      F2DB_RETURN_IF_ERROR(wal_->Sync());
      auto rotated = WalWriter::Create(options_.data_dir, wal_->epoch() + 1,
                                       options_.fsync_policy,
                                       options_.wal_batch_records);
      if (!rotated.ok()) return rotated.status();
      wal_->Close();
      *wal_ = std::move(rotated.value());
      new_epoch = wal_->epoch();

      snap = LoadSnapshot();
      bool any_scheme = false;
      for (const auto& scheme : snap->schemes) {
        if (!scheme.empty()) {
          any_scheme = true;
          break;
        }
      }
      if (!snap->models.empty() || any_scheme) {
        F2DB_RETURN_IF_ERROR(WalAppendLocked(WalRecord::Catalog(
            CatalogFromSnapshot(*snap).SerializeToString())));
      }
      std::vector<std::pair<NodeId, std::uint64_t>> quarantined;
      for (const auto& [node, live] : snap->models) {
        if (live->quarantined) quarantined.emplace_back(node, live->refit_failures);
      }
      std::sort(quarantined.begin(), quarantined.end());
      for (const auto& [node, failures] : quarantined) {
        F2DB_RETURN_IF_ERROR(
            WalAppendLocked(WalRecord::Quarantine(node, failures)));
      }
      std::uint64_t pending_count = 0;
      const std::vector<NodeId>& base_nodes = snap->graph->base_nodes();
      for (const auto& [time, batch] : pending_) {
        for (std::size_t slot = 0; slot < batch.size(); ++slot) {
          if (batch[slot].has_value()) {
            F2DB_RETURN_IF_ERROR(WalAppendLocked(
                WalRecord::Insert(base_nodes[slot], time, *batch[slot])));
            ++pending_count;
          }
        }
      }
      F2DB_RETURN_IF_ERROR(wal_->Sync());
      F2DB_RETURN_IF_ERROR(SyncDirectory(options_.data_dir));

      // The cut: everything strictly before the frontier is closed (its
      // batches completed) and gets sealed; [sealed_from, sealed_to).
      const TimeSeries& first = snap->graph->series(base_nodes[0]);
      sealed_from =
          (has_base && !reseal) ? base.sealed_to : first.start_time();
      sealed_to = first.end_time();

      next.wal_epoch = new_epoch;
      next.sealed_from = has_base ? base.sealed_from : sealed_from;
      next.sealed_to = sealed_to;
      // Counters at the cut: replay of the rewritten tail re-adds the
      // pending inserts and quarantine transitions, so subtract them.
      next.inserts = stats_.inserts.Load() - pending_count;
      next.time_advances = stats_.time_advances.Load();
      next.reestimates = stats_.reestimates.Load();
      next.quarantines = stats_.quarantines.Load() - quarantined.size();
      next.refit_failures = stats_.refit_failures.Load();
      next.records_dropped = base.records_dropped;
      next.offsets = base.offsets;
      next.segments = base.segments;
    }

    // ---- Phase B, off the writer lock: seal, commit, truncate. The
    // manifest rename is the commit point — until it lands, recovery uses
    // the previous artifact and the old (still-undeleted) WAL epochs.
    const std::uint64_t count =
        static_cast<std::uint64_t>(sealed_to - sealed_from);
    if (count > 0) {
      storage::SegmentData segment;
      segment.seq = store_->next_seq();
      segment.start_time = sealed_from;
      segment.count = count;
      const std::vector<NodeId>& base_nodes = snap->graph->base_nodes();
      segment.series.reserve(base_nodes.size());
      for (NodeId node : base_nodes) {
        const TimeSeries& series = snap->graph->series(node);
        if (series.start_time() > sealed_from) {
          return Status::Internal(
              "series history no longer covers the seal range");
        }
        const std::size_t begin =
            static_cast<std::size_t>(sealed_from - series.start_time());
        storage::SegmentSeries out;
        out.node = node;
        out.values.assign(
            series.values().begin() + static_cast<std::ptrdiff_t>(begin),
            series.values().begin() +
                static_cast<std::ptrdiff_t>(begin + count));
        segment.series.push_back(std::move(out));
      }
      F2DB_ASSIGN_OR_RETURN(const std::uint64_t bytes,
                            store_->WriteSegment(segment));
      storage::ManifestSegment entry;
      entry.seq = segment.seq;
      entry.start_time = segment.start_time;
      entry.count = segment.count;
      entry.num_series = static_cast<std::uint32_t>(segment.series.size());
      entry.bytes = bytes;
      next.segments.push_back(entry);
    }
    F2DB_RETURN_IF_ERROR(store_->CommitManifest(next));
    if (reseal) {
      // The fresh chain is durable and the manifest no longer references
      // the invalidated segments; their files can go (best effort — the
      // next store open sweeps unreferenced leftovers anyway).
      for (const storage::ManifestSegment& seg : invalid_chain) {
        (void)store_->DeleteSegmentFile(seg.seq);
      }
      reseal_segments_ = false;
    }
    if (count > 0) {
      stats_.segments_sealed.Add();
      stats_.segment_records_sealed.Add(static_cast<std::size_t>(
          count * snap->graph->num_base_nodes()));
    }
    storage::FireStorageCrashHook("before_wal_delete");
    // The manifest is durable — WAL epochs below its epoch are redundant.
    // A failed unlink merely leaves a stale segment for the next recovery
    // (or compaction) to clean up.
    auto epochs = ListWalEpochs(options_.data_dir);
    if (epochs.ok()) {
      for (const std::uint64_t epoch : epochs.value()) {
        if (epoch < new_epoch) {
          ::unlink(WalPath(options_.data_dir, epoch).c_str());
        }
      }
    }
    stats_.compactions_completed.Add();

    // ---- Phase C: retention. Whole segments entirely older than the
    // window are dropped — their per-series sums fold into the manifest
    // offsets (keeping history sums, and with them derivation weights,
    // exact), the pruned manifest commits, and only then do the files go.
    // The newest segment always survives so the chain stays anchored.
    if (options_.retention_window == 0 || next.segments.size() < 2) {
      return Status::OK();
    }
    const std::int64_t cutoff =
        sealed_to - static_cast<std::int64_t>(options_.retention_window);
    std::vector<storage::ManifestSegment> doomed;
    std::vector<storage::ManifestSegment> kept;
    for (std::size_t i = 0; i < next.segments.size(); ++i) {
      const storage::ManifestSegment& seg = next.segments[i];
      const bool last = (i + 1 == next.segments.size());
      if (!last &&
          seg.start_time + static_cast<std::int64_t>(seg.count) <= cutoff) {
        doomed.push_back(seg);
      } else {
        kept.push_back(seg);
      }
    }
    if (doomed.empty()) return Status::OK();

    std::map<std::uint32_t, double> offset_map(next.offsets.begin(),
                                               next.offsets.end());
    std::uint64_t dropped_records = 0;
    for (const storage::ManifestSegment& seg : doomed) {
      // Decode the doomed file to accumulate the exact sums being
      // forgotten — the values on disk, not a re-derivation.
      F2DB_ASSIGN_OR_RETURN(
          const storage::SegmentData data,
          storage::ReadSegmentFile(storage::SegmentPath(
              storage::SegmentsDirFor(options_.data_dir), seg.seq)));
      for (const storage::SegmentSeries& series : data.series) {
        double sum = 0.0;
        for (const double v : series.values) sum += v;
        offset_map[series.node] += sum;
      }
      dropped_records += seg.count * seg.num_series;
    }
    storage::ManifestData pruned = next;
    pruned.segments = kept;
    pruned.records_dropped += dropped_records;
    pruned.offsets.assign(offset_map.begin(), offset_map.end());
    F2DB_RETURN_IF_ERROR(store_->CommitManifest(pruned));
    for (const storage::ManifestSegment& seg : doomed) {
      F2DB_RETURN_IF_ERROR(store_->DeleteSegmentFile(seg.seq));
    }
    stats_.retention_segments_deleted.Add(doomed.size());
    stats_.retention_records_dropped.Add(
        static_cast<std::size_t>(dropped_records));

    // In-memory half: forget the same prefix from every series, base and
    // aggregate alike. History sums stay untouched — the offsets now
    // carry the forgotten mass. No checkpoint can land between the pruned
    // manifest commit above and this drop: CheckpointNow serializes on
    // compaction_serial_mutex_, so it never snapshots undropped series
    // alongside the pruned offsets (which would double-count on recovery).
    const std::int64_t new_start = kept.front().start_time;
    {
      std::lock_guard<std::mutex> lock(writer_mutex_);
      const SnapshotPtr cur = LoadSnapshot();
      const TimeSeries& first =
          cur->graph->series(cur->graph->base_nodes()[0]);
      if (first.start_time() < new_start) {
        auto graph = std::make_shared<TimeSeriesGraph>(*cur->graph);
        F2DB_RETURN_IF_ERROR(graph->DropHistoryBefore(new_start));
        auto updated = cur->CopyForWrite();
        updated->graph = std::move(graph);
        Publish(std::move(updated));
      }
    }
    return Status::OK();
  }();

  if (!status.ok()) {
    stats_.compaction_failures.Add();
    RecordDiskOutcome(status);
  }
  return status;
}

// ------------------------------------------------------ disk-fault policy

void F2dbEngine::RecordDiskOutcome(const Status& status) {
  // Failure-only by design: a maintenance success must NOT reset the
  // insert-path failure streak (or re-arm the emergency-retention token),
  // else a working segment path would mask a dead WAL forever and the
  // engine would never reach read-only.
  if (status.ok()) return;
  const int err = storage::ErrnoFromStatus(status);
  if (err != 0) disk_health_.RecordFailure(err);
}

Status F2dbEngine::ProbeDisk() {
  // One durable sentinel write proves the device accepts writes again; it
  // exercises the same open/write/fsync/rename path the WAL and
  // checkpoints depend on.
  const std::string sentinel = options_.data_dir + "/.f2db-health-probe";
  F2DB_RETURN_IF_ERROR(storage::WriteFileDurably(
      sentinel, "ok\n", /*hook_before_rename=*/nullptr,
      /*hook_after_rename=*/nullptr, storage::kIoSiteProbeWrite));
  (void)storage::RemoveFile(sentinel);
  if (disk_health_.ExitReadOnly()) {
    F2DB_LOG(kWarning) << "health probe succeeded; leaving read-only";
  }
  return Status::OK();
}

bool F2dbEngine::ScrubPace(std::uint64_t bytes_read) {
  const std::size_t rate = options_.scrub_rate_bytes_per_second;
  if (rate == 0 || bytes_read == 0) return true;
  const double seconds =
      static_cast<double>(bytes_read) / static_cast<double>(rate);
  std::unique_lock<std::mutex> lock(checkpoint_mutex_);
  return !checkpoint_cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                                  [this] { return stopping_; });
}

Status F2dbEngine::ScrubOnce(ScrubReport* report) {
  if (!durable()) {
    return Status::FailedPrecondition(
        "scrub requires a durable engine (open with a data_dir)");
  }
  ScrubReport local;
  ScrubReport* out = report != nullptr ? report : &local;
  *out = ScrubReport{};

  // Snapshot the chain, then verify each file OFF the serial lock:
  // compaction and retention may reshape the chain mid-pass, so a missing
  // file is a benign race (skipped) and corruption is re-checked against
  // the CURRENT manifest before anything is quarantined.
  const storage::ManifestData manifest = store_->manifest();

  for (const storage::ManifestSegment& seg : manifest.segments) {
    const std::string path = storage::SegmentPath(store_->dir(), seg.seq);
    const auto data = storage::ReadSegmentFile(path);
    if (data.ok()) {
      ++out->segments_verified;
      out->bytes_verified += seg.bytes;
      stats_.scrub_bytes.Add(static_cast<std::size_t>(seg.bytes));
      if (!ScrubPace(seg.bytes)) return Status::OK();  // shutting down
      continue;
    }
    if (data.status().code() == StatusCode::kNotFound) continue;  // retention won

    ++out->corruptions;
    stats_.scrub_corruptions.Add();
    F2DB_LOG(kError) << "scrub: corrupt sealed segment " << path << ": "
                     << data.status().message();

    bool still_live = false;
    bool can_reseal = false;
    {
      std::lock_guard<std::mutex> serial(compaction_serial_mutex_);
      const storage::ManifestData current = store_->manifest();
      for (const storage::ManifestSegment& live_seg : current.segments) {
        if (live_seg.seq == seg.seq) {
          still_live = true;
          break;
        }
      }
      if (still_live) {
        // Quarantine first: recovery and later scrubs must never read the
        // bad bytes again. The file is renamed, not deleted — the evidence
        // stays available for offline repair.
        (void)::rename(path.c_str(), (path + ".corrupt").c_str());
        // A reseal can replace the whole chain only while the in-memory
        // history still reaches back to the chain's first sealed tick
        // (retention forgets the disk-only past in lockstep, so normally
        // it does; the guard protects torn intermediate states).
        const SnapshotPtr snap = LoadSnapshot();
        const auto& bases = snap->graph->base_nodes();
        can_reseal = !bases.empty() && !current.segments.empty() &&
                     snap->graph->series(bases[0]).start_time() <=
                         current.segments.front().start_time;
        if (can_reseal) reseal_segments_ = true;
      }
    }
    if (!still_live) continue;  // compaction already replaced it
    if (can_reseal) {
      const Status resealed = CompactNow();
      if (resealed.ok()) {
        out->resealed = true;
        stats_.scrub_reseals.Add();
        F2DB_LOG(kWarning) << "scrub: resealed segment chain from memory "
                              "after quarantining "
                           << path;
        // The manifest and chain were just rewritten; this pass is done.
        stats_.scrub_cycles.Add();
        return Status::OK();
      }
      out->entered_read_only = disk_health_.EnterReadOnly();
      return resealed;
    }
    disk_health_.EnterReadOnly();
    out->entered_read_only = true;
    return Status::Internal("scrub: sealed history at " + path +
                            " is corrupt and no longer reconstructible "
                            "from memory; engine is read-only");
  }

  // Manifest: re-read and re-verify its CRC. A corrupt manifest is
  // quarantined and (the cached copy being authoritative) healed by a
  // reseal, which rewrites it wholesale.
  if (store_->has_manifest()) {
    const std::string manifest_path =
        store_->dir() + "/" + storage::kManifestFileName;
    const auto text = storage::ReadFileToString(manifest_path);
    if (text.ok()) {
      out->bytes_verified += text.value().size();
      stats_.scrub_bytes.Add(text.value().size());
      if (!storage::ParseManifest(text.value()).ok()) {
        ++out->corruptions;
        stats_.scrub_corruptions.Add();
        F2DB_LOG(kError) << "scrub: corrupt manifest " << manifest_path;
        {
          std::lock_guard<std::mutex> serial(compaction_serial_mutex_);
          (void)::rename(manifest_path.c_str(),
                         (manifest_path + ".corrupt").c_str());
          reseal_segments_ = true;
        }
        const Status resealed = CompactNow();
        if (!resealed.ok()) {
          out->entered_read_only = disk_health_.EnterReadOnly();
          return resealed;
        }
        out->resealed = true;
        stats_.scrub_reseals.Add();
      }
      if (!ScrubPace(text.value().size())) return Status::OK();
    }
  }

  // Checkpoint: re-verify the CRC trailer; a corrupt checkpoint is
  // rewritten in place from live state (it is a redundant artifact — the
  // WAL and segment chain still recover without it).
  const auto checkpoint_text =
      storage::ReadFileToString(CheckpointPath(options_.data_dir));
  if (checkpoint_text.ok()) {
    out->bytes_verified += checkpoint_text.value().size();
    stats_.scrub_bytes.Add(checkpoint_text.value().size());
    if (!ParseCheckpoint(checkpoint_text.value()).ok()) {
      ++out->corruptions;
      stats_.scrub_corruptions.Add();
      F2DB_LOG(kError) << "scrub: corrupt checkpoint; rewriting from live "
                          "state";
      const Status rewritten = CheckpointNow();
      if (!rewritten.ok()) return rewritten;
    }
    if (!ScrubPace(checkpoint_text.value().size())) return Status::OK();
  }

  stats_.scrub_cycles.Add();
  return Status::OK();
}

}  // namespace f2db
