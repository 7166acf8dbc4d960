// F2DB engine: forecast query processing and model maintenance over a
// stored model configuration (Section V).
//
// This is the embedded stand-in for the paper's PostgreSQL extension. It
// owns the time series data (the fact cube), the configuration (schemes +
// live models), and implements:
//   - the Forecast Query Processor: a query resolves its graph node, loads
//     the node's derivation scheme and the required models, and computes
//     forecasts WITHOUT touching the base fact data;
//   - the Maintenance Processor: inserts are batched until a new value is
//     available for every base series, then time advances through the whole
//     graph at once; model states and derivation weights are updated
//     incrementally; parameter re-estimation is delayed until an invalid
//     model is actually referenced by a query (lazy re-estimation).
//
// Concurrency model (see DESIGN.md, "Engine concurrency model"): the engine
// is split into three layers.
//   1. A const, lock-free QUERY layer (Execute, Explain, ForecastNode,
//      ForecastNodeWithIntervals, ExportCatalog): each call pins the
//      current EngineSnapshot with one atomic load and computes entirely
//      against that immutable state. Any number of query threads may run
//      concurrently with each other and with maintenance.
//   2. A MAINTENANCE layer (InsertFact, LoadConfiguration, LoadCatalog)
//      serialized behind a writer mutex: it builds the successor snapshot
//      off to the side (copy-on-write) and installs it with one atomic
//      store. Readers mid-query keep the old snapshot alive.
//   3. A STATS layer of relaxed atomic counters, updated from both sides
//      without locks.
// Lazy re-estimation follows the same rule: a query that references an
// invalid model fits a fresh clone against its snapshot's history and
// publishes the result copy-on-write; the published entry never mutates.

#ifndef F2DB_ENGINE_ENGINE_H_
#define F2DB_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/concurrent.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/configuration.h"
#include "core/evaluator.h"
#include "cube/graph.h"
#include "engine/catalog.h"
#include "engine/checkpoint.h"
#include "engine/disk_health.h"
#include "engine/plan_cache.h"
#include "engine/query.h"
#include "engine/snapshot.h"
#include "engine/wal.h"
#include "storage/store.h"
#include "ts/intervals.h"
#include "ts/model.h"

namespace f2db {

/// Fault-injection site: a lazy re-estimation attempt fails with
/// kUnavailable instead of fitting (exercises the degradation ladder and
/// the retry/quarantine machinery).
F2DB_DEFINE_FAILPOINT(kFailpointEngineRefit, "engine.refit")
/// Fault-injection site: InsertFact fails before buffering the value.
F2DB_DEFINE_FAILPOINT(kFailpointEngineInsert, "engine.insert")
/// Fault-injection site: LoadCatalog fails while decoding a model row (the
/// whole load must abort and leave the previous state published).
F2DB_DEFINE_FAILPOINT(kFailpointCatalogDecode, "engine.catalog_decode")

/// Engine tuning knobs. Immutable once the engine is constructed — live
/// mutation would race with the concurrent query path.
struct EngineOptions {
  /// Threshold-based invalidation: a model is marked invalid after this
  /// many incremental updates and re-estimated on next use. 0 disables
  /// re-estimation entirely.
  std::size_t reestimate_after_updates = 0;
  /// Worker threads for maintenance fan-out (model catch-up on
  /// configuration load, per-advance incremental model updates).
  /// 1 = serial, 0 = ThreadPool::DefaultConcurrency().
  std::size_t maintenance_threads = 1;
  /// After this many consecutive failed re-estimations a node is
  /// quarantined: queries stop retrying the fit and serve the degradation
  /// ladder until the next data advance resets the node. 0 = never
  /// quarantine (every query retries).
  std::size_t quarantine_after_refit_failures = 3;
  /// Exponential backoff between refit retries: attempt n is allowed only
  /// after base * 2^(n-1) seconds have passed since the previous failure.
  /// 0 = retry immediately on every query (the default; tests and embedded
  /// single-shot use want deterministic behavior).
  double refit_retry_backoff_seconds = 0.0;

  /// Plan-cache capacity in entries (DESIGN.md §14): parsed statements are
  /// reused by normalized text, so repeat query shapes skip the
  /// lexer/parser. 0 disables the cache — correctness suites diff cached
  /// vs. uncached engines.
  std::size_t plan_cache_capacity = 256;

  // ---- durability (DESIGN.md §10) ----

  /// Data directory for the WAL and checkpoints. Empty = in-memory engine
  /// with no durability (the default; matches the plain constructor).
  /// Non-empty directories require construction through F2dbEngine::Open,
  /// which recovers existing state before serving.
  std::string data_dir;
  /// When WAL appends reach stable storage (see FsyncPolicy).
  FsyncPolicy fsync_policy = FsyncPolicy::kBatch;
  /// Group-commit size under FsyncPolicy::kBatch: fsync once per this many
  /// appended records.
  std::size_t wal_batch_records = 64;
  /// Background checkpoint cadence in seconds; 0 disables the background
  /// thread (checkpoints then happen only via CheckpointNow / shutdown).
  double checkpoint_interval_seconds = 0.0;

  // ---- storage engine (DESIGN.md §13) ----

  /// Background compaction cadence in seconds: closed WAL history is
  /// sealed into compressed segments on this interval. 0 disables the
  /// background thread (compaction then happens only via CompactNow /
  /// shutdown).
  double compaction_interval_seconds = 0.0;
  /// Retention window in periods. After a compaction, sealed segments
  /// whose entire range is older than `frontier - retention_window` are
  /// deleted and the raw history is dropped from memory; model state,
  /// aggregates, and history sums (derivation weights) are preserved
  /// exactly. Size it to at least the model warm-up window — lazy
  /// re-estimation and the naive fallback refit against the RETAINED
  /// history only. 0 keeps all history forever.
  std::size_t retention_window = 0;

  // ---- disk-fault policy (DESIGN.md §15) ----

  /// Consecutive classified durability-I/O failures (EIO/ENOSPC, real or
  /// injected) before the engine enters read-only mode.
  std::size_t disk_failure_threshold = 3;
  /// In-line retries of a failed durable insert before its failure
  /// counts toward the threshold-crossing streak. Each retry sleeps
  /// disk_retry_backoff_ms * attempt (linear backoff, off the writer
  /// lock). 0 = fail on the first error.
  std::size_t disk_retry_attempts = 1;
  double disk_retry_backoff_ms = 2.0;
  /// Read-only probe cadence in seconds: while read-only, a background
  /// thread writes and removes a sentinel file (<data_dir>/.f2db-health-
  /// probe, failpoint site io.probe_write) on this interval and exits
  /// read-only on the first durable success. 0 disables the probe thread
  /// (read-only then persists until restart). Ignored in-memory.
  double disk_probe_interval_seconds = 0.25;
  /// retry-after-ms hint carried by read-only INSERT rejections (the
  /// client sleeps this long, capped by its max_retry_after_seconds).
  double read_only_retry_after_ms = 1000.0;

  // ---- integrity scrubber (DESIGN.md §15) ----

  /// Background scrub cadence in seconds: one full pass over the sealed
  /// segment chain, manifest, and latest checkpoint per interval. 0
  /// disables the background thread (scrubs then happen only via
  /// ScrubOnce). Ignored in-memory.
  double scrub_interval_seconds = 0.0;
  /// Scrub read budget in bytes/second: the scrubber sleeps between files
  /// to stay under it, so a large chain cannot starve the live query
  /// path of disk bandwidth. 0 = unthrottled.
  std::size_t scrub_rate_bytes_per_second = 4u << 20;
};

/// How far down the fallback ladder a forecast had to go. Higher values
/// are worse; a multi-source answer reports the worst rung that
/// contributed. See "Failure semantics and the degradation ladder" in
/// DESIGN.md.
enum class DegradationLevel {
  kNone = 0,         ///< Valid or freshly re-estimated model.
  kStaleModel,       ///< Pre-invalidation model state (refit failed/skipped).
  kDerivedFallback,  ///< Recomputed through the source's own stored scheme.
  kNaiveFallback,    ///< Drift model fit on the snapshot's stored history.
  kUnavailable,      ///< Every rung failed; surfaced as kUnavailable status.
};

/// Stable display name ("NONE", "STALE_MODEL", ...).
const char* DegradationLevelName(DegradationLevel level);

/// Counter values exposed for benchmarking (Figure 9(b)). This is a plain
/// value snapshot; the live counters are relaxed atomics, so the fields
/// are individually exact but not mutually consistent while threads run.
struct EngineStats {
  std::size_t queries = 0;
  std::size_t inserts = 0;
  std::size_t time_advances = 0;
  std::size_t reestimates = 0;
  /// Lazy re-estimation attempts that returned non-OK.
  std::size_t refit_failures = 0;
  /// Nodes that crossed the consecutive-failure threshold and entered
  /// quarantine (counted once per quarantine episode).
  std::size_t quarantines = 0;
  /// Forecast rows served per degradation rung (kNone rows are not
  /// counted; a row is attributed to the worst rung that contributed).
  std::size_t degraded_rows_stale = 0;
  std::size_t degraded_rows_derived = 0;
  std::size_t degraded_rows_naive = 0;
  /// Queries answered kDeadlineExceeded because their deadline had already
  /// passed when the engine (or the scatter-gather fan-out) was reached.
  std::size_t deadline_expired_queries = 0;
  /// Lazy re-estimations skipped because the query ran in brownout mode
  /// (the stale rung served instead, annotated).
  std::size_t brownout_refits_skipped = 0;

  // ---- plan-cache counters (DESIGN.md §14) ----

  /// ParsePlan served from the cache (no lexer/parser work).
  std::size_t plan_cache_hits = 0;
  /// ParsePlan had to parse (and cached the result).
  std::size_t plan_cache_misses = 0;
  /// Entries dropped by the LRU capacity bound.
  std::size_t plan_cache_evictions = 0;
  /// Whole-cache drops on configuration/catalog install.
  std::size_t plan_cache_invalidations = 0;
  /// Entries currently cached (gauge).
  std::size_t plan_cache_size = 0;

  double total_query_seconds = 0.0;
  double total_maintenance_seconds = 0.0;

  // ---- durability counters (all zero for an in-memory engine) ----

  /// WAL records appended (across segment rotations) since this process
  /// opened the engine.
  std::size_t wal_records_appended = 0;
  /// WAL bytes appended since this process opened the engine.
  std::size_t wal_bytes = 0;
  /// WAL records replayed by recovery when the engine was opened.
  std::size_t wal_records_replayed = 0;
  /// 1 when recovery found (and truncated) a torn final WAL record.
  std::size_t torn_tail_detected = 0;
  std::size_t checkpoints_completed = 0;
  std::size_t checkpoint_failures = 0;
  /// Wall-clock milliseconds recovery took at open (0 for in-memory).
  double recovery_duration_ms = 0.0;
  /// Seconds since the last completed checkpoint; -1 when none completed
  /// in this process's lifetime.
  double last_checkpoint_age_seconds = -1.0;

  // ---- storage-engine counters (DESIGN.md §13; zero when no segments) ----

  /// Segments sealed by this process.
  std::size_t segments_sealed = 0;
  /// Raw records (observations) sealed into segments by this process.
  std::size_t segment_records_sealed = 0;
  /// Segments currently in the live chain (gauge).
  std::size_t segments_live = 0;
  /// On-disk bytes of the live segment chain (gauge).
  std::size_t segment_live_bytes = 0;
  /// Compactions completed / failed by this process.
  std::size_t compactions_completed = 0;
  std::size_t compaction_failures = 0;
  /// Segments deleted and raw records dropped by retention.
  std::size_t retention_segments_deleted = 0;
  std::size_t retention_records_dropped = 0;
  /// Records recovery bulk-loaded from sealed segments at open (gauge).
  std::size_t segment_records_recovered = 0;

  // ---- disk-fault counters (DESIGN.md §15; zero when in-memory) ----

  /// Disk-health gauge: 0 ok, 1 degraded, 2 read-only (worst shard for a
  /// sharded engine).
  std::size_t disk_health = 0;
  /// In-line retries of failed durable operations.
  std::size_t io_retries = 0;
  /// Classified durability-I/O failures by errno family.
  std::size_t io_failures_eio = 0;
  std::size_t io_failures_enospc = 0;
  std::size_t io_failures_other = 0;
  /// Read-only episodes entered / exited (entries - exits == 1 while
  /// read-only, 0 otherwise).
  std::size_t read_only_entries = 0;
  std::size_t read_only_exits = 0;
  /// ENOSPC emergency retention passes attempted before declaring
  /// read-only.
  std::size_t emergency_retentions = 0;

  // ---- integrity-scrubber counters (DESIGN.md §15) ----

  /// Completed scrub cycles (chain + manifest + checkpoint).
  std::size_t scrub_cycles = 0;
  /// Bytes re-read and CRC-verified by the scrubber.
  std::size_t scrub_bytes = 0;
  /// Corrupt artifacts detected (and quarantined as *.corrupt).
  std::size_t scrub_corruptions = 0;
  /// Reseal compactions triggered by scrub-detected corruption.
  std::size_t scrub_reseals = 0;

  /// Renders the counters in the Prometheus text exposition format (see
  /// engine/stats_export.h); served by the network layer's STATS frame.
  std::string ToPrometheusText() const;
};

/// Outcome of one full scrub pass (F2dbEngine::ScrubOnce).
struct ScrubReport {
  /// Sealed segments whose CRCs were re-verified this pass.
  std::size_t segments_verified = 0;
  /// Bytes read and verified (segments + manifest + checkpoint).
  std::uint64_t bytes_verified = 0;
  /// Corrupt artifacts detected this pass.
  std::size_t corruptions = 0;
  /// A reseal compaction was triggered (corrupt segment, history still in
  /// memory).
  bool resealed = false;
  /// Corruption forced the read-only transition (history no longer
  /// reconstructible from memory).
  bool entered_read_only = false;
};

/// One output row of a forecast query.
struct ForecastRow {
  std::int64_t time = 0;
  double value = 0.0;
  /// Prediction interval bounds; meaningful when has_interval is true
  /// (WITH INTERVALS queries).
  double lower = 0.0;
  double upper = 0.0;
  bool has_interval = false;
  /// Worst fallback rung that contributed to this row (kNone = full
  /// fidelity).
  DegradationLevel degradation = DegradationLevel::kNone;
};

/// Result of a forecast query.
struct QueryResult {
  NodeId node = 0;          ///< The graph node the query resolved to.
  /// Human-readable node name, rendered from the snapshot the query ran
  /// against. Carried in the result so callers (the serving layer) never
  /// need to pin a second snapshot just to name the node — and so a
  /// sharded engine can report shard-local node ids with globally
  /// meaningful names.
  std::string node_name;
  std::vector<ForecastRow> rows;
  /// Worst degradation across the rows; kNone for a full-fidelity answer.
  DegradationLevel degradation = DegradationLevel::kNone;
  /// Human-readable cause when degradation != kNone (e.g. which node's
  /// re-estimation failed and which rung served the answer).
  std::string degradation_reason;
};

/// A scheme-derived forecast annotated with the degradation outcome — the
/// internal currency of the query path, exposed for tests and benches.
struct DegradedForecast {
  std::vector<double> values;
  /// Forecast variances; filled only on the interval query path.
  std::vector<double> variances;
  DegradationLevel level = DegradationLevel::kNone;
  /// Cause of the degradation; empty when level == kNone.
  std::string reason;
};

/// Plan description produced by EXPLAIN (Section V: a forecast query is
/// rewritten to access the stored time series graph and models).
struct ExplainResult {
  NodeId node = 0;
  std::string node_name;
  /// The stored derivation scheme sources and the current weight.
  std::vector<NodeId> sources;
  double weight = 0.0;
  /// Human-readable model description per source ("node 7: arima, 5 params").
  std::vector<std::string> source_models;
  std::size_t horizon = 0;
};

/// The surface the serving layer programs against: what a forecast engine
/// must offer regardless of whether it is one F2dbEngine or a sharded
/// facade over many (engine/sharded_engine.h). Kept deliberately narrow —
/// the full F2dbEngine API (snapshots, catalogs, node-id queries) stays on
/// the concrete class; only the operations the server routes for clients
/// are virtual.
class EngineInterface {
 public:
  virtual ~EngineInterface() = default;

  /// Executes a parsed forecast query. Implementations fill
  /// QueryResult::node_name so callers can render answers without touching
  /// engine snapshots.
  virtual Result<QueryResult> Execute(const ForecastQuery& query) const = 0;

  /// Describes the execution plan of a forecast query.
  virtual Result<ExplainResult> Explain(const ForecastQuery& query) const = 0;

  /// Parses statement text into a shared, immutable plan (DESIGN.md §14).
  /// Implementations with a plan cache serve repeat shapes without
  /// touching the lexer/parser; the default simply parses. Plans from one
  /// implementation must only execute against that implementation (a
  /// pre-resolved node id is engine-local).
  virtual Result<PlanPtr> ParsePlan(const std::string& sql) const;

  /// Executes a bound forecast query that came from one of this
  /// implementation's plans, writing into *out — the serving layer reuses
  /// *out across requests, so implementations overwrite rather than
  /// allocate fresh results where they can. Routing is identical to
  /// Execute(): a sharded engine scatter-gathers EXECUTE exactly like
  /// QUERY. The default delegates to Execute().
  virtual Status ExecutePlanInto(const CachedPlan& plan,
                                 const ForecastQuery& query,
                                 QueryResult* out) const;

  /// Inserts one fact addressed by level-0 value names (one per dimension).
  virtual Status InsertFact(const std::vector<std::string>& base_values,
                            std::int64_t time, double value) = 0;

  /// Buffered (not yet applied) inserts, summed across shards.
  virtual std::size_t pending_inserts() const = 0;

  /// Aggregated counter snapshot.
  virtual EngineStats stats() const = 0;

  /// Prometheus exposition of the engine counters; a sharded engine
  /// additionally emits per-shard labeled samples.
  virtual std::string StatsPrometheusText() const = 0;

  /// Whether mutations are WAL-logged (drives the server's shutdown
  /// checkpoint).
  virtual bool durable() const = 0;

  /// Takes a checkpoint now (every shard, for a sharded engine).
  virtual Status CheckpointNow() = 0;

  /// Seals closed WAL history into compressed segments now (every shard,
  /// for a sharded engine) and applies retention. kFailedPrecondition for
  /// an in-memory engine.
  virtual Status CompactNow() = 0;
};

/// The embedded forecast-enabled database engine.
class F2dbEngine : public EngineInterface {
 public:
  /// Takes ownership of the loaded fact cube (aggregates built). This
  /// constructor is always IN-MEMORY: options.data_dir is ignored here
  /// because construction cannot report a recovery failure — durable
  /// engines are built through Open().
  explicit F2dbEngine(TimeSeriesGraph graph, EngineOptions options = {});

  /// Stops the background checkpoint thread and closes the WAL (final
  /// fsync unless the policy is kNone). No shutdown checkpoint is taken
  /// here — callers that want one (the server's drain path) call
  /// CheckpointNow() first.
  ~F2dbEngine();

  /// Opens an engine over options.data_dir: loads the latest valid
  /// checkpoint, replays the WAL tail (tolerating a torn final record),
  /// and resumes logging. `graph` supplies the cube structure and the
  /// initial fact data; a checkpoint's stored base series replace the
  /// fact values wholesale. With an empty data_dir this is equivalent to
  /// the constructor.
  static Result<std::unique_ptr<F2dbEngine>> Open(TimeSeriesGraph graph,
                                                  EngineOptions options = {});

  /// Whether this engine writes a WAL (opened through Open with a
  /// data_dir; the plain constructor never is).
  bool durable() const override { return wal_ != nullptr; }

  /// Takes a checkpoint right now: rotates the WAL to a fresh epoch,
  /// writes the pinned snapshot atomically, and deletes the WAL segments
  /// the checkpoint made redundant. Serialized with all maintenance AND
  /// with whole compactions — a checkpoint that landed between a
  /// retention manifest commit and the matching in-memory drop would
  /// snapshot the undropped series at a higher epoch and double-count the
  /// retained prefix on recovery. The expensive serialization runs off
  /// the writer lock. On failure the previous checkpoint and every WAL
  /// segment survive, so recovery is unaffected. kFailedPrecondition for
  /// an in-memory engine.
  Status CheckpointNow() override;

  /// Runs one compaction right now: rotates the WAL to a fresh epoch,
  /// rewrites the live tail (configuration, quarantine transitions,
  /// pending inserts) into it, seals the closed history slice into a
  /// compressed segment, commits the manifest by atomic rename, and only
  /// then deletes the covered WAL epochs. When a retention window is
  /// configured, segments entirely older than the window are then dropped
  /// (on disk and in memory) with history sums preserved via manifest
  /// offsets. Serialized against itself and against whole checkpoints
  /// (both take compaction_serial_mutex_). kFailedPrecondition for an
  /// in-memory engine.
  Status CompactNow() override;

  /// Current disk-health state (always kOk for an in-memory engine). While
  /// kReadOnly, queries serve annotated from COW snapshots, InsertFact
  /// rejects with kUnavailable + a retry-after-ms hint, and the background
  /// checkpoint/compaction loops park (DESIGN.md §15).
  DiskHealthState disk_health() const { return disk_health_.state(); }

  /// One full integrity-scrub pass right now: re-reads and CRC-verifies
  /// every sealed segment, the manifest, and the latest checkpoint,
  /// throttled to options().scrub_rate_bytes_per_second. A corrupt segment
  /// is quarantined as *.corrupt and resealed from in-memory history via
  /// CompactNow — or, when retention already dropped that history, the
  /// engine enters read-only instead (serving memory is still exact; only
  /// the on-disk past is gone). A corrupt manifest forces read-only; a
  /// corrupt checkpoint is rewritten in place via CheckpointNow.
  /// kFailedPrecondition for an in-memory engine.
  Status ScrubOnce(ScrubReport* report = nullptr);

  /// The graph of the CURRENT snapshot. The reference stays valid until the
  /// next maintenance publication — a single-threaded convenience. Code
  /// that runs concurrently with maintenance must pin snapshot() instead.
  const TimeSeriesGraph& graph() const;

  /// Value snapshot of the engine counters (safe to call concurrently).
  EngineStats stats() const override;

  /// Prometheus exposition of stats() (EngineInterface contract).
  std::string StatsPrometheusText() const override {
    return stats().ToPrometheusText();
  }

  const EngineOptions& options() const { return options_; }

  /// Pins the current published state. All query entry points are
  /// equivalent to pinning a snapshot and running against it; callers that
  /// need repeatable reads across several queries pin one snapshot and use
  /// the snapshot-taking overloads below.
  SnapshotPtr snapshot() const { return LoadSnapshot(); }

  // -------------------------------------------------- configuration load

  /// Installs an advisor/baseline configuration: schemes are copied, every
  /// uncovered node receives a fallback scheme (nearest model node), and
  /// the models are caught up from their training state to the full stored
  /// history via incremental updates. Serialized with all maintenance; on
  /// failure the previous state stays published untouched.
  Status LoadConfiguration(const ModelConfiguration& config,
                           const ConfigurationEvaluator& evaluator);

  /// Restores a configuration from catalog tables (Save/Load round trip).
  /// Transactional like LoadConfiguration.
  Status LoadCatalog(const ConfigurationCatalog& catalog);

  /// Exports the current configuration as catalog tables.
  Result<ConfigurationCatalog> ExportCatalog() const;

  /// Number of live models.
  std::size_t num_models() const { return LoadSnapshot()->models.size(); }

  // ------------------------------------------------------------- queries

  /// Parses and executes a forecast query.
  Result<QueryResult> ExecuteSql(const std::string& sql) const;

  /// Executes a parsed forecast query against the current snapshot.
  Result<QueryResult> Execute(const ForecastQuery& query) const override;

  /// Plan-cached parse: normalizes the text, serves a cached plan when one
  /// exists, otherwise parses, pre-resolves the node where the filter list
  /// has no bind slots (graph STRUCTURE is fixed for the engine's
  /// lifetime, so resolution is snapshot-stable), and caches. Counted in
  /// EngineStats (plan_cache_*).
  Result<PlanPtr> ParsePlan(const std::string& sql) const override;

  /// Executes a bound query using a plan's pre-resolved node (skipping
  /// filter resolution) and reusing *out's row buffer. Values always come
  /// from the snapshot pinned at THIS call — plans hold no data, so a
  /// cached plan can never serve stale answers.
  Status ExecutePlanInto(const CachedPlan& plan, const ForecastQuery& query,
                         QueryResult* out) const override;

  /// Execute() writing into a caller-reused result (the EXECUTE hot path:
  /// row and scratch buffers keep their capacity across calls).
  Status ExecuteInto(const ForecastQuery& query, QueryResult* out) const;

  /// Describes the execution plan of a forecast query without computing
  /// forecasts: the resolved node, its stored derivation scheme, the
  /// current derivation weight, and the source models.
  Result<ExplainResult> Explain(const ForecastQuery& query) const override;

  /// Parses and executes ANY statement of the dialect (SELECT / INSERT /
  /// EXPLAIN SELECT) and renders the outcome as display text — the
  /// interactive shell entry point. Non-const: INSERT enters maintenance.
  Result<std::string> ExecuteStatementText(const std::string& sql);

  /// Resolves WHERE filters to a graph node (unfiltered dimensions = ALL).
  Result<NodeId> ResolveNode(const std::vector<DimensionFilter>& filters) const;

  /// Computes the `horizon` forecasts of a node via its stored scheme.
  /// Counts as a query in stats() (used by the Figure 9(b) bench to bypass
  /// SQL parsing).
  Result<std::vector<double>> ForecastNode(NodeId node,
                                           std::size_t horizon) const;

  /// Same, against an explicitly pinned snapshot (repeatable reads: the
  /// same snapshot always yields the same forecast).
  Result<std::vector<double>> ForecastNode(const SnapshotPtr& snapshot,
                                           NodeId node,
                                           std::size_t horizon) const;

  /// Interval forecasts for a node at the given confidence level. The
  /// variance of a derived scheme is k^2 * sum of the source model
  /// variances (sources treated as independent). Fails when some source
  /// model does not support variances.
  Result<std::vector<ForecastInterval>> ForecastNodeWithIntervals(
      NodeId node, std::size_t horizon, double confidence = 0.95) const;

  // --------------------------------------------------------- maintenance

  /// Inserts one new fact for a base cell identified by its level-0 value
  /// names (ordered by dimension). Values are buffered per time stamp; when
  /// every base series has a value for the next period, time advances.
  Status InsertFact(const std::vector<std::string>& base_values,
                    std::int64_t time, double value) override;

  /// Same, addressing the base node directly.
  Status InsertFact(NodeId base_node, std::int64_t time, double value);

  /// Number of buffered (not yet applied) inserts.
  std::size_t pending_inserts() const override;

 private:
  /// Live counters behind stats(): relaxed atomics, lock-free on both the
  /// query and the maintenance side.
  struct StatsCounters {
    RelaxedCounter queries;
    RelaxedCounter inserts;
    RelaxedCounter time_advances;
    RelaxedCounter reestimates;
    RelaxedCounter refit_failures;
    RelaxedCounter quarantines;
    RelaxedCounter degraded_rows_stale;
    RelaxedCounter degraded_rows_derived;
    RelaxedCounter degraded_rows_naive;
    RelaxedCounter deadline_expired_queries;
    RelaxedCounter brownout_refits_skipped;
    RelaxedAccumulator query_seconds;
    RelaxedAccumulator maintenance_seconds;
    RelaxedCounter wal_records;
    RelaxedCounter wal_bytes;
    RelaxedCounter checkpoints_completed;
    RelaxedCounter checkpoint_failures;
    RelaxedCounter segments_sealed;
    RelaxedCounter segment_records_sealed;
    RelaxedCounter compactions_completed;
    RelaxedCounter compaction_failures;
    RelaxedCounter retention_segments_deleted;
    RelaxedCounter retention_records_dropped;
    RelaxedCounter emergency_retentions;
    RelaxedCounter scrub_cycles;
    RelaxedCounter scrub_bytes;
    RelaxedCounter scrub_corruptions;
    RelaxedCounter scrub_reseals;
  };

  SnapshotPtr LoadSnapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Installs `next` as the current snapshot. Caller holds writer_mutex_.
  /// Const because query threads publish re-estimates too.
  void Publish(std::shared_ptr<EngineSnapshot> next) const;

  /// Shared core of Execute / ExecuteInto / ExecutePlanInto: forecasts
  /// `node` against `snapshot` and renders rows into *out, reusing its
  /// buffers. Handles stats accounting (queries, query seconds, degraded
  /// rows); the deadline gate has already run.
  Status ForecastIntoResult(const SnapshotPtr& snapshot, NodeId node,
                            const ForecastQuery& query, QueryResult* out) const;

  /// Deadline gate shared by the execute entry points: counts and answers
  /// kDeadlineExceeded when the budget is already spent.
  Status CheckQueryDeadline(const ForecastQuery& query) const;

  /// Scheme-based forecast against one snapshot (shared by Execute and
  /// ForecastNode; no stats accounting). Bounds-checks `node`, then
  /// combines the node's stored scheme via CombineScheme. `want_variance`
  /// additionally fills DegradedForecast::variances (interval path).
  /// `brownout` rides along to ForecastSource: refits are skipped and the
  /// stale rung serves annotated answers.
  Result<DegradedForecast> ForecastInternal(const SnapshotPtr& snapshot,
                                            NodeId node, std::size_t horizon,
                                            bool want_variance,
                                            bool brownout = false) const;

  /// Sums the source forecasts of `node`'s stored scheme and applies the
  /// derivation weight. The reported level/reason is the worst rung any
  /// source had to fall to. `depth` limits derived-fallback recursion.
  Result<DegradedForecast> CombineScheme(const SnapshotPtr& snapshot,
                                         NodeId node, std::size_t horizon,
                                         bool want_variance, bool brownout,
                                         std::size_t depth) const;

  /// Produces the forecast of ONE scheme source, degrading through the
  /// fallback ladder (DESIGN.md, "Failure semantics"):
  ///   valid model → lazy refit → stale pre-invalidation model →
  ///   source's own derivation scheme → drift model on stored history →
  ///   kUnavailable.
  /// A successful refit is offered copy-on-write (OfferReestimate); a
  /// failed one is recorded copy-on-write (OfferRefitFailure) and may
  /// quarantine the node.
  Result<DegradedForecast> ForecastSource(const SnapshotPtr& snapshot,
                                          NodeId source, std::size_t horizon,
                                          bool want_variance, bool brownout,
                                          std::size_t depth) const;

  /// Whether a refit of `live` may be attempted now (not quarantined and
  /// outside the exponential backoff window).
  bool RefitAllowed(const LiveModel& live) const;

  /// Publishes a re-estimated model entry unless maintenance has replaced
  /// the entry since `expected` was read (then the refit is discarded).
  void OfferReestimate(NodeId node,
                       const std::shared_ptr<const LiveModel>& expected,
                       std::shared_ptr<const LiveModel> fresh) const;

  /// Records a failed re-estimation attempt copy-on-write: bumps the
  /// entry's consecutive-failure count, stamps the attempt time, and
  /// quarantines the node once the threshold is crossed. Identity-checked
  /// like OfferReestimate.
  void OfferRefitFailure(NodeId node,
                         const std::shared_ptr<const LiveModel>& expected) const;

  /// Attributes `rows` forecast rows to the stats counter of `level`.
  void CountDegradedRows(DegradationLevel level, std::size_t rows) const;

  /// Applies every complete buffered batch at the current frontier and
  /// publishes one successor snapshot. Caller holds writer_mutex_.
  Status AdvanceWhileCompleteLocked();

  // ------------------------------------------------- durability internals

  /// Shared core of InsertFact and WAL replay: full validation, then a WAL
  /// append when `log` is set (replay must not re-log), then buffer and
  /// advance.
  Status InsertFactImpl(NodeId base_node, std::int64_t time, double value,
                        bool log);

  /// Shared core of LoadCatalog and kCatalog replay.
  Status LoadCatalogImpl(const ConfigurationCatalog& catalog, bool log);

  /// Appends one record when the engine is durable (no-op otherwise) and
  /// accounts the WAL counters. Caller holds writer_mutex_. Const because
  /// query-side re-estimation publications log too.
  Status WalAppendLocked(const WalRecord& record) const;

  /// Renders the given snapshot's configuration as catalog tables (the
  /// payload of a WAL kCatalog record; also backs ExportCatalog).
  static ConfigurationCatalog CatalogFromSnapshot(const EngineSnapshot& snap);

  /// Recovery: installs a checkpoint's state wholesale (graph data,
  /// schemes, models, pending buffer, maintenance counters). Runs
  /// single-threaded inside Open(), before the engine is visible. When a
  /// manifest survives, its retention offsets are folded into the history
  /// sums (the checkpointed series start where retention left them).
  Status ApplyCheckpointState(CheckpointState&& state,
                              const storage::ManifestData* manifest);

  /// Recovery: restores series history by decoding the sealed segment
  /// chain directly — base series are bulk-loaded and aggregates/history
  /// sums rebuilt once, instead of re-running maintenance per record.
  /// Configuration, quarantine flags, and the pending buffer arrive via
  /// the rewritten records at the head of the manifest's WAL epoch.
  Status ApplySegmentState(const storage::ManifestData& manifest,
                           std::vector<storage::SegmentData>&& chain);

  /// Recovery: re-applies one replayed WAL record.
  Status ApplyWalRecord(const WalRecord& record);

  /// Builds the checkpoint cut. Caller holds writer_mutex_; the returned
  /// state references only copies, so serialization may run off the lock.
  CheckpointState BuildCheckpointStateLocked(const SnapshotPtr& snap,
                                             std::uint64_t wal_epoch) const;

  /// One background maintenance task, run on its own thread by
  /// MaintenanceLoop every `interval_seconds`.
  struct MaintenanceTask {
    double interval_seconds = 0.0;
    /// false: the task parks while the engine is read-only, since its
    /// writes would only churn the failing device. true: the task runs
    /// ONLY while read-only (the health probe).
    bool runs_while_read_only = false;
    std::function<Status()> task;
    /// Failures log "background <name> failed: ..."; nullptr = not logged.
    const char* name = nullptr;
  };

  /// Body of every background maintenance thread: waits the task's
  /// interval on checkpoint_cv_, runs the task when the read-only rule
  /// allows, and repeats until stopping_.
  void MaintenanceLoop(const MaintenanceTask& task);

  // ------------------------------------------------ disk-fault internals

  /// The kUnavailable status a read-only engine answers INSERTs with. Its
  /// message leads with "retry-after-ms=<n>; " — the same hint format the
  /// rate limiter uses — so clients reuse ParseRetryAfterMs unchanged.
  Status ReadOnlyRejection() const;

  /// Feeds a durable operation's outcome to the disk-health tracker:
  /// success ends a failure streak; a failure carrying an fsio errno
  /// marker is classified and may cross into read-only. Statuses without
  /// a marker (validation errors, failpoint injections) are ignored.
  void RecordDiskOutcome(const Status& status);

  /// The read-only health probe task: durably writes and removes
  /// <data_dir>/.f2db-health-probe (failpoint site io.probe_write) and
  /// exits read-only on success.
  Status ProbeDisk();

  /// Interruptible pacing sleep for the scrub byte-rate budget; returns
  /// false when the engine is stopping (the scrub pass aborts).
  bool ScrubPace(std::uint64_t bytes_read);

  /// The maintenance fan-out pool (nullptr = serial maintenance).
  ThreadPool* MaintenancePool() const;

  const EngineOptions options_;
  mutable StatsCounters stats_;

  /// Disk-health state machine (DESIGN.md §15). Internally synchronized;
  /// state reads are lock-free (insert and query hot paths).
  mutable DiskHealth disk_health_{options_.disk_failure_threshold};

  /// LRU plan cache behind ParsePlan (DESIGN.md §14). Internally
  /// synchronized; invalidated by LoadConfiguration / LoadCatalog.
  mutable PlanCache plan_cache_;

  /// Engine-relative clock for the refit retry backoff (LiveModel stamps
  /// last_refit_attempt_seconds against this watch).
  const StopWatch uptime_;

  /// The published state; queries load it, maintenance (and the install
  /// step of query-side re-estimation) stores it.
  mutable std::atomic<SnapshotPtr> snapshot_;

  /// Serializes every state publication: maintenance end-to-end, and the
  /// (brief) install step of query-side re-estimation.
  mutable std::mutex writer_mutex_;

  /// Lazily created fan-out pool for maintenance work.
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable std::once_flag pool_once_;

  // ---- maintenance-only state below (guarded by writer_mutex_) ----

  /// Insert buffer: time -> per-base-slot pending values.
  std::map<std::int64_t, std::vector<std::optional<double>>> pending_;
  std::unordered_map<NodeId, std::size_t> base_slot_;

  /// The WAL of the current epoch; nullptr for an in-memory engine.
  /// Rotated by CheckpointNow. Guarded by writer_mutex_ (mutable for the
  /// same reason WalAppendLocked is const).
  mutable std::unique_ptr<WalWriter> wal_;

  /// The sealed-segment store; nullptr for an in-memory engine. The store
  /// object is internally synchronized; compactions themselves are
  /// serialized by compaction_serial_mutex_.
  std::unique_ptr<storage::SegmentStore> store_;

  /// Serializes whole compactions against each other (the background
  /// thread vs. an explicit CompactNow vs. the shutdown path) and whole
  /// checkpoints against compactions: CheckpointNow takes it too, so a
  /// checkpoint can never observe the state between a retention manifest
  /// commit and the matching in-memory DropHistoryBefore. Always
  /// acquired BEFORE writer_mutex_.
  std::mutex compaction_serial_mutex_;

  /// Recovery fell back to checkpoint + WAL replay because the on-disk
  /// sealed chain failed validation. The next compaction must reseal the
  /// chain from the in-memory history instead of extending the invalid
  /// one — extending would commit a higher-epoch manifest and truncate
  /// the very WAL epochs the fallback still needs. Written once inside
  /// Open(); afterwards set by the scrubber (quarantined segment) and
  /// read/cleared by CompactNow, all under compaction_serial_mutex_.
  bool reseal_segments_ = false;

  // ---- recovery facts, written once inside Open() before any thread ----
  std::size_t recovery_records_replayed_ = 0;
  bool recovery_torn_tail_ = false;
  double recovery_seconds_ = 0.0;
  std::size_t recovery_segment_records_ = 0;

  /// uptime_-relative stamp of the last completed checkpoint; negative
  /// when none completed yet.
  std::atomic<double> last_checkpoint_seconds_{-1.0};

  // ---- background checkpoint/compaction/probe/scrub threads ----
  std::mutex checkpoint_mutex_;
  std::condition_variable checkpoint_cv_;
  bool stopping_ = false;  ///< guarded by checkpoint_mutex_
  std::vector<std::thread> maintenance_threads_;  ///< one per MaintenanceTask
};

}  // namespace f2db

#endif  // F2DB_ENGINE_ENGINE_H_
