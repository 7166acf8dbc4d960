// The three workloads and the helpers they share.
//
//   serve   read-only wire traffic: raw QUERY + EXECUTE over the advisor's
//           configuration for Gen1000 on an in-memory F2dbEngine.
//   ingest  durable 2-shard ShardedEngine: closed-loop INSERT loaders
//           beside open-loop dashboard reads, then crash recovery.
//   advise  the offline path: the advisor on the E1 data sets plus
//           Gen50k, in reproducible-cost mode.
//
// Each workload fills end-to-end metrics (untraced run) or per-layer
// metrics (traced run), records its correctness checks, and counts the
// ops it attempted and lost.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/advisor.h"
#include "loadgen.h"
#include "mixes.h"
#include "report.h"
#include "server/server.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Scratch directory inside the checkout (data directories, traces).
  std::string work_dir = ".bench_build/work";
  /// Pinned exact outcomes (perfbench/pinned.txt).
  std::string pinned_path;
};

struct RunOutput {
  Metrics metrics;
  Checks checks;
  OpTotals totals;
  /// Spans of the traced run, written to work_dir when the run ends.
  std::vector<Span> spans;
};

f2db::Status RunServe(const RunOptions& options, RunOutput* out);
f2db::Status RunIngest(const RunOptions& options, RunOutput* out);
f2db::Status RunAdvise(const RunOptions& options, RunOutput* out);

// --------------------------------------------------------- shared helpers

/// The advisor settings of every workload: the figure benches' batch of 8
/// models per iteration, at most 150 iterations, a fixed seed, and
/// reproducible cost (every model costs one unit), so configurations are
/// identical run to run and on any thread count.
f2db::AdvisorOptions ReproducibleAdvisorOptions();

/// Pinned expectations (perfbench/pinned.txt): `<name> <value>` lines.
f2db::Result<std::map<std::string, double>> ReadPinned(const std::string& path);

/// Server topology of both serving workloads: 1 reactor and 2 workers on a
/// 4-core host (the generator takes the fourth core). The default
/// admission limit sits far above the 4 requests the generator can have
/// in flight.
f2db::ServerOptions BenchServerOptions();

/// One representative node per level (index num_levels() = top node).
std::vector<NodeRef> LevelRepresentatives(const std::vector<NodeRef>& nodes);

/// PREPAREs the per-level statements (statements.h PreparedText) on every
/// connection and checks that all connections got the same ids.
f2db::Result<StatementIds> PrepareLevels(LoadGenerator& gen,
                                         const std::vector<NodeRef>& nodes);

/// Adds attempted / lost ops of a phase to the run totals and checks that
/// the generator's accounting balances.
void CountPhase(const PhaseResult& phase, const std::string& name,
                RunOutput* out);

/// CPU microseconds per completed op over a phase, without the generator
/// thread: (process CPU delta - generator CPU) / ok ops.
double CpuUsPerOp(const PhaseResult& phase, double process_cpu_delta_s);

/// The serving workloads' figures are medians over the phase's 0.5 s
/// windows, taken over the windows in which the host stole (almost) no
/// CPU: steal only ever slows the program, and on a shared VM it comes in
/// bursts that would otherwise decide a run's figure. Program-caused
/// stalls still count, since they happen in clean windows too. When fewer
/// than kMinCleanWindows windows are clean, the kMinCleanWindows least
/// stolen ones are used.
inline constexpr double kCleanWindowStealS = 0.02;
inline constexpr std::size_t kMinCleanWindows = 4;

/// Which of a set of windows (or runs) to take medians over, given the
/// steal seconds each saw: every clean one, and at least the
/// kMinCleanWindows least stolen.
std::vector<bool> LeastStolen(const std::vector<double>& steal);

/// Full windows of the phase that the medians use (see above).
std::vector<bool> UsableWindows(const PhaseResult& phase,
                                double phase_seconds);

/// Median over usable windows of each window's median latency of one op
/// type (windows with fewer than 100 replies are skipped).
double WindowedP50(const PhaseResult& phase, OpType type,
                   double phase_seconds);

/// Median over usable windows of the ok replies per second of the given
/// op types.
double WindowedRate(const PhaseResult& phase,
                    std::initializer_list<OpType> types,
                    double phase_seconds);

/// Generator lateness, host steal and per-op-type p99 diagnostics of a
/// phase (tails measure the host as much as the program).
void AddNoiseMetrics(const PhaseResult& phase, double steal_s, Metrics* m,
                     bool per_layer);

/// Per-layer view of a traced phase: server stage split, engine call
/// latencies by kind, matching statistics. `cross_shard` classifies
/// ExecutePlanInto keys for the sharded engine (empty when unsharded).
struct TraceSummary {
  MatchResult match;
  std::vector<double> parse_plan_us;
  std::vector<double> execute_plan_us;
  std::vector<double> scatter_us;
  std::vector<double> routed_us;
  double stage_sum_max_err_us = 0;
};
TraceSummary SummarizeTrace(
    const std::vector<RequestRecord>& requests, std::vector<Span>* spans,
    const std::function<bool(std::uint64_t key)>& cross_shard);

/// Plan-cache calls, hit ratio (hits / (hits + misses)) and evictions
/// between two engine counter snapshots.
void AddPlanCacheMetrics(const f2db::EngineStats& before,
                         const f2db::EngineStats& after, Metrics* m);

/// Emits the stage and engine-call metrics of a TraceSummary.
void AddTraceLayerMetrics(const TraceSummary& trace, Metrics* m);

/// Every per-layer metric name (the traced run reports all of them; a
/// layer a workload does not exercise reports 0).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

/// Every end-to-end metric name and unit.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
