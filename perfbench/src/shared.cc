#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "workloads.h"

namespace perfbench {

f2db::AdvisorOptions ReproducibleAdvisorOptions() {
  f2db::AdvisorOptions options;
  options.seed = 2013;
  options.models_per_iteration = 8;
  options.stop.max_iterations = 150;
  options.count_models_as_cost = true;
  options.num_threads = 2;
  return options;
}

f2db::Result<std::map<std::string, double>> ReadPinned(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return f2db::Status::NotFound("cannot read " + path);
  std::map<std::string, double> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    double value = 0;
    if (!(fields >> name >> value)) {
      return f2db::Status::InvalidArgument("bad pinned line: " + line);
    }
    pinned[name] = value;
  }
  return pinned;
}

f2db::ServerOptions BenchServerOptions() {
  f2db::ServerOptions options;
  options.reactor_threads = 1;
  options.worker_threads = 2;
  return options;
}

/// One representative node per level (index num_levels() = top node).
std::vector<NodeRef> LevelRepresentatives(const std::vector<NodeRef>& nodes) {
  std::size_t top = 0;
  for (const NodeRef& n : nodes) top = std::max(top, n.level_index);
  std::vector<NodeRef> reps(top + 1);
  for (const NodeRef& n : nodes) reps[n.level_index] = n;
  return reps;
}

f2db::Result<StatementIds> PrepareLevels(LoadGenerator& gen,
                                         const std::vector<NodeRef>& nodes) {
  const std::vector<NodeRef> reps = LevelRepresentatives(nodes);
  StatementIds ids;
  for (std::size_t c = 0; c < gen.connections(); ++c) {
    StatementIds conn_ids;
    for (const NodeRef& rep : reps) {
      F2DB_ASSIGN_OR_RETURN(std::uint32_t id,
                            gen.Prepare(c, PreparedText(rep)));
      conn_ids.push_back(id);
    }
    if (c == 0) ids = conn_ids;
    if (conn_ids != ids) {
      return f2db::Status::Internal(
          "prepared statement ids differ between connections");
    }
  }
  return ids;
}


void CountPhase(const PhaseResult& phase, const std::string& name,
                RunOutput* out) {
  for (std::size_t t = 0; t < kNumOpTypes; ++t) {
    const OpStats& stats = phase.ops[t];
    out->totals.attempted += stats.attempted;
    out->totals.failed += stats.failed + stats.shed;
    out->totals.attempted_by_type[t] += stats.attempted;
    out->totals.failed_by_type[t] += stats.failed + stats.shed;
    out->totals.retries_by_type[t] += stats.retries;
  }
  out->checks.Expect(phase.AccountingBalanced(),
                     name + ": attempted == ok + failed + shed per op type");
}

double CpuUsPerOp(const PhaseResult& phase, double process_cpu_delta_s) {
  const std::uint64_t ops = phase.completed_ok();
  if (ops == 0) return 0;
  return (process_cpu_delta_s - phase.generator_cpu_s) * 1e6 /
         static_cast<double>(ops);
}

std::vector<bool> LeastStolen(const std::vector<double>& steal) {
  std::vector<bool> usable(steal.size(), false);
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t w = order[rank];
    usable[w] = steal[w] <= kCleanWindowStealS || rank < kMinCleanWindows;
  }
  return usable;
}

std::vector<bool> UsableWindows(const PhaseResult& phase,
                                double phase_seconds) {
  const auto full = static_cast<std::size_t>(phase_seconds * 1e9 /
                                             static_cast<double>(kWindowNs));
  std::vector<double> steal(full, 0.0);
  for (std::size_t w = 0; w < full && w < phase.window_steal_s.size(); ++w) {
    steal[w] = phase.window_steal_s[w];
  }
  return LeastStolen(steal);
}

double WindowedP50(const PhaseResult& phase, OpType type,
                   double phase_seconds) {
  const std::vector<bool> usable = UsableWindows(phase, phase_seconds);
  const OpStats& stats = phase.of(type);
  std::vector<std::vector<double>> windows(usable.size());
  for (std::size_t i = 0; i < stats.latency_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(stats.done_ns[i] / kWindowNs);
    if (w < usable.size() && usable[w]) windows[w].push_back(stats.latency_us[i]);
  }
  std::vector<double> medians;
  for (const std::vector<double>& values : windows) {
    if (values.size() >= 100) medians.push_back(Median(values));
  }
  return Median(medians);
}

double WindowedRate(const PhaseResult& phase,
                    std::initializer_list<OpType> types,
                    double phase_seconds) {
  const std::vector<bool> usable = UsableWindows(phase, phase_seconds);
  std::vector<double> counts(usable.size(), 0.0);
  for (const OpType type : types) {
    for (const std::int64_t done : phase.of(type).done_ns) {
      const auto w = static_cast<std::size_t>(done / kWindowNs);
      if (w < counts.size()) counts[w] += 1;
    }
  }
  std::vector<double> rates;
  for (std::size_t w = 0; w < counts.size(); ++w) {
    if (usable[w]) rates.push_back(counts[w] * 1e9 / kWindowNs);
  }
  return Median(rates);
}

void AddNoiseMetrics(const PhaseResult& phase, double steal_s, Metrics* m,
                     bool per_layer) {
  const auto put = [&](const std::string& name, double value,
                       const std::string& unit) {
    if (per_layer) {
      m->Layer(name, value, unit);
    } else {
      m->Diag(name, value, unit);
    }
  };
  put("bench.gen_late_p50_us", Percentile(phase.lateness_us, 0.5), "us");
  put("bench.gen_late_p99_us", Percentile(phase.lateness_us, 0.99), "us");
  put("bench.gen_late_max_us", Percentile(phase.lateness_us, 1.0), "us");
  put("host.steal_s", steal_s, "s");
  std::size_t clean = 0;
  for (const double steal : phase.window_steal_s) {
    clean += steal <= kCleanWindowStealS ? 1 : 0;
  }
  put("bench.clean_window_frac",
      phase.window_steal_s.empty()
          ? 0.0
          : static_cast<double>(clean) /
                static_cast<double>(phase.window_steal_s.size()),
      "ratio");
  for (std::size_t t = 0; t < kNumOpTypes; ++t) {
    const std::vector<double>& latency = phase.ops[t].latency_us;
    if (latency.empty()) continue;
    put(std::string("tail.") + OpTypeName(static_cast<OpType>(t)) + "_p99_us",
        Percentile(latency, 0.99), "us");
  }
}

TraceSummary SummarizeTrace(
    const std::vector<RequestRecord>& requests, std::vector<Span>* spans,
    const std::function<bool(std::uint64_t key)>& cross_shard) {
  TraceSummary summary;
  for (const Span& span : *spans) {
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    switch (span.kind) {
      case SpanKind::kParsePlan:
        summary.parse_plan_us.push_back(us);
        break;
      case SpanKind::kExecutePlanInto:
      case SpanKind::kExecute:
        summary.execute_plan_us.push_back(us);
        if (cross_shard) {
          (cross_shard(span.key) ? summary.scatter_us : summary.routed_us)
              .push_back(us);
        }
        break;
      default:
        break;
    }
  }
  summary.match = MatchEngineSpans(requests, spans);
  for (const StageSplit& split : summary.match.stages) {
    const double err = std::abs(split.pre_engine_us + split.engine_us +
                                split.post_engine_us - split.round_trip_us);
    summary.stage_sum_max_err_us = std::max(summary.stage_sum_max_err_us, err);
  }
  return summary;
}

void AddTraceLayerMetrics(const TraceSummary& trace, Metrics* m) {
  std::vector<double> pre;
  std::vector<double> post;
  for (const StageSplit& split : trace.match.stages) {
    pre.push_back(split.pre_engine_us);
    post.push_back(split.post_engine_us);
  }
  m->Layer("server.pre_engine_p50_us", Median(pre), "us");
  m->Layer("server.post_engine_p50_us", Median(post), "us");
  m->Layer("engine.parse_plan_p50_us", Median(trace.parse_plan_us), "us");
  m->Layer("engine.execute_p50_us", Median(trace.execute_plan_us), "us");
  m->Layer("engine.execute_p99_us", Percentile(trace.execute_plan_us, 0.99),
           "us");
  m->Layer("sharded_engine.scatter_p50_us", Median(trace.scatter_us), "us");
  m->Layer("sharded_engine.routed_p50_us", Median(trace.routed_us), "us");
  m->Layer("trace.matched_spans", static_cast<double>(trace.match.matched),
           "count");
  m->Layer("trace.unmatched_spans", static_cast<double>(trace.match.unmatched),
           "count");
  m->Layer("trace.ambiguous_spans", static_cast<double>(trace.match.ambiguous),
           "count");
  m->Layer("trace.stage_sum_max_err_us", trace.stage_sum_max_err_us, "us");
}

void AddPlanCacheMetrics(const f2db::EngineStats& before,
                         const f2db::EngineStats& after, Metrics* m) {
  const double hits =
      static_cast<double>(after.plan_cache_hits - before.plan_cache_hits);
  const double misses =
      static_cast<double>(after.plan_cache_misses - before.plan_cache_misses);
  m->Layer("engine.parse_plan_calls", hits + misses, "count");
  m->Layer("engine.plan_cache_hit_ratio",
           hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  m->Layer("engine.plan_cache_evictions",
           static_cast<double>(after.plan_cache_evictions -
                               before.plan_cache_evictions),
           "count");
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
      {"ops_per_s", "1/s"},     {"p50_us", "us"},
      {"cpu_us_per_op", "us"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"server.pre_engine_p50_us", "us"},
      {"server.post_engine_p50_us", "us"},
      {"server.requests_shed", "count"},
      {"server.protocol_errors", "count"},
      {"engine.parse_plan_p50_us", "us"},
      {"engine.parse_plan_calls", "count"},
      {"engine.plan_cache_hit_ratio", "ratio"},
      {"engine.plan_cache_evictions", "count"},
      {"engine.execute_p50_us", "us"},
      {"engine.execute_p99_us", "us"},
      {"engine.insert_p50_us", "us"},
      {"engine.advance_p50_us", "us"},
      {"engine.advance_p99_us", "us"},
      {"engine.reestimates", "count"},
      {"engine.wal_records", "count"},
      {"engine.wal_bytes_per_user_byte", "ratio"},
      {"engine.checkpoints", "count"},
      {"engine.compactions", "count"},
      {"storage.segments_sealed", "count"},
      {"storage.live_bytes_per_user_byte", "ratio"},
      {"recovery.wal_records_replayed", "count"},
      {"recovery.segment_records_recovered", "count"},
      {"sharded_engine.scatter_p50_us", "us"},
      {"sharded_engine.routed_p50_us", "us"},
      {"sharded_engine.misaligned_retries", "count"},
      {"core.selection_s", "s"},
      {"core.evaluation_s", "s"},
      {"core.iterations", "count"},
      {"core.models_created", "count"},
      {"core.accept_ratio", "ratio"},
      {"core.local_indicator_p50_us", "us"},
      {"ts.fit_p50_us", "us"},
      {"data.generate_s", "s"},
      {"bench.gen_late_p50_us", "us"},
      {"bench.gen_late_p99_us", "us"},
      {"bench.gen_late_max_us", "us"},
      {"bench.clean_window_frac", "ratio"},
      {"host.steal_s", "s"},
      {"tail.query_p99_us", "us"},
      {"tail.execute_p99_us", "us"},
      {"tail.insert_p99_us", "us"},
      {"trace.matched_spans", "count"},
      {"trace.unmatched_spans", "count"},
      {"trace.ambiguous_spans", "count"},
      {"trace.spans_dropped", "count"},
      {"trace.stage_sum_max_err_us", "us"},
      {"trace.overhead_p50_us", "us"},
      {"trace.overhead_ops_frac", "ratio"},
  };
  return names;
}

}  // namespace perfbench
