// serve: read-only wire traffic against the paper's system.
//
// The advisor's configuration for Gen1000 (1,034 nodes) runs on an
// unsharded in-memory F2dbEngine behind a 1-reactor, 2-worker server.
// Four connections send raw QUERY and EXECUTE 50/50 over Zipf-skewed nodes
// and horizons 1..12: about 12k distinct statement texts against the
// 256-entry plan cache. An open-loop phase at a fixed 20k requests/s is
// followed by a closed-loop phase (4 connections, each waiting for its
// reply).

#include <algorithm>

#include "common/stopwatch.h"
#include "core/advisor.h"
#include "data/datasets.h"
#include "engine/engine.h"
#include "mixes.h"
#include "server/wire.h"
#include "statements.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kBaseSeries = 1000;
constexpr double kOpenRatePerS = 20000;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSetups = 5;
constexpr double kWarmupSeconds = 0.5;
constexpr std::size_t kSpanCapacity = 400000;
/// The closed-loop traced phase records only to pay the tracing cost; its
/// buffer holds a quarter-run at saturation.
constexpr std::size_t kClosedSpanCapacity = 1500000;

/// Everything one serve set-up builds. Members are destroyed in reverse:
/// connections close before the server stops, the server before the
/// engine it serves.
struct ServeSystem {
  std::unique_ptr<f2db::F2dbEngine> engine;
  std::unique_ptr<TracingEngine> tracing;
  std::unique_ptr<f2db::F2dbServer> server;
  std::unique_ptr<LoadGenerator> gen;
  std::vector<NodeRef> nodes;
  StatementIds ids;
  std::size_t models = 0;
  double generate_s = 0;
};

f2db::Result<std::unique_ptr<ServeSystem>> SetUpServe() {
  auto sys = std::make_unique<ServeSystem>();
  f2db::StopWatch generate;
  F2DB_ASSIGN_OR_RETURN(f2db::DataSet data, f2db::MakeGenX(kBaseSeries));
  sys->generate_s = generate.ElapsedSeconds();

  f2db::ModelFactory factory(
      f2db::ModelSpec::TripleExponentialSmoothing(data.season));
  f2db::ModelConfigurationAdvisor advisor(data.graph, factory,
                                          ReproducibleAdvisorOptions());
  F2DB_ASSIGN_OR_RETURN(f2db::AdvisorResult advised, advisor.Run());
  sys->models = advised.configuration.num_models();

  sys->nodes = NodeRefs(data.graph);
  sys->engine = std::make_unique<f2db::F2dbEngine>(data.graph);
  F2DB_RETURN_IF_ERROR(sys->engine->LoadConfiguration(advised.configuration,
                                                      advisor.evaluator()));
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

PhaseSpec Phase(double seconds, bool open, std::uint64_t seed) {
  PhaseSpec spec;
  spec.seconds = seconds;
  spec.open_rate_per_s = open ? kOpenRatePerS : 0;
  spec.open_loop.assign(kConnections, open);
  spec.seed = seed;
  return spec;
}

std::string DirectAnswer(const f2db::F2dbEngine& engine, const NodeRef& node,
                         std::size_t horizon) {
  auto result = engine.ExecuteSql(QueryText(node, horizon));
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string rendered;
  f2db::RenderQueryResultInto(result.value(), &rendered);
  return rendered;
}

/// Sampled replies equal the engine's direct answer, and raw QUERY and
/// EXECUTE of the same (node, horizon) are byte-identical.
void CheckAnswers(ServeSystem& sys, const ServeMix& mix, std::uint64_t seed,
                  Checks* checks) {
  std::size_t mismatched = 0;
  for (const ReplySample& sample : mix.samples()) {
    const NodeRef& node = mix.nodes()[sample.node_index];
    if (sample.status != f2db::StatusCode::kOk ||
        sample.body != DirectAnswer(*sys.engine, node, sample.horizon)) {
      ++mismatched;
    }
  }
  checks->Expect(!mix.samples().empty() && mismatched == 0,
                 "serve: " + std::to_string(mismatched) + " of " +
                     std::to_string(mix.samples().size()) +
                     " sampled replies differ from the direct answer");

  f2db::Rng rng(seed ^ 0x5eed);
  std::size_t pair_mismatches = 0;
  constexpr std::size_t kPairs = 64;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const NodeRef& node = sys.nodes[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(sys.nodes.size()) - 1))];
    const auto horizon = static_cast<std::size_t>(rng.UniformInt(1, 12));
    Op raw;
    Op prepared;
    MakeForecastOp(node, horizon, false, sys.ids, &raw);
    MakeForecastOp(node, horizon, true, sys.ids, &prepared);
    auto a = sys.gen->Call(0, raw.frame);
    auto b = sys.gen->Call(0, prepared.frame);
    if (!a.ok() || !b.ok() || a.value().status != f2db::StatusCode::kOk ||
        a.value().body != b.value().body ||
        a.value().body != DirectAnswer(*sys.engine, node, horizon)) {
      ++pair_mismatches;
    }
  }
  checks->Expect(pair_mismatches == 0,
                 "serve: " + std::to_string(pair_mismatches) +
                     " QUERY/EXECUTE pairs differ");
}

/// The warmed EXECUTE path (decode, bind, execute through the decorator
/// with tracing on, encode) performs no heap allocation.
void CheckExecuteAllocationFree(ServeSystem& sys, Checks* checks) {
  SpanBuffer spans(1024);
  TracingEngine traced(*sys.engine);
  traced.set_spans(&spans);
  const std::vector<NodeRef> reps = LevelRepresentatives(sys.nodes);
  auto plan = traced.ParsePlan(PreparedText(reps[1]));
  if (!plan.ok()) {
    checks->Expect(false, "serve: PREPARE text does not parse");
    return;
  }
  std::vector<std::string> bodies;
  for (const NodeRef& node : sys.nodes) {
    if (node.level_index != 1) continue;
    for (const char* h : {"1", "6", "12"}) {
      bodies.push_back(f2db::EncodeExecuteBody(1, {node.value, h}));
    }
    if (bodies.size() >= 24) break;
  }
  f2db::ExecuteBody body_scratch;
  f2db::Statement stmt_scratch;
  f2db::QueryResult result_scratch;
  std::string frame_scratch;
  bool all_ok = true;
  const auto run_once = [&](const std::string& body) {
    all_ok &= f2db::ParseExecuteBodyInto(body, &body_scratch).ok();
    all_ok &= f2db::BindStatementInto(plan.value()->tmpl, body_scratch.binds,
                                      &stmt_scratch)
                  .ok();
    all_ok &= traced
                  .ExecutePlanInto(*plan.value(), stmt_scratch.forecast,
                                   &result_scratch)
                  .ok();
    frame_scratch.clear();
    f2db::AppendForecastResponseFrame(f2db::FrameType::kExecute,
                                      result_scratch, &frame_scratch);
  };
  for (int round = 0; round < 2; ++round) {
    for (const std::string& body : bodies) run_once(body);
  }
  const std::uint64_t before = ThreadAllocations();
  for (const std::string& body : bodies) run_once(body);
  const std::uint64_t allocations = ThreadAllocations() - before;
  checks->Expect(all_ok, "serve: hot-path EXECUTE failed");
  checks->Expect(spans.Snapshot().size() >= 3 * bodies.size(),
                 "serve: decorator recorded the hot-path spans");
  checks->Expect(allocations == 0,
                 "serve: warmed EXECUTE through the decorator allocated " +
                     std::to_string(allocations) + " times");
}

}  // namespace

f2db::Status RunServe(const RunOptions& options, RunOutput* out) {
  Metrics& m = out->metrics;
  F2DB_ASSIGN_OR_RETURN(auto pinned, ReadPinned(options.pinned_path));

  // Set up several times and report the median; the last system serves.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::unique_ptr<ServeSystem> sys;
  for (std::size_t i = 0; i < kSetups; ++i) {
    sys.reset();
    f2db::StopWatch watch;
    F2DB_ASSIGN_OR_RETURN(sys, SetUpServe());
    setup_s.push_back(watch.ElapsedSeconds());
    generate_s.push_back(sys->generate_s);
  }
  m.E2e("setup_s", Median(setup_s), "s");
  m.Layer("data.generate_s", Median(generate_s), "s");
  out->checks.Expect(
      static_cast<double>(sys->models) == pinned["serve.models"],
      "serve: Gen1000 configuration has " + std::to_string(sys->models) +
          " models, pinned " + std::to_string(pinned["serve.models"]));
  out->checks.Expect(sys->nodes.size() == 1034, "serve: Gen1000 has 1034 nodes");

  ServeMix mix(sys->nodes, sys->ids, options.seed);
  mix.SampleReplies(97, 2000);
  LoadGenerator& gen = *sys->gen;
  const PhaseResult warmup =
      gen.Run(Phase(kWarmupSeconds, false, options.seed), mix);
  CountPhase(warmup, "serve warm-up", out);

  const double half = options.seconds / 2;
  const double steal0 = HostStealSeconds();
  if (!options.trace) {
    const double cpu0 = ProcessCpuSeconds();
    const PhaseResult open = gen.Run(Phase(half, true, options.seed), mix);
    const double open_cpu = ProcessCpuSeconds() - cpu0;
    const PhaseResult closed = gen.Run(Phase(half, false, options.seed), mix);
    CountPhase(open, "serve open loop", out);
    CountPhase(closed, "serve closed loop", out);

    const auto& sq = closed.of(OpType::kQuery).latency_us;
    const auto& se = closed.of(OpType::kExecute).latency_us;
    const double sat =
        WindowedRate(closed, {OpType::kQuery, OpType::kExecute}, half);
    // The gated latency is the closed-loop one: a burst of host steal that
    // pushes the server below the open-loop rate builds a backlog that
    // inflates every later open-loop latency (measured: p50 from 65 us to
    // 93 ms in one run), while closed-loop latency degrades only in
    // proportion. The open-loop p50 is reported beside it.
    const double sat_query_p50 = WindowedP50(closed, OpType::kQuery, half);
    m.E2e("ops_per_s", sat, "1/s");
    m.E2e("p50_us", sat_query_p50, "us");
    m.E2e("cpu_us_per_op", CpuUsPerOp(open, open_cpu), "us");
    m.Diag("query_p50_us", WindowedP50(open, OpType::kQuery, half), "us");
    m.Diag("execute_p50_us", WindowedP50(open, OpType::kExecute, half), "us");
    m.Diag("sat_ops_per_s", sat, "ops/s");
    m.Diag("sat_query_p90_us", Percentile(sq, 0.9), "us");
    m.Diag("sat_execute_p90_us", Percentile(se, 0.9), "us");
    m.Diag("sat_query_p50_us", sat_query_p50, "us");
    m.Diag("sat_execute_p50_us", WindowedP50(closed, OpType::kExecute, half),
           "us");
    m.Diag("open_loop.requests", static_cast<double>(open.completed_ok()),
           "count");
    AddNoiseMetrics(open, HostStealSeconds() - steal0, &m, false);
  } else {
    // Untraced and traced halves of each loop type: the differences are
    // the tracing overhead; only the traced open-loop half is matched.
    const double quarter = options.seconds / 4;
    const PhaseResult open_plain =
        gen.Run(Phase(quarter, true, options.seed), mix);
    SpanBuffer spans(kSpanCapacity);
    sys->tracing->set_spans(&spans);
    PhaseSpec traced_spec = Phase(quarter, true, options.seed + 1);
    traced_spec.record_requests = true;
    const f2db::EngineStats stats0 = sys->engine->stats();
    const PhaseResult open_traced = gen.Run(traced_spec, mix);
    const f2db::EngineStats stats1 = sys->engine->stats();
    sys->tracing->set_spans(nullptr);
    const PhaseResult closed_plain =
        gen.Run(Phase(quarter, false, options.seed), mix);
    SpanBuffer closed_spans(kClosedSpanCapacity);
    sys->tracing->set_spans(&closed_spans);
    const PhaseResult closed_traced =
        gen.Run(Phase(quarter, false, options.seed), mix);
    sys->tracing->set_spans(nullptr);
    for (const PhaseResult* p :
         {&open_plain, &open_traced, &closed_plain, &closed_traced}) {
      CountPhase(*p, "serve traced run", out);
    }

    out->spans = spans.Snapshot();
    const TraceSummary trace =
        SummarizeTrace(open_traced.records, &out->spans, nullptr);
    AddTraceLayerMetrics(trace, &m);
    AddPlanCacheMetrics(stats0, stats1, &m);
    m.Layer("trace.spans_dropped",
            static_cast<double>(spans.dropped() + closed_spans.dropped()),
            "count");
    m.Layer("trace.overhead_p50_us",
            WindowedP50(open_traced, OpType::kQuery, quarter) -
                WindowedP50(open_plain, OpType::kQuery, quarter),
            "us");
    const double plain_ops = WindowedRate(
        closed_plain, {OpType::kQuery, OpType::kExecute}, quarter);
    const double traced_ops = WindowedRate(
        closed_traced, {OpType::kQuery, OpType::kExecute}, quarter);
    m.Layer("trace.overhead_ops_frac",
            plain_ops > 0 ? 1 - traced_ops / plain_ops : 0, "ratio");
    AddNoiseMetrics(open_plain, HostStealSeconds() - steal0, &m, true);
    out->checks.Expect(trace.match.matched > 0,
                       "serve: engine spans matched to requests");
    out->checks.Expect(trace.stage_sum_max_err_us < 0.01,
                       "serve: stage times add up to each round trip");
  }

  const f2db::ServerStats server = sys->server->stats();
  m.Layer("server.requests_shed", static_cast<double>(server.requests_shed),
          "count");
  m.Layer("server.protocol_errors",
          static_cast<double>(server.protocol_errors), "count");

  CheckAnswers(*sys, mix, options.seed, &out->checks);
  CheckExecuteAllocationFree(*sys, &out->checks);
  m.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  return f2db::Status::OK();
}

}  // namespace perfbench
