// advise: the paper's offline path.
//
// ModelConfigurationAdvisor in reproducible-cost mode on the E1 data sets
// (Tourism, Sales, Energy, Gen10k) plus Gen50k for E8 scale. Passes over
// all five repeat until the run's time is up; each pass must reproduce the
// pinned configuration error and model count of every data set exactly.
// No engine and no server run here.

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "core/advisor.h"
#include "core/indicators.h"
#include "data/datasets.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kSetups = 5;
constexpr std::size_t kProbeNodes = 200;

struct Sets {
  std::vector<f2db::DataSet> data;
  double generate_s = 0;
};

f2db::Result<Sets> Generate() {
  Sets sets;
  f2db::StopWatch watch;
  F2DB_ASSIGN_OR_RETURN(f2db::DataSet tourism, f2db::MakeTourism());
  F2DB_ASSIGN_OR_RETURN(f2db::DataSet sales, f2db::MakeSales());
  F2DB_ASSIGN_OR_RETURN(f2db::DataSet energy, f2db::MakeEnergy());
  F2DB_ASSIGN_OR_RETURN(f2db::DataSet gen10k, f2db::MakeGenX(10000));
  F2DB_ASSIGN_OR_RETURN(f2db::DataSet gen50k, f2db::MakeGenX(50000));
  gen10k.name = "gen10k";
  gen50k.name = "gen50k";
  sets.data.push_back(std::move(tourism));
  sets.data.push_back(std::move(sales));
  sets.data.push_back(std::move(energy));
  sets.data.push_back(std::move(gen10k));
  sets.data.push_back(std::move(gen50k));
  sets.generate_s = watch.ElapsedSeconds();
  return sets;
}

/// One advisor run on one data set.
struct Advised {
  double wall_s = 0;
  double cpu_s = 0;
  double steal_s = 0;  ///< host steal (all CPUs) during the run
  std::vector<double> iteration_us;
  double error = 0;
  std::size_t models = 0;
  std::size_t iterations = 0;
  std::size_t created = 0;
  std::size_t accepted = 0;
  double selection_s = 0;
  double evaluation_s = 0;
  std::size_t indicator_size = 0;
};

f2db::Result<Advised> AdviseOne(const f2db::DataSet& data,
                                SpanBuffer* spans, std::uint64_t request) {
  Advised out;
  f2db::ModelFactory factory(
      f2db::ModelSpec::TripleExponentialSmoothing(data.season));
  f2db::ModelConfigurationAdvisor advisor(data.graph, factory,
                                          ReproducibleAdvisorOptions());
  std::int64_t last_ns = NowNs();
  advisor.set_iteration_callback([&](const f2db::AdvisorSnapshot&) {
    const std::int64_t now = NowNs();
    out.iteration_us.push_back(static_cast<double>(now - last_ns) / 1e3);
    if (spans != nullptr) {
      Span span;
      span.kind = SpanKind::kAdvisorIteration;
      span.thread = TraceThreadId();
      span.request = request;
      span.start_ns = last_ns;
      span.end_ns = now;
      spans->Add(span);
    }
    last_ns = now;
    return true;
  });
  const double steal0 = HostStealSeconds();
  const double cpu0 = ProcessCpuSeconds();
  f2db::StopWatch watch;
  F2DB_ASSIGN_OR_RETURN(f2db::AdvisorResult result, advisor.Run());
  out.wall_s = watch.ElapsedSeconds();
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.steal_s = HostStealSeconds() - steal0;
  out.error = result.final_error;
  out.models = result.configuration.num_models();
  out.iterations = result.iterations;
  out.created = result.models_created;
  out.accepted = result.models_accepted;
  for (const f2db::AdvisorSnapshot& snap : result.history) {
    out.selection_s += snap.selection_seconds;
    out.evaluation_s += snap.evaluation_seconds;
  }
  out.indicator_size = advisor.indicator_size();
  return out;
}

/// Direct calls into the indicator and model-fitting layers on sampled
/// nodes of one data set: ComputeLocal at the advisor's |I| and
/// CreateAndFit on the training series.
void ProbeLayers(const f2db::DataSet& data, std::size_t indicator_size,
                 SpanBuffer* spans, Metrics* m) {
  const f2db::AdvisorOptions options = ReproducibleAdvisorOptions();
  f2db::ConfigurationEvaluator evaluator(data.graph, options.train_fraction);
  f2db::IndicatorComputer indicators(evaluator, options.indicator);
  f2db::ModelFactory factory(
      f2db::ModelSpec::TripleExponentialSmoothing(data.season));
  const std::size_t n = data.graph.num_nodes();
  std::vector<double> local_us;
  std::vector<double> fit_us;
  for (std::size_t i = 0; i < kProbeNodes; ++i) {
    const auto node = static_cast<f2db::NodeId>((i * 7919) % n);
    Span span;
    span.thread = TraceThreadId();
    span.key = node;
    span.kind = SpanKind::kComputeLocal;
    span.start_ns = NowNs();
    const f2db::LocalIndicator local =
        indicators.ComputeLocal(node, indicator_size);
    span.end_ns = NowNs();
    local_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    if (spans != nullptr) spans->Add(span);

    const f2db::TimeSeries train = evaluator.TrainSeries(node);
    span.kind = SpanKind::kCreateAndFit;
    span.start_ns = NowNs();
    const auto model = factory.CreateAndFit(train);
    span.end_ns = NowNs();
    fit_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    if (spans != nullptr) spans->Add(span);
    (void)local;
    (void)model;
  }
  m->Layer("core.local_indicator_p50_us", Median(local_us), "us");
  m->Layer("ts.fit_p50_us", Median(fit_us), "us");
}

}  // namespace

f2db::Status RunAdvise(const RunOptions& options, RunOutput* out) {
  Metrics& m = out->metrics;
  F2DB_ASSIGN_OR_RETURN(auto pinned, ReadPinned(options.pinned_path));

  std::vector<double> setup_s;
  Sets sets;
  for (std::size_t i = 0; i < kSetups; ++i) {
    sets = Sets();
    F2DB_ASSIGN_OR_RETURN(sets, Generate());
    setup_s.push_back(sets.generate_s);
  }
  m.E2e("setup_s", Median(setup_s), "s");
  m.Layer("data.generate_s", Median(setup_s), "s");

  SpanBuffer spans(1 << 16);
  std::vector<double> pass_s;
  std::vector<double> plain_pass_s;
  std::vector<double> traced_pass_s;
  std::vector<std::vector<Advised>> runs_by_set(sets.data.size());
  std::vector<Advised> last_pass;
  const double steal0 = HostStealSeconds();
  f2db::StopWatch elapsed;
  std::uint64_t request = 0;
  // At least three passes, so the pass time is a median even when one
  // pass outlasts --seconds.
  while (pass_s.size() < 3 || elapsed.ElapsedSeconds() < options.seconds) {
    // A traced run alternates untraced and traced passes; the difference
    // of their medians is the tracing overhead.
    const bool trace_this_pass = options.trace && pass_s.size() % 2 == 1;
    std::vector<Advised> pass;
    double wall = 0;
    for (const f2db::DataSet& data : sets.data) {
      ++out->totals.attempted;
      auto advised =
          AdviseOne(data, trace_this_pass ? &spans : nullptr, request++);
      if (!advised.ok()) {
        ++out->totals.failed;
        return advised.status();
      }
      wall += advised.value().wall_s;
      runs_by_set[pass.size()].push_back(advised.value());
      pass.push_back(advised.value());
    }
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const std::string& name = sets.data[i].name;
      const double want_error = pinned["advise." + name + ".error"];
      const double want_models = pinned["advise." + name + ".models"];
      out->checks.Expect(
          std::abs(pass[i].error - want_error) < 5e-7 &&
              static_cast<double>(pass[i].models) == want_models,
          "advise: " + name + " gave error " + JsonNumber(pass[i].error) +
              " with " + std::to_string(pass[i].models) +
              " models, pinned " + JsonNumber(want_error) + " / " +
              JsonNumber(want_models));
    }
    (trace_this_pass ? traced_pass_s : plain_pass_s).push_back(wall);
    pass_s.push_back(wall);
    last_pass = std::move(pass);
  }
  m.Diag("host.steal_s", HostStealSeconds() - steal0, "s");

  // Like the serving workloads' clean windows: per data set, the runs in
  // which the host stole (almost) no CPU, and at least the least stolen
  // ones. Advisor time per pass is each data set's median over those
  // runs, summed.
  double advise_s = 0;
  double usable_cpu_s = 0;
  std::size_t usable_created = 0;
  std::size_t clean_runs = 0;
  std::size_t total_runs = 0;
  std::vector<double> iteration_us;
  for (const std::vector<Advised>& runs : runs_by_set) {
    // Steal per 0.5 s of the run, comparable to the windows' threshold.
    std::vector<double> steal;
    for (const Advised& run : runs) {
      steal.push_back(run.steal_s * 0.5 / std::max(run.wall_s, 0.5));
      clean_runs += steal.back() <= kCleanWindowStealS ? 1 : 0;
    }
    total_runs += runs.size();
    const std::vector<bool> pick = LeastStolen(steal);
    std::vector<const Advised*> usable;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (pick[i]) usable.push_back(&runs[i]);
    }
    std::vector<double> walls;
    for (const Advised* run : usable) {
      walls.push_back(run->wall_s);
      usable_cpu_s += run->cpu_s;
      usable_created += run->created;
      iteration_us.insert(iteration_us.end(), run->iteration_us.begin(),
                          run->iteration_us.end());
    }
    advise_s += Median(walls);
  }
  m.Layer("bench.clean_window_frac",
         static_cast<double>(clean_runs) / static_cast<double>(total_runs),
         "ratio");

  double error_sum = 0;
  std::size_t models = 0;
  std::size_t iterations = 0;
  std::size_t created = 0;
  std::size_t accepted = 0;
  double selection_s = 0;
  double evaluation_s = 0;
  for (std::size_t i = 0; i < last_pass.size(); ++i) {
    const Advised& a = last_pass[i];
    m.Diag("advise." + sets.data[i].name + ".error", a.error, "SMAPE");
    m.Diag("advise." + sets.data[i].name + ".models",
           static_cast<double>(a.models), "count");
    m.Diag("advise." + sets.data[i].name + ".seconds", a.wall_s, "s");
    error_sum += a.error;
    models += a.models;
    iterations += a.iterations;
    created += a.created;
    accepted += a.accepted;
    selection_s += a.selection_s;
    evaluation_s += a.evaluation_s;
  }
  m.E2e("ops_per_s", static_cast<double>(created) / advise_s, "1/s");
  m.E2e("p50_us", Median(iteration_us), "us");
  m.E2e("cpu_us_per_op",
        usable_cpu_s * 1e6 /
            static_cast<double>(std::max<std::size_t>(usable_created, 1)),
        "us");
  m.Diag("advise_s", advise_s, "s");
  m.Diag("advise_error", error_sum / static_cast<double>(last_pass.size()),
         "SMAPE");
  m.Diag("advise_models", static_cast<double>(models), "count");
  m.Diag("advise.passes", static_cast<double>(pass_s.size()), "count");

  m.Layer("core.selection_s", selection_s, "s");
  m.Layer("core.evaluation_s", evaluation_s, "s");
  m.Layer("core.iterations", static_cast<double>(iterations), "count");
  m.Layer("core.models_created", static_cast<double>(created), "count");
  m.Layer("core.accept_ratio",
          created > 0 ? static_cast<double>(accepted) / created : 0, "ratio");
  if (options.trace) {
    // Gen10k: the E1 set whose advisor time the fits and indicators
    // dominate.
    ProbeLayers(sets.data[3], last_pass[3].indicator_size, &spans, &m);
    m.Layer("trace.overhead_ops_frac",
            1 - Median(plain_pass_s) / Median(traced_pass_s), "ratio");
    m.Layer("trace.spans_dropped", static_cast<double>(spans.dropped()),
            "count");
    out->spans = spans.Snapshot();
  }
  m.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  return f2db::Status::OK();
}

}  // namespace perfbench
