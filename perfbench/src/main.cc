// perfbench: the repository benchmark.
//
//   perfbench --workload serve|ingest|advise --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--pinned FILE] [--source SHA]
//
// Prints the run stamp, every metric by name and unit, the correctness
// checks, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, measured without
// tracing; with --trace 1 they are the per-layer set from a traced run,
// whose spans are written to DIR/trace-<workload>.csv at the end (the
// latest traced run of each workload is kept).
// Exits non-zero without a result when the run cannot be carried out.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve|ingest|advise --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--pinned FILE] "
               "[--source SHA]\n");
  return 2;
}

void PrintMetricLines(const char* kind,
                      const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("%s %s %s %s\n", kind, name.c_str(),
                JsonNumber(metric.value).c_str(), metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string source;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--pinned") {
      options.pinned_path = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || options.seconds <= 0) return Usage();

  const RunStamp stamp = MakeRunStamp(source);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("stamp {\"source\": %s, \"nproc\": %u, \"cpu_model\": %s, "
              "\"build_type\": %s}\n",
              JsonString(stamp.source).c_str(), stamp.nproc,
              JsonString(stamp.cpu_model).c_str(),
              JsonString(stamp.build_type).c_str());
  if (stamp.build_type != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build\n",
                 stamp.build_type.c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  RunOutput out;
  f2db::Status status;
  if (options.workload == "serve") {
    status = RunServe(options, &out);
  } else if (options.workload == "ingest") {
    status = RunIngest(options, &out);
  } else if (options.workload == "advise") {
    status = RunAdvise(options, &out);
  } else {
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s failed: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  if (out.totals.attempted == 0) {
    std::fprintf(stderr, "perfbench %s attempted nothing\n",
                 options.workload.c_str());
    return 1;
  }

  if (options.trace) {
    const std::string path =
        options.work_dir + "/trace-" + options.workload + ".csv";
    if (WriteSpans(path, out.spans)) {
      std::printf("# %zu spans written to %s\n", out.spans.size(),
                  path.c_str());
    }
  }

  // The result carries exactly one metric set; names a workload does not
  // measure are per-layer only and report 0 (that layer did no work).
  const auto& wanted =
      options.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  const auto& have =
      options.trace ? out.metrics.per_layer : out.metrics.end_to_end;
  for (std::size_t t = 0; t < kNumOpTypes; ++t) {
    const std::uint64_t attempted = out.totals.attempted_by_type[t];
    if (attempted == 0) continue;
    const std::string type = OpTypeName(static_cast<OpType>(t));
    out.metrics.Diag("failed_op_frac." + type,
                     static_cast<double>(out.totals.failed_by_type[t]) /
                         static_cast<double>(attempted),
                     "ratio");
    out.metrics.Diag("retries." + type,
                     static_cast<double>(out.totals.retries_by_type[t]),
                     "count");
  }
  PrintMetricLines("e2e", out.metrics.end_to_end);
  PrintMetricLines("layer", out.metrics.per_layer);
  PrintMetricLines("diag", out.metrics.diagnostics);
  std::printf("checks passed=%zu failed=%zu\n", out.checks.passed(),
              out.checks.failed());

  std::string metrics_json;
  for (const auto& [name, unit] : wanted) {
    const auto it = have.find(name);
    if (it == have.end() && !options.trace) {
      std::fprintf(stderr, "workload did not measure %s\n", name.c_str());
      return 1;
    }
    const double value = it == have.end() ? 0.0 : it->second.value;
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
                    ", \"unit\": " + JsonString(unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.checks.all_passed() ? "true" : "false",
      static_cast<unsigned long long>(out.totals.attempted),
      static_cast<unsigned long long>(out.totals.failed), metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
