// Measurement helpers shared by the perfbench workloads: percentiles,
// process/thread CPU clocks, peak memory, host steal time, the run stamp,
// named metrics and correctness checks, and the one-line JSON result.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock; the one time base of every span and
/// latency the benchmark records.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `values` (q in [0, 1]); sorts a copy. 0 when
/// empty.
double Percentile(std::vector<double> values, double q);

/// Median of `values`; 0 when empty.
inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// CPU seconds used by the whole process (user + system).
double ProcessCpuSeconds();

/// CPU seconds used by the calling thread.
double ThreadCpuSeconds();

/// Peak resident set size of the process in MiB (VmHWM).
double PeakRssMb();

/// Steal seconds summed over all CPUs since boot (/proc/stat); 0 when the
/// kernel does not report it.
double HostStealSeconds();

/// What every result records about the code and host it measured.
struct RunStamp {
  std::string source;      ///< git sha or source digest (from run.py)
  std::string cpu_model;
  unsigned nproc = 0;
  std::string build_type;
};

RunStamp MakeRunStamp(const std::string& source);

/// One named measurement.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one run. Workloads fill the end-to-end and per-layer
/// maps; diagnostics are printed but never part of the JSON result.
struct Metrics {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> diagnostics;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void Diag(const std::string& name, double value, const std::string& unit) {
    diagnostics[name] = {value, unit};
  }
};

/// Correctness checks of one run; the run is correct only when every check
/// passed. Failures are printed to stderr as they are recorded.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_passed() const { return failed_ == 0; }
  std::size_t passed() const { return passed_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t passed_ = 0;
  std::size_t failed_ = 0;
};

/// Op accounting that lands in the result's attempted/failed fields, also
/// kept per op type (indexed by the load generator's OpType) for the
/// failed_op_frac diagnostics.
struct OpTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed + shed + refused
  std::uint64_t attempted_by_type[3] = {};
  std::uint64_t failed_by_type[3] = {};
  std::uint64_t retries_by_type[3] = {};
};

/// Formats a double with all its significant digits for JSON.
std::string JsonNumber(double value);

/// Escapes a string for a JSON string literal (quotes included).
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
