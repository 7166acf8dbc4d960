#include "report.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  double fields[8] = {};
  for (double& field : fields) stat >> field;
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? fields[7] / static_cast<double>(ticks) : 0.0;
}

RunStamp MakeRunStamp(const std::string& source) {
  RunStamp stamp;
  stamp.source = source.empty() ? "unknown" : source;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        stamp.cpu_model = line.substr(colon + 1);
        stamp.cpu_model.erase(0, stamp.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  stamp.nproc = online > 0 ? static_cast<unsigned>(online)
                           : std::thread::hardware_concurrency();
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  return stamp;
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
    return;
  }
  ++failed_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
