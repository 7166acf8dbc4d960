// The benchmark's pinned advisor outcomes, checked on the small E1 sets.
//
// perfbench's `advise` workload pins the exact configuration error and
// model count the advisor reaches in reproducible-cost mode. This test
// reads the same file (F2DB_BENCHMARK_PINS, set by CMake) so a flipped
// advisor decision fails here without running the benchmark.

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "data/datasets.h"

namespace f2db {
namespace {

std::map<std::string, double> ReadPins() {
  std::map<std::string, double> pins;
  std::ifstream in(F2DB_BENCHMARK_PINS);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    double value = 0;
    if (fields >> name >> value) pins[name] = value;
  }
  return pins;
}

// The options of the benchmark's advise workload.
AdvisorOptions BenchmarkOptions() {
  AdvisorOptions options;
  options.seed = 2013;
  options.models_per_iteration = 8;
  options.stop.max_iterations = 150;
  options.count_models_as_cost = true;
  options.num_threads = 2;
  return options;
}

void ExpectPinned(const Result<DataSet>& made, const std::string& name) {
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const DataSet& data = made.value();
  const std::map<std::string, double> pins = ReadPins();
  const auto error = pins.find("advise." + name + ".error");
  const auto models = pins.find("advise." + name + ".models");
  ASSERT_NE(error, pins.end()) << "no pins for " << name << " in "
                               << F2DB_BENCHMARK_PINS;
  ASSERT_NE(models, pins.end());

  ModelFactory factory(ModelSpec::TripleExponentialSmoothing(data.season));
  ModelConfigurationAdvisor advisor(data.graph, factory, BenchmarkOptions());
  auto result = advisor.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(std::abs(result.value().final_error - error->second), 5e-7)
      << name << " error " << result.value().final_error;
  EXPECT_EQ(static_cast<double>(result.value().configuration.num_models()),
            models->second)
      << name;
}

TEST(AdvisorPinned, Tourism) { ExpectPinned(MakeTourism(), "tourism"); }

TEST(AdvisorPinned, Sales) { ExpectPinned(MakeSales(), "sales"); }

TEST(AdvisorPinned, Energy) { ExpectPinned(MakeEnergy(), "energy"); }

}  // namespace
}  // namespace f2db
