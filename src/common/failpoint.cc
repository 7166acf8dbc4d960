#include "common/failpoint.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "common/string_util.h"

namespace f2db {
namespace failpoint {
namespace {

/// One registered site. Counters reset whenever the site is (re-)armed.
struct Site {
  Policy policy;
  std::size_t evaluations = 0;
  std::size_t triggers = 0;
  std::unique_ptr<Rng> rng;  ///< Seeded stream for kProbability sites.
};

/// Registry state. `g_any_enabled` is the hot-path guard: Evaluate() reads
/// it with one relaxed load and bails before touching the mutex when no
/// site is armed anywhere.
std::atomic<bool> g_any_enabled{false};

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<std::string, Site>& Registry() {
  static auto* registry = new std::map<std::string, Site>();
  return *registry;
}

/// Recomputes the fast-path guard. Caller holds RegistryMutex().
void RefreshAnyEnabledLocked() {
  bool any = false;
  for (const auto& [name, site] : Registry()) {
    if (site.policy.mode != Policy::Mode::kOff) {
      any = true;
      break;
    }
  }
  g_any_enabled.store(any, std::memory_order_relaxed);
}

/// Evaluates an armed site's policy. Caller holds RegistryMutex().
std::optional<Fault> EvaluateLocked(Site& site) {
  const Policy& policy = site.policy;
  if (policy.mode == Policy::Mode::kOff) return std::nullopt;
  ++site.evaluations;
  if (policy.max_triggers > 0 && site.triggers >= policy.max_triggers) {
    return std::nullopt;
  }
  bool fire = false;
  switch (policy.mode) {
    case Policy::Mode::kOff:
      break;
    case Policy::Mode::kAlways:
      fire = true;
      break;
    case Policy::Mode::kEveryNth:
      fire = policy.every_n >= 1 && site.evaluations % policy.every_n == 0;
      break;
    case Policy::Mode::kProbability:
      if (site.rng == nullptr) site.rng = std::make_unique<Rng>(policy.seed);
      fire = site.rng->NextDouble() < policy.probability;
      break;
  }
  if (!fire) return std::nullopt;
  ++site.triggers;
  return policy.fault;
}

/// Parses a max-trigger count. A negative count is malformed: cast to
/// size_t it would arm a site with an effectively unlimited budget.
Result<std::size_t> ParseMaxTriggers(const std::string& text,
                                     std::string_view entry) {
  F2DB_ASSIGN_OR_RETURN(const std::int64_t max, ParseInt(text));
  if (max < 0) {
    return Status::InvalidArgument("failpoint max must be >= 0: " +
                                   std::string(entry));
  }
  return static_cast<std::size_t>(max);
}

/// Parses one "<site>=off | [<fault>:]<mode> | <fault>" entry. Returns the
/// armed (site, policy).
Result<std::pair<std::string, Policy>> ParseEntry(std::string_view entry) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("failpoint spec entry missing '=': " +
                                   std::string(entry));
  }
  const std::string site{TrimWhitespace(entry.substr(0, eq))};
  if (site.empty()) {
    return Status::InvalidArgument("failpoint spec entry has empty site: " +
                                   std::string(entry));
  }
  const std::vector<std::string> parts =
      SplitString(TrimWhitespace(entry.substr(eq + 1)), ':');
  if (parts.empty() || parts[0].empty()) {
    return Status::InvalidArgument("failpoint spec entry has empty policy: " +
                                   std::string(entry));
  }
  if (parts[0] == "off") {
    if (parts.size() != 1) {
      return Status::InvalidArgument("failpoint 'off' takes no arguments: " +
                                     std::string(entry));
    }
    return std::make_pair(site, Policy::Off());
  }

  // An optional fault keyword picks an errno outcome; the trigger mode
  // after it then defaults to always.
  std::optional<Fault> fault;
  if (parts[0] == "eio") fault = Fault{Outcome::kErrno, EIO};
  if (parts[0] == "enospc") fault = Fault{Outcome::kErrno, ENOSPC};
  if (parts[0] == "short") fault = Fault{Outcome::kShortWrite, EIO};
  const std::size_t at = fault.has_value() ? 1 : 0;  // index of the mode

  Policy policy = Policy::Always();
  if (at < parts.size()) {
    const std::string& mode = parts[at];
    const std::size_t args = parts.size() - at - 1;
    const auto arg = [&](std::size_t i) -> const std::string& {
      return parts[at + 1 + i];
    };
    if (mode == "always" && args <= 1) {
      if (args == 1) {
        F2DB_ASSIGN_OR_RETURN(policy.max_triggers,
                              ParseMaxTriggers(arg(0), entry));
      }
    } else if (mode == "nth" && (args == 1 || args == 2)) {
      F2DB_ASSIGN_OR_RETURN(const std::int64_t n, ParseInt(arg(0)));
      if (n < 1) {
        return Status::InvalidArgument("failpoint nth period must be >= 1: " +
                                       std::string(entry));
      }
      policy = Policy::EveryNth(static_cast<std::size_t>(n));
      if (args == 2) {
        F2DB_ASSIGN_OR_RETURN(policy.max_triggers,
                              ParseMaxTriggers(arg(1), entry));
      }
    } else if (mode == "prob" && (args == 1 || args == 2)) {
      F2DB_ASSIGN_OR_RETURN(const double p, ParseDouble(arg(0)));
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(
            "failpoint probability must be in [0, 1]: " + std::string(entry));
      }
      std::uint64_t seed = 42;
      if (args == 2) {
        F2DB_ASSIGN_OR_RETURN(const std::int64_t s, ParseInt(arg(1)));
        seed = static_cast<std::uint64_t>(s);
      }
      policy = Policy::WithProbability(p, seed);
    } else {
      return Status::InvalidArgument("unknown failpoint policy: " +
                                     std::string(entry));
    }
  }
  if (fault.has_value()) policy.fault = *fault;
  return std::make_pair(site, policy);
}

/// Applies one environment variable's spec. Returns the spec, or "" when
/// the variable is unset or its spec was ignored.
std::string ApplyEnvSpec(const std::string& variable) {
  const char* spec = std::getenv(variable.c_str());
  if (spec == nullptr || spec[0] == '\0') return "";
  const Status status = EnableFromSpec(spec);
  if (status.ok()) return spec;
  // A silently ignored spec means a fault-injection test run that tests
  // nothing. Under <variable>_STRICT=1 that is fatal; otherwise the
  // legacy behavior (warn and run un-injected) is kept for benches.
  const char* strict = std::getenv((variable + "_STRICT").c_str());
  if (strict != nullptr && strict[0] == '1') {
    std::fprintf(stderr, "%s malformed (strict mode, aborting): %s\n",
                 variable.c_str(), status.ToString().c_str());
    std::abort();
  }
  std::fprintf(stderr, "%s ignored: %s\n", variable.c_str(),
               status.ToString().c_str());
  return "";
}

}  // namespace

void Register(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().try_emplace(site);
}

std::vector<std::string> RegisteredSites() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> out;
  out.reserve(Registry().size());
  for (const auto& [name, site] : Registry()) out.push_back(name);
  return out;  // std::map iterates in sorted order
}

void Enable(const std::string& site, const Policy& policy) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Site& entry = Registry()[site];
  entry.policy = policy;
  entry.evaluations = 0;
  entry.triggers = 0;
  entry.rng.reset();
  RefreshAnyEnabledLocked();
}

void Disable(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(site);
  if (it != Registry().end()) {
    it->second.policy = Policy::Off();
    it->second.rng.reset();
  }
  RefreshAnyEnabledLocked();
}

void DisableAll() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (auto& [name, site] : Registry()) {
    site.policy = Policy::Off();
    site.evaluations = 0;
    site.triggers = 0;
    site.rng.reset();
  }
  g_any_enabled.store(false, std::memory_order_relaxed);
}

bool AnyEnabled() { return g_any_enabled.load(std::memory_order_relaxed); }

std::size_t Evaluations(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(site);
  return it == Registry().end() ? 0 : it->second.evaluations;
}

std::size_t Triggers(const std::string& site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(site);
  return it == Registry().end() ? 0 : it->second.triggers;
}

std::optional<Fault> Evaluate(const char* site) {
  if (site == nullptr) return std::nullopt;
  if (!g_any_enabled.load(std::memory_order_relaxed)) return std::nullopt;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Site& entry = Registry()[site];
  return EvaluateLocked(entry);
}

Status EnableFromSpec(const std::string& spec) {
  // Validate the whole spec before arming anything, so a malformed entry
  // cannot leave the registry half-configured.
  std::vector<std::pair<std::string, Policy>> parsed;
  for (const std::string& raw : SplitString(spec, ';')) {
    const std::string_view entry = TrimWhitespace(raw);
    if (entry.empty()) continue;
    F2DB_ASSIGN_OR_RETURN(auto armed, ParseEntry(entry));
    parsed.push_back(std::move(armed));
  }
  for (const auto& [site, policy] : parsed) Enable(site, policy);
  return Status::OK();
}

std::string InitFromEnv() {
  std::string applied = ApplyEnvSpec("F2DB_FAILPOINTS");
  const std::string io = ApplyEnvSpec("F2DB_IOFAULTS");
  if (!applied.empty() && !io.empty()) applied += ';';
  return applied + io;
}

Status InjectedFailure(const char* site) {
  return Status::Unavailable(std::string("failpoint '") + site +
                             "' injected failure");
}

}  // namespace failpoint
}  // namespace f2db
