// Failpoints: named fault-injection sites threaded through the hot paths
// and the durable I/O paths.
//
// A failpoint is a named site in library code that tests and benches can
// arm with a trigger policy — always, every-Nth evaluation, or a
// probability drawn from a seeded deterministic Rng — and an outcome:
//   - kFail: the surrounding operation fails with StatusCode::kUnavailable
//     exactly as a real transient failure would. Model fitting, optimizer
//     convergence, insert ingestion, catalog decoding and lazy
//     re-estimation carry such sites, which is how the engine's
//     graceful-degradation ladder is exercised end to end (see DESIGN.md,
//     "Failure semantics and the degradation ladder").
//   - kErrno / kShortWrite: an fsio choke point (storage/fsio.h) fails its
//     write or fsync with an errno, after landing a real prefix of the
//     buffer in the short-write case (DESIGN.md §15, "Disk-fault policy").
//
// Cost model: when no site is armed anywhere, Evaluate() is a single
// relaxed atomic load — safe to leave in production hot paths. While any
// site is armed, evaluations serialize on one registry mutex (fault
// injection is a test/bench mode, not a production mode).
//
// Sites self-register at static-initialization time via F2DB_DEFINE_FAILPOINT
// so tests can enumerate every site linked into the binary
// (failpoint::RegisteredSites) and fire each one.

#ifndef F2DB_COMMON_FAILPOINT_H_
#define F2DB_COMMON_FAILPOINT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace f2db {
namespace failpoint {

/// What an armed site injects when it fires.
enum class Outcome {
  kFail,        ///< The operation fails with InjectedFailure(site).
  kErrno,       ///< The I/O call fails with `err`; no bytes are written.
  kShortWrite,  ///< A prefix of the buffer is written for real, then the
                ///< call fails with `err` (a torn mid-call write).
};

/// One firing of a site.
struct Fault {
  Outcome outcome = Outcome::kFail;
  int err = 0;  ///< The errno to surface for kErrno / kShortWrite.
};

/// Per-site policy: when the site fires, and what it injects.
struct Policy {
  enum class Mode {
    kOff,          ///< Never triggers.
    kAlways,       ///< Triggers on every evaluation.
    kEveryNth,     ///< Triggers on every n-th evaluation (n, 2n, 3n, ...).
    kProbability,  ///< Triggers with probability p per evaluation (seeded).
  };

  Mode mode = Mode::kOff;
  std::size_t every_n = 0;      ///< kEveryNth period (>= 1).
  double probability = 0.0;     ///< kProbability trigger chance in [0, 1].
  std::uint64_t seed = 42;      ///< Seeds the site's deterministic Rng.
  /// Stop triggering after this many triggers; 0 = unlimited. The site
  /// stays armed (counters keep advancing) but no longer fires — this is
  /// how a bounded "fault window" is expressed.
  std::size_t max_triggers = 0;
  Fault fault;                  ///< What a firing injects.

  static Policy Off() { return {}; }
  static Policy Always(std::size_t max_triggers = 0) {
    Policy p;
    p.mode = Mode::kAlways;
    p.max_triggers = max_triggers;
    return p;
  }
  static Policy EveryNth(std::size_t n, std::size_t max_triggers = 0) {
    Policy p;
    p.mode = Mode::kEveryNth;
    p.every_n = n;
    p.max_triggers = max_triggers;
    return p;
  }
  static Policy WithProbability(double probability, std::uint64_t seed = 42,
                                std::size_t max_triggers = 0) {
    Policy p;
    p.mode = Mode::kProbability;
    p.probability = probability;
    p.seed = seed;
    p.max_triggers = max_triggers;
    return p;
  }

  /// This trigger policy, injecting errno `error` instead of kFail.
  Policy Errno(int error) const {
    Policy p = *this;
    p.fault = {Outcome::kErrno, error};
    return p;
  }
  /// This trigger policy, injecting a torn write that ends in `error`.
  Policy ShortWrite(int error) const {
    Policy p = *this;
    p.fault = {Outcome::kShortWrite, error};
    return p;
  }
};

/// Registers a site name (idempotent). Normally invoked through
/// F2DB_DEFINE_FAILPOINT at static-initialization time.
void Register(const std::string& site);

/// Names of all registered sites, sorted (sites linked into the binary via
/// F2DB_DEFINE_FAILPOINT plus any site ever armed or evaluated).
std::vector<std::string> RegisteredSites();

/// Arms `site` with `policy` (registering it if unknown) and resets the
/// site's counters and Rng stream.
void Enable(const std::string& site, const Policy& policy);

/// Disarms one site (counters are kept for post-mortem assertions).
void Disable(const std::string& site);

/// Disarms every site and clears all counters.
void DisableAll();

/// True while at least one site is armed.
bool AnyEnabled();

/// Evaluations of `site` since it was last armed.
std::size_t Evaluations(const std::string& site);

/// Triggers fired by `site` since it was last armed.
std::size_t Triggers(const std::string& site);

/// Decides whether — and how — `site` fails now. Returns nothing when the
/// site does not fire, is unarmed, or is nullptr (anonymous I/O, never
/// injected). The fast path (no site armed anywhere) is one relaxed
/// atomic load.
std::optional<Fault> Evaluate(const char* site);

/// True when `site` fires now, whatever its outcome.
inline bool Triggered(const char* site) { return Evaluate(site).has_value(); }

/// Arms sites from a spec string:
///   "engine.refit=always;io.wal_append=eio:nth:3;ts.arima_fit=prob:0.1:7"
/// Entry grammar (';'-separated, whitespace ignored):
///   <site>=off | [<fault>:]<mode> | <fault>
///   <fault> := eio | enospc | short        (short = partial write + EIO)
///   <mode>  := always[:max] | nth:<n>[:max] | prob:<p>[:seed]
/// Without a fault keyword a firing injects kFail; with one, the mode
/// defaults to always. Unknown sites are registered. Malformed entries
/// (including a negative max) abort with InvalidArgument before any site
/// is armed.
Status EnableFromSpec(const std::string& spec);

/// Applies the F2DB_FAILPOINTS and then the F2DB_IOFAULTS environment
/// variable via EnableFromSpec; both take the grammar above. Returns the
/// applied specs joined by ';', empty when none. A malformed spec is
/// reported on stderr and ignored — unless its strict twin
/// (F2DB_FAILPOINTS_STRICT=1 or F2DB_IOFAULTS_STRICT=1) is also set, in
/// which case the process aborts so a fault-injection run can never
/// silently proceed un-injected.
std::string InitFromEnv();

/// Builds the Status a kFail firing injects: kUnavailable with the site
/// name in the message and no errno marker, so callers can tell injected
/// transient faults from programmer errors and from disk errors.
Status InjectedFailure(const char* site);

/// RAII guard for tests: disarms every failpoint on destruction.
class ScopedDisableAll {
 public:
  ScopedDisableAll() = default;
  ScopedDisableAll(const ScopedDisableAll&) = delete;
  ScopedDisableAll& operator=(const ScopedDisableAll&) = delete;
  ~ScopedDisableAll() { DisableAll(); }
};

/// Static registrar behind F2DB_DEFINE_FAILPOINT.
class Registrar {
 public:
  explicit Registrar(const char* site) { Register(site); }
};

}  // namespace failpoint
}  // namespace f2db

/// Defines a failpoint site: a constant with the site name plus a static
/// registrar so the site shows up in failpoint::RegisteredSites() even
/// before its first evaluation. Use at namespace scope in the .cc (or
/// header) owning the site.
#define F2DB_DEFINE_FAILPOINT(identifier, site_name)                        \
  inline constexpr char identifier[] = site_name;                           \
  namespace f2db_failpoint_registrars {                                     \
  inline const ::f2db::failpoint::Registrar identifier##_registrar{         \
      site_name};                                                           \
  }

/// Injects a failure from a Status/Result-returning function when `site`
/// triggers.
#define F2DB_INJECT_FAILPOINT(site)                           \
  do {                                                        \
    if (::f2db::failpoint::Triggered(site)) {                 \
      return ::f2db::failpoint::InjectedFailure(site);        \
    }                                                         \
  } while (false)

#endif  // F2DB_COMMON_FAILPOINT_H_
