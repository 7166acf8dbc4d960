// Disk-fault differential: a durable workload replay under injected I/O
// faults, checking the DESIGN.md §15 contract end to end.
//
// RunDiskFaultDifferential() replays a WorkloadSpec through
//   1. two ReferenceOracles (one per engine — under faults the engines'
//      accepted-insert sets legitimately diverge, so each engine gets its
//      own ground truth that mirrors exactly the inserts it accepted),
//   2. a durable embedded F2dbEngine (fsync=always) over a scratch
//      directory, and
//   3. a second durable engine behind a loopback F2dbServer, driven over
//      the wire through F2dbClient,
// with a seeded probabilistic errno policy armed on one I/O site for the
// whole op window. After every op the engines must either agree with
// their oracle (values within tolerance, verdicts by status code,
// degradation annotations exact — degraded-never-wrong) or reject the
// insert HONESTLY: a kUnavailable carrying the fsio errno marker or a
// retry-after-ms read-only hint, in which case the oracle is not touched.
// Any other divergence fails the report.
//
// The window is followed by a forced storm (Policy::Always EIO on the WAL
// append and probe sites) that must drive each engine into read-only
// within the failure-threshold bound: INSERTs then return the hinted
// rejection, queries keep answering correctly from snapshots, and the
// entry/exit accounting shows exactly one open episode. Disarming the
// faults must auto-heal both engines through the health probe within the
// recovery deadline (entries == exits, inserts accepted again).
//
// Finally the embedded engine is closed cleanly and reopened from its
// directory: every forecast answer must be BIT-IDENTICAL (exact doubles,
// same degradation, same row times) to the pre-close answers and the
// pending-insert buffer must match the oracle — recovery after a faulty
// run loses nothing that was acknowledged.

#ifndef F2DB_TESTING_DISKFAULT_H_
#define F2DB_TESTING_DISKFAULT_H_

#include <cstdint>
#include <string>

#include "testing/workload.h"

namespace f2db::testing {

struct DiskFaultDifferentialOptions {
  /// Seeds the fault policy's coin flips (independent of the workload
  /// seed, so one spec can run under many fault schedules).
  std::uint64_t seed = 0;
  /// Scratch root; the engines live at <data_dir>/embedded and
  /// <data_dir>/server. Removed and recreated at the start, removed on
  /// success.
  std::string data_dir;
  bool keep_dir_on_failure = true;
  /// Also run the loopback wire executor.
  bool run_server = true;

  // ---- the fault window over the op list ----

  /// Failpoint site armed for the whole op window ("io.wal_append",
  /// "io.wal_fsync", ...).
  std::string fault_site = "io.wal_append";
  /// errno injected at the site (5 = EIO, 28 = ENOSPC).
  int fault_errno = 5;
  /// Inject torn short writes (Policy::ShortWrite) instead of clean
  /// errors — exercises the WAL append-rollback path.
  bool short_writes = false;
  /// Per-evaluation trigger probability of the window policy.
  double fault_probability = 0.10;

  // ---- engine disk-fault knobs (small, so the storm converges fast) ----

  std::size_t failure_threshold = 2;
  std::size_t retry_attempts = 1;
  double probe_interval_seconds = 0.05;
  double read_only_retry_after_ms = 5.0;
  /// How long the recovery poll waits for the probe to exit read-only
  /// after the faults are disarmed.
  double recovery_deadline_seconds = 10.0;

  // ---- tolerances (same policy as the plain differential) ----

  double rel_tol = 1e-6;
  double abs_tol = 1e-8;
  double wire_abs_tol = 2e-4;
};

struct DiskFaultDifferentialReport {
  bool ok = false;
  /// First divergence, prefixed with the seeds for replay.
  std::string failure;

  std::size_t queries = 0;
  std::size_t rows_compared = 0;
  std::size_t inserts_accepted_embedded = 0;
  std::size_t inserts_accepted_wire = 0;
  /// Deterministic rejections (behind-frontier, duplicate, non-finite)
  /// that matched the oracle verdict, summed over both executors.
  std::size_t inserts_rejected = 0;
  /// Honest disk rejections during the window: kUnavailable carrying the
  /// fsio errno marker (the oracle was not touched).
  std::size_t disk_rejections_embedded = 0;
  std::size_t disk_rejections_wire = 0;
  /// Rejections carrying the read-only retry-after-ms hint (window +
  /// storm).
  std::size_t read_only_rejections = 0;

  /// The forced storm drove every executor into read-only with exactly
  /// one open episode (entries == exits + 1).
  bool forced_read_only = false;
  /// Both engines returned to kOk via the health probe after disarm, with
  /// the episode accounting closed (entries == exits) and inserts
  /// accepted again.
  bool auto_recovered = false;
  /// The reopened embedded engine answered every forecast bit-identically
  /// to the pre-close engine.
  bool recovery_bit_identical = false;
};

/// Runs one disk-fault differential iteration (see file comment). The
/// spec must be a non-fault-mode workload (inject_refit_failures ==
/// false): refit failpoints and disk faults layer the same kUnavailable
/// surface and would make the expected-verdict accounting ambiguous.
DiskFaultDifferentialReport RunDiskFaultDifferential(
    const WorkloadSpec& spec, const DiskFaultDifferentialOptions& options);

}  // namespace f2db::testing

#endif  // F2DB_TESTING_DISKFAULT_H_
