// Durable file primitives for the storage engine, plus the storage crash
// hook the crash fuzzer uses to SIGKILL the process at named protocol
// points (DESIGN.md §13).
//
// Everything the storage layer persists — sealed segments and the
// manifest — commits through the same tmp + fsync + rename + dir-fsync
// sequence the checkpoint writer uses, so a crash at any instant leaves
// either the old file or the new file, never a torn one.
//
// This header is also the durability-I/O choke point (DESIGN.md §15):
// WriteAllFd / FsyncFd / WriteFileDurably carry an optional failpoint site
// name, so every device-facing write — WAL append and fsync, checkpoint
// write, segment seal, manifest commit, the disk-health probe — has
// exactly one fault site. A seeded spec (F2DB_IOFAULTS or F2DB_FAILPOINTS)
// can storm it with errno-level faults (EIO, ENOSPC, short writes) or a
// plain failure. Errno failures (real or injected) surface as kUnavailable
// with a machine-parseable " [errno:<n>]" marker so the engine's
// DiskHealth tracker can classify them without a richer Status; a plain
// injected failure carries no marker and is not counted against the disk.

#ifndef F2DB_STORAGE_FSIO_H_
#define F2DB_STORAGE_FSIO_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/failpoint.h"
#include "common/status.h"

namespace f2db::storage {

// Named durability-I/O fault sites. Every site is a failpoint registry
// entry, armable via a spec ("io.wal_append=eio:nth:3") or
// failpoint::Enable; see common/failpoint.h for the spec grammar.
F2DB_DEFINE_FAILPOINT(kIoSiteWalAppend, "io.wal_append")
F2DB_DEFINE_FAILPOINT(kIoSiteWalFsync, "io.wal_fsync")
F2DB_DEFINE_FAILPOINT(kIoSiteWalCreate, "io.wal_create")
F2DB_DEFINE_FAILPOINT(kIoSiteCheckpointWrite, "io.checkpoint_write")
F2DB_DEFINE_FAILPOINT(kIoSiteSegmentWrite, "io.segment_write")
F2DB_DEFINE_FAILPOINT(kIoSiteManifestCommit, "io.manifest_commit")
F2DB_DEFINE_FAILPOINT(kIoSiteProbeWrite, "io.probe_write")

/// Process-global crash hook: when set, FireStorageCrashHook invokes it
/// with the protocol point name. The crash fuzzer installs a hook that
/// SIGKILLs the process at a chosen point; production never sets it.
/// Points fired by this layer: "segment_written", "before_manifest_rename",
/// "after_manifest_rename". The engine additionally fires
/// "before_wal_delete" between the manifest commit and WAL truncation.
using StorageCrashHook = void (*)(const char* point);

/// Installs (or clears, with nullptr) the crash hook.
void SetStorageCrashHook(StorageCrashHook hook);

/// Invokes the installed hook, if any, with `point`.
void FireStorageCrashHook(const char* point);

/// Creates `dir` if it does not exist (one level; parents must exist).
Status EnsureDir(const std::string& dir);

/// fsyncs the directory itself so a rename/create inside it is durable.
Status SyncDir(const std::string& dir);

/// Whole-file read; NotFound when the file does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// Builds the kUnavailable status a failed durability syscall surfaces:
/// "<op> <what>: <strerror> [errno:<n>]". The trailing marker is parsed
/// back out by ErrnoFromStatus.
Status IoError(const std::string& op, const std::string& what, int err);

/// Extracts the errno from a status message built by IoError; 0 when the
/// message carries no marker (non-I/O failure, kFail injection, ...).
int ErrnoFromStatus(const Status& status);

/// The status I/O call `op` on `what` surfaces when `site` fires `fault`:
/// failpoint::InjectedFailure for kFail, else IoError with the errno.
Status InjectedIoFailure(const failpoint::Fault& fault, const char* site,
                         const std::string& op, const std::string& what);

/// write(2) loop that retries EINTR and genuine short writes, evaluated
/// against failpoint site `site` (nullptr = never injected). An injected
/// short write lands a real prefix of the buffer on the fd before the
/// error returns — callers owning append-only files must truncate back.
/// `what` names the target in error messages.
Status WriteAllFd(int fd, const char* data, std::size_t size,
                  const char* site, const std::string& what);

/// fsync(2) with `site` fault injection.
Status FsyncFd(int fd, const char* site, const std::string& what);

/// Atomically publishes `bytes` at `path`: writes `<path>.tmp`, fsyncs it,
/// renames onto `path`, and fsyncs the directory. When the hook point
/// names are non-null, FireStorageCrashHook runs immediately before and
/// after the rename — the commit point of the protocol. `site` injects
/// faults into the tmp-file write and fsync (the tmp file is unlinked on
/// failure, so an injected fault never leaves debris).
Status WriteFileDurably(const std::string& path, std::string_view bytes,
                        const char* hook_before_rename = nullptr,
                        const char* hook_after_rename = nullptr,
                        const char* site = nullptr);

/// Unlinks `path`; missing files are OK (idempotent delete).
Status RemoveFile(const std::string& path);

}  // namespace f2db::storage

#endif  // F2DB_STORAGE_FSIO_H_
