#include "storage/fsio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

namespace f2db::storage {
namespace {

std::atomic<StorageCrashHook> g_crash_hook{nullptr};

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

}  // namespace

void SetStorageCrashHook(StorageCrashHook hook) {
  g_crash_hook.store(hook, std::memory_order_release);
}

void FireStorageCrashHook(const char* point) {
  if (StorageCrashHook hook = g_crash_hook.load(std::memory_order_acquire)) {
    hook(point);
  }
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal(Errno("mkdir", dir));
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Internal(Errno("open dir", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(Errno("fsync dir", dir));
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::Internal(Errno("open", path));
  }
  std::string out;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal(Errno("read", path));
    }
    if (n == 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

Status IoError(const std::string& op, const std::string& what, int err) {
  return Status::Unavailable(op + " " + what + ": " + std::strerror(err) +
                             " [errno:" + std::to_string(err) + "]");
}

int ErrnoFromStatus(const Status& status) {
  const std::string& message = status.message();
  const std::size_t at = message.rfind(" [errno:");
  if (at == std::string::npos) return 0;
  const std::size_t digits = at + 8;  // past " [errno:"
  int err = 0;
  std::size_t pos = digits;
  while (pos < message.size() && message[pos] >= '0' && message[pos] <= '9') {
    err = err * 10 + (message[pos] - '0');
    ++pos;
  }
  if (pos == digits || pos >= message.size() || message[pos] != ']') return 0;
  return err;
}

Status InjectedIoFailure(const failpoint::Fault& fault, const char* site,
                         const std::string& op, const std::string& what) {
  if (fault.outcome == failpoint::Outcome::kFail) {
    return failpoint::InjectedFailure(site);
  }
  return IoError(op, what, fault.err);
}

Status WriteAllFd(int fd, const char* data, std::size_t size,
                  const char* site, const std::string& what) {
  const std::optional<failpoint::Fault> fault = failpoint::Evaluate(site);
  const bool short_write =
      fault.has_value() && fault->outcome == failpoint::Outcome::kShortWrite;
  if (fault.has_value() && !short_write) {
    return InjectedIoFailure(*fault, site, "write", what);
  }
  // An injected short write lands a real prefix of the buffer so torn-
  // tail rollback paths are exercised against genuine on-disk state.
  const std::size_t limit = short_write ? size / 2 : size;
  std::size_t written = 0;
  while (written < limit) {
    const ssize_t n = ::write(fd, data + written, limit - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return IoError("write", what, errno);
  }
  if (short_write) return IoError("short write", what, fault->err);
  return Status::OK();
}

Status FsyncFd(int fd, const char* site, const std::string& what) {
  if (const std::optional<failpoint::Fault> fault = failpoint::Evaluate(site)) {
    return InjectedIoFailure(*fault, site, "fsync", what);
  }
  if (::fsync(fd) != 0) return IoError("fsync", what, errno);
  return Status::OK();
}

Status WriteFileDurably(const std::string& path, std::string_view bytes,
                        const char* hook_before_rename,
                        const char* hook_after_rename, const char* site) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open", tmp, errno);
  Status written = WriteAllFd(fd, bytes.data(), bytes.size(), site, tmp);
  if (written.ok()) written = FsyncFd(fd, site, tmp);
  if (!written.ok()) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return written;
  }
  ::close(fd);
  if (hook_before_rename != nullptr) FireStorageCrashHook(hook_before_rename);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return IoError("rename", path, err);
  }
  if (hook_after_rename != nullptr) FireStorageCrashHook(hook_after_rename);
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  return SyncDir(dir);
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return Status::OK();
  return Status::Internal(Errno("unlink", path));
}

}  // namespace f2db::storage
