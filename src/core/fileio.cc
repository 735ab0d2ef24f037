#include "core/fileio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace garcia::core {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// write(2) loop that survives short writes and EINTR.
bool WriteAll(int fd, const char* data, size_t num_bytes) {
  size_t done = 0;
  while (done < num_bytes) {
    const ssize_t n = ::write(fd, data + done, num_bytes - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// fsync of the directory holding `path`, so the rename itself is durable.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("cannot fsync directory", dir);
  return Status::Ok();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const void* data,
                       size_t num_bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot create", tmp);
  if (!WriteAll(fd, static_cast<const char*>(data), num_bytes)) {
    const Status st = Errno("write failed for", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::fsync(fd) != 0) {
    const Status st = Errno("cannot fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    const Status st = Errno("cannot close", tmp);
    ::unlink(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status st = Errno("cannot rename to", path);
    ::unlink(tmp.c_str());
    return st;
  }
  return SyncParentDir(path);
}

Result<std::string> ReadFile(const std::string& path, size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Errno("cannot open", path);
  auto over_cap = [&] {
    ::close(fd);
    return Status::IoError(path + " exceeds the " + std::to_string(max_bytes) +
                           "-byte read cap");
  };
  // Reject an oversized file before reading any of it, and size the buffer
  // once. The in-loop cap still holds if the file grows during the read.
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    const Status st = Errno("cannot stat", path);
    ::close(fd);
    return st;
  }
  if (static_cast<uint64_t>(info.st_size) > max_bytes) return over_cap();
  std::string out;
  out.reserve(static_cast<size_t>(info.st_size));
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Errno("read failed for", path);
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    if (out.size() + static_cast<size_t>(n) > max_bytes) return over_cap();
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

}  // namespace garcia::core
