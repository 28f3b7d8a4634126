#include "store/file_ops.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#define COLOC_STORE_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/error.hpp"

namespace coloc::store {

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw coloc::runtime_error(what + " " + path + ": " +
                             std::strerror(errno));
}

#ifdef COLOC_STORE_POSIX

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
void write_all(int fd, std::string_view bytes, const std::string& path) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("cannot write", path);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_errno("cannot fsync", path);
}

/// fsyncs the directory containing `path` so the rename (or file creation)
/// itself is durable, not just the file contents. Best effort on
/// filesystems that reject directory fsync (returns silently).
void fsync_parent(const std::string& path) {
  const std::string dir = parent_directory(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // e.g. O_DIRECTORY unsupported target
  ::fsync(fd);         // EINVAL on some filesystems; nothing to do about it
  ::close(fd);
}

#endif  // COLOC_STORE_POSIX

}  // namespace

std::string parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw coloc::runtime_error("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) throw coloc::runtime_error("read failed: " + path);
  return buffer.str();
}

std::optional<std::string> read_file_if_exists(const std::string& path) {
  if (!file_exists(path)) return std::nullopt;
  return read_file(path);
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
#ifdef COLOC_STORE_POSIX
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot open temp file", tmp);
  try {
    write_all(fd, bytes, tmp);
    fsync_fd(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("cannot close temp file", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("cannot rename over", path);
  }
  fsync_parent(path);
#else
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw coloc::runtime_error("cannot open temp file " + tmp);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) throw coloc::runtime_error("failed writing temp file " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw coloc::runtime_error("cannot rename " + tmp + " over " + path +
                               ": " + ec.message());
  }
#endif
}

void append_file_durable(const std::string& path, std::string_view bytes) {
#ifdef COLOC_STORE_POSIX
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw_errno("cannot open for append", path);
  try {
    write_all(fd, bytes, path);
    fsync_fd(fd, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) throw_errno("cannot close", path);
  // First append creates the file; make the directory entry durable too.
  fsync_parent(path);
#else
  std::ofstream os(path, std::ios::binary | std::ios::app);
  if (!os) throw coloc::runtime_error("cannot open for append: " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  if (!os) throw coloc::runtime_error("append failed: " + path);
#endif
}

void remove_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    throw coloc::runtime_error("cannot remove " + path + ": " +
                               ec.message());
  }
}

void create_directories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw coloc::runtime_error("cannot create directories " + path + ": " +
                               ec.message());
  }
}

}  // namespace coloc::store
