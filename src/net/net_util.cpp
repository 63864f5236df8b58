#include "net/net_util.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

namespace dabs::net {

void UniqueFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool set_nonblocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want == flags) return true;
  return ::fcntl(fd, F_SETFL, want) == 0;
}

namespace {

/// send() when the fd is a socket (for MSG_NOSIGNAL), write() otherwise
/// (pipes, regular files — send would fail with ENOTSOCK).
long write_once(int fd, const void* data, std::size_t size) {
  long n = ::send(fd, data, size, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) {
    n = ::write(fd, data, size);
  }
  return n;
}

}  // namespace

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  std::size_t written = 0;
  while (written < size) {
    const long n = write_once(fd, p + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE, ECONNRESET, ... — caller reads errno
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

long write_some(int fd, const void* data, std::size_t size) {
  for (;;) {
    const long n = write_once(fd, data, size);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

long read_some(int fd, void* data, std::size_t size) {
  for (;;) {
    const long n = ::read(fd, data, size);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    return -1;  // EAGAIN distinguishable via errno
  }
}

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

std::string errno_string() {
  char buf[128] = {};
  // GNU strerror_r may return a static string instead of filling buf.
#if defined(_GNU_SOURCE) || defined(__GLIBC__)
  return std::string(strerror_r(errno, buf, sizeof buf));
#else
  strerror_r(errno, buf, sizeof buf);
  return std::string(buf);
#endif
}

}  // namespace dabs::net
