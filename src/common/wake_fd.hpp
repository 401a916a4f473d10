// A cross-thread wakeup that poll(2) can wait on, and a poll with an exact
// timeout.
//
// WakeFd is one Linux eventfd.  signal() makes fd() readable until drain()
// clears it; signals that arrive before the drain coalesce.  Both are
// single async-signal-safe syscalls, so any thread (or a signal handler)
// may signal while another thread polls.  The fd is nonblocking and
// close-on-exec, and the destructor closes it: the owner joins every
// thread that signals it first.
#pragma once

#include <poll.h>

#include <cstddef>

namespace voronet {

class WakeFd {
 public:
  /// Throws std::runtime_error when the kernel refuses an eventfd.
  WakeFd();
  ~WakeFd();

  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  void signal() const;
  void drain() const;

 private:
  int fd_ = -1;
};

/// ppoll(2) for at most `timeout_s` seconds, to the nanosecond (poll(2)'s
/// millisecond timeout rounds every wait up by as much as a millisecond).
/// A timeout <= 0 returns at once; +inf blocks until an fd is ready.
/// Returns ppoll's result: the ready count, 0 on timeout, -1 on EINTR.
int poll_for(pollfd* fds, std::size_t count, double timeout_s);

}  // namespace voronet
