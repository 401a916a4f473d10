#include "common/wake_fd.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <limits>
#include <stdexcept>

namespace voronet {

WakeFd::WakeFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) throw std::runtime_error("WakeFd: eventfd() failed");
}

WakeFd::~WakeFd() { ::close(fd_); }

void WakeFd::signal() const {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated, i.e. already readable.
  (void)!::write(fd_, &one, sizeof(one));
}

void WakeFd::drain() const {
  std::uint64_t count = 0;
  (void)!::read(fd_, &count, sizeof(count));
}

int poll_for(pollfd* fds, std::size_t count, double timeout_s) {
  const auto n = static_cast<nfds_t>(count);
  if (timeout_s == std::numeric_limits<double>::infinity()) {
    return ::ppoll(fds, n, nullptr, nullptr);
  }
  // Round up to the nanosecond so a deadline never fires a hair early;
  // cap at a day so the conversion cannot overflow.
  const double t = timeout_s > 0.0 ? std::min(timeout_s, 86400.0) : 0.0;
  const auto ns = static_cast<std::int64_t>(std::ceil(t * 1e9));
  timespec ts{};
  ts.tv_sec = static_cast<std::time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  return ::ppoll(fds, n, &ts, nullptr);
}

}  // namespace voronet
