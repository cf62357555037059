#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "bench.h"

namespace perfbench {

std::string PostRequest(const std::string& target, const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n"
         "content-length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

LoadGenerator::~LoadGenerator() {
  for (Connection& c : connections_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool LoadGenerator::Reconnect(Connection* c) {
  if (c->fd >= 0) ::close(c->fd);
  c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c->fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(c->fd);
    c->fd = -1;
    return false;
  }
  const int one = 1;
  ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
  c->out.clear();
  c->out_offset = 0;
  c->in.clear();
  return true;
}

vgod::Status LoadGenerator::Connect(int port, int connections) {
  port_ = port;
  connections_.resize(connections);
  for (Connection& c : connections_) {
    if (!Reconnect(&c)) return vgod::Status::Internal("connect failed");
  }
  return vgod::Status::Ok();
}

namespace {

constexpr double kSpinSeconds = 0.0005;

/// Parses one complete response off the front of `in`. Returns false when
/// more bytes are needed; sets *status and *body and consumes the bytes.
bool TakeResponse(std::string* in, int* status, std::string* body,
                  bool keep_body) {
  const size_t header_end = in->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  size_t length = 0;
  size_t line = in->find("\r\n");
  while (line < header_end) {
    const size_t next = in->find("\r\n", line + 2);
    if (next - line - 2 > 15 &&
        ::strncasecmp(in->c_str() + line + 2, "content-length:", 15) == 0) {
      length = std::strtoull(in->c_str() + line + 17, nullptr, 10);
    }
    line = next;
  }
  const size_t total = header_end + 4 + length;
  if (in->size() < total) return false;
  *status = in->size() > 12 ? std::atoi(in->c_str() + 9) : 0;
  if (keep_body) body->assign(*in, header_end + 4, length);
  in->erase(0, total);
  return true;
}

}  // namespace

std::vector<Completion> LoadGenerator::Run(
    const std::vector<Scheduled>& schedule, double drain_seconds,
    const std::vector<int>& keep_kinds) {
  std::vector<Completion> done(schedule.size());
  const double t0 = Now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    done[i].due = t0 + schedule[i].due;
  }
  const double deadline =
      t0 + (schedule.empty() ? 0.0 : schedule.back().due) + drain_seconds;
  std::vector<bool> keep(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    keep[i] = std::find(keep_kinds.begin(), keep_kinds.end(),
                        schedule[i].kind) != keep_kinds.end();
  }

  auto fail_in_flight = [&](Connection* c) {
    for (int index : c->in_flight) done[index].status = 0;
    c->in_flight.clear();
    Reconnect(c);
  };

  size_t next = 0;
  size_t outstanding = 0;
  std::vector<pollfd> fds(connections_.size());
  char buffer[1 << 16];
  for (;;) {
    double now = Now();
    while (next < schedule.size() && done[next].due <= now) {
      Connection& c = connections_[schedule[next].connection];
      c.out += *schedule[next].wire;
      c.in_flight.push_back(static_cast<int>(next));
      done[next].sent = now;
      ++next;
      ++outstanding;
    }
    for (Connection& c : connections_) {
      while (c.out_offset < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_offset,
                                 c.out.size() - c.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_offset += static_cast<size_t>(n);
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            outstanding -= c.in_flight.size();
            fail_in_flight(&c);
          }
          break;
        }
      }
      if (c.out_offset == c.out.size()) {
        c.out.clear();
        c.out_offset = 0;
      }
    }
    if (next == schedule.size() && outstanding == 0) break;
    if (now > deadline) break;

    // Sleep until just before the next due time, then poll without
    // sleeping, so a late wake-up does not make the send late.
    double wait = next < schedule.size() ? done[next].due - now : 0.05;
    wait = wait < kSpinSeconds ? 0.0 : std::min(wait - kSpinSeconds, 0.05);
    for (size_t i = 0; i < connections_.size(); ++i) {
      fds[i].fd = connections_[i].fd;
      fds[i].events = POLLIN;
      if (connections_[i].out_offset < connections_[i].out.size()) {
        fds[i].events |= POLLOUT;
      }
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - static_cast<double>(
                                              static_cast<time_t>(wait))) *
                                  1e9)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (size_t i = 0; i < connections_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = connections_[i];
      const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        outstanding -= c.in_flight.size();
        fail_in_flight(&c);
        continue;
      }
      if (n < 0) continue;
      c.in.append(buffer, static_cast<size_t>(n));
      const double arrived = Now();
      int status = 0;
      while (!c.in_flight.empty()) {
        const int index = c.in_flight.front();
        if (!TakeResponse(&c.in, &status, &done[index].body, keep[index])) {
          break;
        }
        done[index].status = status;
        done[index].done = arrived;
        c.in_flight.pop_front();
        --outstanding;
      }
    }
  }
  // Anything still in flight at the deadline counts as failed; reset those
  // connections so a late response cannot leak into the next phase.
  for (Connection& c : connections_) {
    if (!c.in_flight.empty()) fail_in_flight(&c);
  }
  return done;
}

}  // namespace perfbench
