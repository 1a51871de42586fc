#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>

namespace perfbench {
namespace {

/// A phase whose in-flight requests have not completed this long after
/// sending stopped has a hung server; the stragglers count as transport
/// errors.
constexpr int64_t kDrainLimitNs = 30'000'000'000;

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the benchmark server failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Parses one complete response at the front of `in`. Returns false when
/// more bytes are needed; on success fills status/body, sets *close when
/// the server announced it will close, and erases the response from `in`.
bool TakeResponse(std::string* in, int* status, std::string* body,
                  bool* close) {
  const size_t header_end = in->find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  size_t content_length = 0;
  *close = false;
  *status = 0;
  size_t line_start = 0;
  bool first = true;
  while (line_start < header_end) {
    size_t line_end = in->find("\r\n", line_start);
    if (line_end == std::string::npos || line_end > header_end) {
      line_end = header_end;
    }
    std::string line = in->substr(line_start, line_end - line_start);
    if (first) {
      // "HTTP/1.1 200 OK"
      const size_t space = line.find(' ');
      if (space != std::string::npos) {
        *status = std::atoi(line.c_str() + space + 1);
      }
      first = false;
    } else {
      for (char& ch : line) {
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      }
      if (line.rfind("content-length:", 0) == 0) {
        content_length = std::strtoul(line.c_str() + 15, nullptr, 10);
      } else if (line.rfind("connection:", 0) == 0 &&
                 line.find("close") != std::string::npos) {
        *close = true;
      }
    }
    line_start = line_end + 2;
  }
  const size_t total = header_end + 4 + content_length;
  if (in->size() < total) return false;
  body->assign(*in, header_end + 4, content_length);
  in->erase(0, total);
  return true;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string HttpPost(const std::string& target, const std::string& body) {
  std::string wire = "POST " + target +
                     " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     "Content-Type: application/json\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  return wire;
}

LoadGenerator::LoadGenerator(uint16_t port, int connections)
    : port_(port) {
  conns_.resize(static_cast<size_t>(connections));
  for (Conn& conn : conns_) conn.fd = Connect(port_);
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

PhaseResult LoadGenerator::Run(const std::vector<ScheduledRequest>& schedule,
                               int64_t close_ns, int64_t grace_ns,
                               const ResponseFn& on_response,
                               const std::function<void()>& on_tick) {
  PhaseResult result;
  result.outcomes.resize(schedule.size());
  const size_t num_conns = conns_.size();
  std::deque<size_t> shared_backlog;
  std::vector<std::deque<size_t>> pinned_backlog(num_conns);
  size_t backlog = 0;
  size_t next = 0;
  size_t inflight = 0;
  uint32_t acks = 0;
  const int64_t start = NowNs();
  result.start_ns = start;
  int64_t next_sample = start;
  const int64_t stop_sending_ns = close_ns + grace_ns;
  std::vector<pollfd> fds(num_conns);

  auto finish = [&](size_t c, int status, std::string body) {
    Conn& conn = conns_[c];
    const auto index = static_cast<size_t>(conn.active);
    RequestOutcome& out = result.outcomes[index];
    out.done_ns = NowNs();
    out.status = status;
    out.body = std::move(body);
    if (status != 0 && schedule[index].kind == RequestKind::kTraffic) ++acks;
    if (on_response) on_response(index, &out);
    conn.active = -1;
    conn.written = 0;
    --inflight;
  };
  auto reconnect = [&](size_t c) {
    Conn& conn = conns_[c];
    ::close(conn.fd);
    conn.fd = Connect(port_);
    conn.in.clear();
  };
  auto write_some = [&](size_t c) {
    Conn& conn = conns_[c];
    const std::string& wire = schedule[static_cast<size_t>(conn.active)].wire;
    while (conn.written < wire.size()) {
      const ssize_t n = ::send(conn.fd, wire.data() + conn.written,
                               wire.size() - conn.written, MSG_NOSIGNAL);
      if (n > 0) {
        conn.written += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        finish(c, 0, {});
        reconnect(c);
        return;
      }
    }
  };

  for (;;) {
    int64_t now = NowNs();
    while (next < schedule.size() && schedule[next].intended_ns <= now &&
           schedule[next].intended_ns < close_ns) {
      result.outcomes[next].queued_ns = now;
      const int pin = schedule[next].pinned_conn;
      if (pin >= 0 && static_cast<size_t>(pin) < num_conns) {
        pinned_backlog[static_cast<size_t>(pin)].push_back(next);
      } else {
        shared_backlog.push_back(next);
      }
      ++backlog;
      ++next;
    }
    if (next < schedule.size() && schedule[next].intended_ns >= close_ns) {
      next = schedule.size();  // beyond the phase: never sent
    }
    while (now >= next_sample && next_sample < close_ns) {
      result.backlog_samples.push_back(static_cast<uint32_t>(backlog));
      next_sample += kBacklogSampleNs;
    }
    const bool may_send = now < stop_sending_ns;
    if (may_send && backlog > 0) {
      for (size_t c = 0; c < num_conns; ++c) {
        Conn& conn = conns_[c];
        if (conn.active >= 0) continue;
        std::deque<size_t>& queue = !pinned_backlog[c].empty()
                                        ? pinned_backlog[c]
                                        : shared_backlog;
        if (queue.empty()) continue;
        const size_t index = queue.front();
        queue.pop_front();
        --backlog;
        RequestOutcome& out = result.outcomes[index];
        out.conn = static_cast<int>(c);
        out.acks_before_send = acks;
        out.sent_ns = NowNs();
        conn.active = static_cast<long>(index);
        conn.written = 0;
        ++inflight;
        write_some(c);
        if (backlog == 0) break;
      }
    }
    if (on_tick) on_tick();
    const bool schedule_done = next >= schedule.size();
    if (schedule_done && inflight == 0 && (backlog == 0 || !may_send)) break;
    if (!may_send && inflight > 0 && now > stop_sending_ns + kDrainLimitNs) {
      for (size_t c = 0; c < num_conns; ++c) {
        if (conns_[c].active >= 0) {
          finish(c, 0, {});
          reconnect(c);
        }
      }
      break;
    }

    // Sleep until the next request is due, the next backlog sample, the
    // end of the sending window, or a socket event.
    int64_t wake = now + 100'000'000;
    if (next < schedule.size()) {
      wake = std::min(wake, schedule[next].intended_ns);
    }
    if (next_sample < close_ns) wake = std::min(wake, next_sample);
    if (backlog > 0 && may_send) wake = std::min(wake, stop_sending_ns);
    nfds_t nfds = 0;
    std::vector<size_t> fd_conn;
    fd_conn.reserve(num_conns);
    for (size_t c = 0; c < num_conns; ++c) {
      Conn& conn = conns_[c];
      if (conn.active < 0) continue;
      const bool writing =
          conn.written < schedule[static_cast<size_t>(conn.active)].wire.size();
      fds[nfds].fd = conn.fd;
      fds[nfds].events = static_cast<short>(writing ? POLLOUT : POLLIN);
      fds[nfds].revents = 0;
      fd_conn.push_back(c);
      ++nfds;
    }
    const int64_t wait_ns = std::max<int64_t>(0, wake - NowNs());
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), nfds, &timeout, nullptr);
    if (ready <= 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if (fds[i].revents == 0) continue;
      const size_t c = fd_conn[i];
      Conn& conn = conns_[c];
      if (conn.active < 0) continue;
      if (fds[i].events == POLLOUT) {
        if (fds[i].revents & (POLLERR | POLLHUP)) {
          finish(c, 0, {});
          reconnect(c);
        } else {
          write_some(c);
        }
        continue;
      }
      char buf[16384];
      bool broken = false;
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          conn.in.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        broken = true;  // EOF or error
        break;
      }
      int status = 0;
      std::string body;
      bool close = false;
      if (TakeResponse(&conn.in, &status, &body, &close)) {
        finish(c, status, std::move(body));
        if (close || broken) reconnect(c);
      } else if (broken) {
        finish(c, 0, {});
        reconnect(c);
      }
    }
  }
  return result;
}

}  // namespace perfbench
