// Open-loop load generator over loopback keep-alive connections.
//
// One thread drives every connection with non-blocking sockets. Requests
// carry an intended send time taken from a precomputed schedule (Poisson
// arrivals for the route streams); a request that is due while every
// connection is busy waits in the generator's backlog, and its latency
// is timed from the intended send time, not from the moment a connection
// became free. That is what keeps coordinated omission out of the
// numbers: a server stall shows up in every request that was due during
// it, not only in the few that were on the wire (Tene, "How NOT to
// Measure Latency").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
int64_t NowNs();

enum class RequestKind : uint8_t { kRoute, kTraffic };

/// One scheduled request.
struct ScheduledRequest {
  RequestKind kind = RequestKind::kRoute;
  /// Absolute NowNs() time at which the request is due.
  int64_t intended_ns = 0;
  /// Connection the request must use, or -1 for any free connection.
  int pinned_conn = -1;
  uint32_t source = 0;
  uint32_t destination = 0;
  /// Full HTTP request bytes.
  std::string wire;
};

/// What happened to one scheduled request.
struct RequestOutcome {
  int conn = -1;
  /// When the generator noticed the request was due (its own lateness
  /// is queued_ns - intended_ns).
  int64_t queued_ns = 0;
  int64_t sent_ns = 0;   ///< 0 = never sent before the phase closed
  int64_t done_ns = 0;   ///< 0 = no complete response
  int status = 0;        ///< HTTP status; 0 = not sent or transport error
  /// Traffic acknowledgements completed before this request was sent.
  uint32_t acks_before_send = 0;
  std::string body;
};

/// One phase: a schedule, and what the generator observed running it.
struct PhaseResult {
  std::vector<RequestOutcome> outcomes;  ///< parallel to the schedule
  /// Backlog length (due but unsent) sampled every kBacklogSampleNs.
  std::vector<uint32_t> backlog_samples;
  int64_t start_ns = 0;
};

inline constexpr int64_t kBacklogSampleNs = 20'000'000;

/// Called on the generator thread as each request completes (status 0 =
/// transport error). It may take the body out of `out`.
using ResponseFn = std::function<void(size_t index, RequestOutcome* out)>;

/// Builds the wire bytes of a POST with a JSON body.
std::string HttpPost(const std::string& target, const std::string& body);

class LoadGenerator {
 public:
  /// Opens `connections` keep-alive connections to 127.0.0.1:port.
  /// Throws std::runtime_error when a connection cannot be opened.
  LoadGenerator(uint16_t port, int connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Runs one phase. Requests are sent no earlier than their intended
  /// time; once `close_ns` has passed no new request is sent, except
  /// that requests already in the backlog keep going out for at most
  /// `grace_ns` more. Returns after every sent request has completed.
  /// `on_response` sees every completion; `on_tick`, if set, runs on every
  /// loop iteration (the traced run polls counters from it).
  PhaseResult Run(const std::vector<ScheduledRequest>& schedule,
                  int64_t close_ns, int64_t grace_ns,
                  const ResponseFn& on_response,
                  const std::function<void()>& on_tick = {});

 private:
  struct Conn {
    int fd = -1;
    long active = -1;  ///< schedule index in flight, -1 = idle
    size_t written = 0;
    std::string in;
  };
  uint16_t port_ = 0;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
