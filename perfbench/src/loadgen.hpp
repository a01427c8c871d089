// The load generator: one thread, a few non-blocking loopback TCP
// connections, frames built from the request pool and responses parsed
// with net::codec's public functions. It does not use net::Client or its
// relatives, so changes to the library's clients cannot change the
// instrument.
//
// Two kinds of timed phase:
//  * open loop -- requests are due at fixed intervals whatever the
//    server does; each is timed from when it was due, so a stall also
//    counts against the requests queued behind it. How late the
//    generator itself ran is recorded per request.
//  * closed loop -- a fixed number of requests outstanding; each
//    response releases the next request on the same connection.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "pool.hpp"
#include "verify.hpp"

namespace perfbench {

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;            ///< answered, status ok and verified
  std::uint64_t within_limit = 0;  ///< ok and within the latency limit
  /// Open loop: due time -> response, ns, one per answered request.
  std::vector<double> latency_ns;
  /// Open loop: when each of those requests was due, seconds into the
  /// phase.
  std::vector<double> latency_due_s;
  /// Open loop: actual send time - due time, ns, one per request.
  std::vector<double> late_ns;
  /// Closed loop: completions per full window.
  std::vector<double> window_counts;
  /// Closed loop: completions inside the measured interval.
  std::uint64_t completed_in_interval = 0;
  /// Wall, generator-thread CPU and process CPU over the measured
  /// interval (the send window for open loops).
  double seconds = 0.0;
  std::int64_t gen_cpu_ns = 0;
  std::int64_t process_cpu_ns = 0;
  /// Closed loop: process system time, context switches and minor page
  /// faults over the measured interval.
  std::int64_t sys_ns = 0;
  std::int64_t context_switches = 0;
  std::int64_t minor_faults = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  /// Open loop: requests unanswered when the send window closed.
  std::uint64_t backlog_at_end = 0;
  /// Open loop: stopped early on an unanswered backlog.
  bool aborted = false;
  std::vector<std::string> errors;  ///< first few verification failures
};

/// One request in flight.
struct Slot {
  Request request;
  std::size_t position = 0;  ///< timed position or round_trip index
  std::int64_t due_ns = 0;
  std::uint32_t conn = 0;
  bool live = false;
};

/// Slots indexed by request id (modulo the ring's size), above any
/// backlog a phase can build. One ring serves every LoadGen of a process
/// in turn: a ring per LoadGen put its page faults into every set-up's
/// time, and whether the heap handed a freed ring to the next one made
/// peak RSS bimodal by the ring's size.
using SlotRing = std::vector<Slot>;
[[nodiscard]] SlotRing make_slot_ring();

class LoadGen {
public:
  /// Opens `connections` connections to 127.0.0.1:`port`; tracks
  /// requests in `slots`, which must outlive it and may serve no other
  /// LoadGen meanwhile. Throws std::runtime_error when a connection
  /// cannot be made.
  LoadGen(const Pool& pool, std::uint16_t port, std::size_t connections,
          SlotRing& slots);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Checks every timed response with `verifier` (nullptr = unchecked).
  void set_verifier(const Verifier* verifier) { verifier_ = verifier; }
  /// Sends timed requests as traced_solve_request frames carrying
  /// contexts minted by `client_tracer` (nullptr = plain frames).
  void set_tracer(medcc::obs::Tracer* client_tracer) {
    tracer_ = client_tracer;
  }
  /// Keeps the response frames of the timed requests at these positions
  /// (Pool::timed_at) for the in-process comparison.
  void keep_responses(std::vector<std::size_t> positions);
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::string>>&
  kept() const {
    return kept_;
  }

  /// Sends `requests` with at most `window` unanswered; returns each
  /// response frame in request order.
  [[nodiscard]] std::vector<std::string> round_trip(
      const std::vector<Request>& requests, std::size_t window);

  /// Open loop at `rate` for `seconds`. When more than `abort_backlog`
  /// requests are unanswered (0 = no limit) it stops sending: the
  /// server is not keeping up, and the backlog would only grow.
  [[nodiscard]] PhaseResult open_loop(double rate, double seconds,
                                      double limit_ms,
                                      std::size_t abort_backlog = 0);
  [[nodiscard]] PhaseResult closed_loop(std::size_t outstanding,
                                        double seconds, double window_s);

private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_len = 0;
  };
  struct Arrival {
    Slot slot;
    std::string_view frame;
    std::int64_t at_ns = 0;
  };

  /// Queues the next timed request on `conn`.
  void send_timed(std::uint32_t conn, std::int64_t due_ns);
  void queue(std::uint32_t conn, const Request& request,
             std::size_t position, std::int64_t due_ns, bool traced);
  void flush(Conn& conn);
  void flush_all();
  /// Waits up to `timeout_ns` for input and hands every complete
  /// response frame to `on_arrival`.
  template <typename F>
  void pump(std::int64_t timeout_ns, F&& on_arrival);
  /// Verifies a timed response into `phase`.
  bool settle(PhaseResult& phase, const Arrival& arrival);

  const Pool& pool_;
  const Verifier* verifier_ = nullptr;
  medcc::obs::Tracer* tracer_ = nullptr;
  std::vector<Conn> conns_;
  SlotRing& slots_;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;
  std::size_t cursor_ = 0;  ///< timed requests sent (next position)
  std::uint64_t bytes_out_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::vector<std::size_t> keep_;  ///< sorted positions
  std::vector<std::pair<std::size_t, std::string>> kept_;
};

}  // namespace perfbench
