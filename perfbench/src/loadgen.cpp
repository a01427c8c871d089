#include "loadgen.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common.hpp"
#include "net/codec.hpp"

namespace perfbench {

namespace {

/// Ring of in-flight slots, above any backlog a phase can build: a ladder
/// probe stops at four times the backlog its rate sustains (at most
/// 87 k requests at the top exact_hits rung), and a whole reference
/// phase at 60 s is 90 k requests.
constexpr std::size_t kSlots = 1u << 17;
constexpr std::size_t kReadChunk = 256 * 1024;
constexpr std::size_t kMaxErrors = 8;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

SlotRing make_slot_ring() { return SlotRing(kSlots); }

LoadGen::LoadGen(const Pool& pool, std::uint16_t port,
                 std::size_t connections, SlotRing& slots)
    : pool_(pool), conns_(connections), slots_(slots) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) fail("socket");
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0)
      fail("connect");
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    c.in.resize(kReadChunk);
  }
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

void LoadGen::keep_responses(std::vector<std::size_t> positions) {
  std::sort(positions.begin(), positions.end());
  keep_ = std::move(positions);
}

void LoadGen::queue(std::uint32_t conn, const Request& request,
                    std::size_t position, std::int64_t due_ns, bool traced) {
  const std::uint64_t id = next_id_++;
  Slot& slot = slots_[id % slots_.size()];
  if (slot.live) throw std::runtime_error("load generator: slot ring full");
  slot = {request, position, due_ns, conn, true};
  ++outstanding_;
  Conn& c = conns_[conn];
  const std::size_t before = c.out.size();
  if (traced)
    pool_.append_traced_frame(request, id, tracer_->new_context(), c.out);
  else
    pool_.append_frame(request, id, c.out);
  bytes_out_ += c.out.size() - before;
}

void LoadGen::send_timed(std::uint32_t conn, std::int64_t due_ns) {
  const std::size_t position = cursor_++;
  queue(conn, pool_.timed_at(position), position, due_ns, tracer_ != nullptr);
}

void LoadGen::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      fail("send");
    }
  }
  c.out.clear();
  c.out_off = 0;
}

void LoadGen::flush_all() {
  for (Conn& c : conns_)
    if (c.out_off < c.out.size()) flush(c);
}

template <typename F>
void LoadGen::pump(std::int64_t timeout_ns, F&& on_arrival) {
  pollfd fds[16];
  const std::size_t n = std::min<std::size_t>(conns_.size(), 16);
  for (std::size_t i = 0; i < n; ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = static_cast<short>(
        POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
    fds[i].revents = 0;
  }
  timespec ts{};
  timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  const int ready = ::ppoll(fds, n, &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    fail("ppoll");
  }
  if (ready == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    Conn& c = conns_[i];
    if (fds[i].revents & POLLOUT) flush(c);
    if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
    for (;;) {
      if (c.in.size() - c.in_len < kReadChunk / 2) c.in.resize(c.in.size() * 2);
      const ssize_t got = ::recv(c.fd, c.in.data() + c.in_len,
                                 c.in.size() - c.in_len, MSG_DONTWAIT);
      if (got > 0) {
        c.in_len += static_cast<std::size_t>(got);
        bytes_in_ += static_cast<std::uint64_t>(got);
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      if (got == 0) throw std::runtime_error("load generator: server closed");
      fail("recv");
    }
    const std::int64_t at = now_ns();
    std::size_t pos = 0;
    while (c.in_len - pos >= medcc::net::kHeaderSize) {
      const std::string_view rest(c.in.data() + pos, c.in_len - pos);
      const auto header = medcc::net::parse_frame_header(rest);
      const std::size_t size = medcc::net::kHeaderSize + header->body_size;
      if (rest.size() < size) break;
      Slot& slot = slots_[header->request_id % slots_.size()];
      if (!slot.live)
        throw std::runtime_error("load generator: stray response");
      slot.live = false;
      --outstanding_;
      on_arrival(Arrival{slot, rest.substr(0, size), at});
      pos += size;
    }
    if (pos > 0) {
      std::memmove(c.in.data(), c.in.data() + pos, c.in_len - pos);
      c.in_len -= pos;
    }
  }
}

bool LoadGen::settle(PhaseResult& phase, const Arrival& arrival) {
  ++phase.answered;
  const Slot& slot = arrival.slot;
  if (!keep_.empty() &&
      std::binary_search(keep_.begin(), keep_.end(), slot.position))
    kept_.emplace_back(slot.position, std::string(arrival.frame));
  std::string error =
      verifier_ != nullptr ? verifier_->check(slot.request, arrival.frame)
                           : std::string();
  if (error.empty()) {
    ++phase.ok;
    return true;
  }
  if (phase.errors.size() < kMaxErrors)
    phase.errors.push_back("request " + std::to_string(slot.position) + ": " +
                           error);
  return false;
}

std::vector<std::string> LoadGen::round_trip(
    const std::vector<Request>& requests, std::size_t window) {
  std::vector<std::string> frames(requests.size());
  std::size_t next = 0;
  const std::int64_t deadline = now_ns() + 120'000'000'000LL;
  while (next < requests.size() || outstanding_ > 0) {
    while (next < requests.size() && outstanding_ < window) {
      queue(static_cast<std::uint32_t>(next % conns_.size()), requests[next],
            next, 0, false);
      ++next;
    }
    flush_all();
    pump(1'000'000, [&](const Arrival& a) {
      frames[a.slot.position].assign(a.frame);
    });
    if (now_ns() > deadline)
      throw std::runtime_error("load generator: warm-up timed out");
  }
  return frames;
}

PhaseResult LoadGen::open_loop(double rate, double seconds, double limit_ms,
                               std::size_t abort_backlog) {
  PhaseResult phase;
  auto total = static_cast<std::uint64_t>(std::llround(rate * seconds));
  const double interval_ns = 1e9 / rate;
  const auto limit_ns = static_cast<std::int64_t>(limit_ms * 1e6);
  phase.latency_ns.reserve(total);
  phase.latency_due_s.reserve(total);
  phase.late_ns.reserve(total);
  const std::uint64_t out0 = bytes_out_;
  const std::uint64_t in0 = bytes_in_;

  const std::int64_t t0 = now_ns() + 100'000;
  const std::int64_t send_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  // Overloaded probes leave a backlog; every request is still answered
  // (the service queue is unbounded), only late.
  const std::int64_t drain_end = send_end + 30'000'000'000LL;
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t gen0 = thread_cpu_ns();
  bool window_closed = false;
  std::uint64_t next = 0;
  const auto due = [&](std::uint64_t k) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
  };
  const auto on_arrival = [&](const Arrival& a) {
    const std::int64_t latency = a.at_ns - a.slot.due_ns;
    phase.latency_ns.push_back(static_cast<double>(latency));
    phase.latency_due_s.push_back(
        static_cast<double>(a.slot.due_ns - t0) / 1e9);
    if (settle(phase, a) && latency <= limit_ns) ++phase.within_limit;
  };
  for (;;) {
    std::int64_t now = now_ns();
    while (next < total && due(next) <= now) {
      if (abort_backlog > 0 && outstanding_ > abort_backlog) {
        // The server is not keeping up: stop loading it further.
        phase.aborted = true;
        total = next;
        break;
      }
      send_timed(static_cast<std::uint32_t>(next % conns_.size()), due(next));
      phase.late_ns.push_back(static_cast<double>(now - due(next)));
      ++next;
    }
    flush_all();
    if (!window_closed && now >= send_end) {
      window_closed = true;
      phase.backlog_at_end = outstanding_;
      phase.seconds = static_cast<double>(now - t0) / 1e9;
      phase.process_cpu_ns = process_cpu_ns() - cpu0;
      phase.gen_cpu_ns = thread_cpu_ns() - gen0;
    }
    if (next >= total && outstanding_ == 0) break;
    if (now >= drain_end) break;
    // Spin while requests are due: a generator that sleeps between sends
    // wakes up to milliseconds late on an idle virtual CPU, and would
    // measure its own wake-up instead of the server.
    const std::int64_t wait =
        next < total ? 0 : std::min<std::int64_t>(1'000'000, drain_end - now);
    pump(wait, on_arrival);
  }
  phase.sent = next;
  if (!window_closed) {
    phase.backlog_at_end = outstanding_;
    phase.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    phase.process_cpu_ns = process_cpu_ns() - cpu0;
    phase.gen_cpu_ns = thread_cpu_ns() - gen0;
  }
  if (outstanding_ > 0)
    throw std::runtime_error("load generator: " + std::to_string(outstanding_) +
                             " responses missing after the drain");
  phase.bytes_out = bytes_out_ - out0;
  phase.bytes_in = bytes_in_ - in0;
  return phase;
}

PhaseResult LoadGen::closed_loop(std::size_t outstanding, double seconds,
                                 double window_s) {
  PhaseResult phase;
  const std::size_t per_conn =
      std::max<std::size_t>(1, outstanding / conns_.size());
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  const auto windows = static_cast<std::size_t>(seconds / window_s);
  std::vector<std::uint64_t> counts(windows, 0);
  const std::uint64_t out0 = bytes_out_;
  const std::uint64_t in0 = bytes_in_;

  const std::int64_t t0 = now_ns();
  const std::int64_t t_end =
      t0 + static_cast<std::int64_t>(windows) * window_ns;
  const Usage usage0 = process_usage();
  const std::int64_t cpu0 = usage0.user_ns + usage0.sys_ns;
  const std::int64_t gen0 = thread_cpu_ns();
  for (std::uint32_t c = 0; c < conns_.size(); ++c)
    for (std::size_t k = 0; k < per_conn; ++k) {
      send_timed(c, t0);
      ++phase.sent;
    }
  flush_all();
  bool sending = true;
  const auto on_arrival = [&](const Arrival& a) {
    settle(phase, a);
    if (a.at_ns < t_end) {
      ++counts[static_cast<std::size_t>((a.at_ns - t0) / window_ns)];
      ++phase.completed_in_interval;
    }
    if (sending) {
      send_timed(a.slot.conn, a.at_ns);
      ++phase.sent;
    }
  };
  while (now_ns() < t_end) {
    pump(1'000'000, on_arrival);
    flush_all();
  }
  sending = false;
  const Usage usage1 = process_usage();
  phase.process_cpu_ns = usage1.user_ns + usage1.sys_ns - cpu0;
  phase.sys_ns = usage1.sys_ns - usage0.sys_ns;
  phase.context_switches = usage1.context_switches - usage0.context_switches;
  phase.minor_faults = usage1.minor_faults - usage0.minor_faults;
  phase.gen_cpu_ns = thread_cpu_ns() - gen0;
  phase.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  const std::int64_t drain_end = now_ns() + 30'000'000'000LL;
  while (outstanding_ > 0 && now_ns() < drain_end) {
    pump(1'000'000, on_arrival);
    flush_all();
  }
  if (outstanding_ > 0)
    throw std::runtime_error("load generator: closed loop failed to drain");
  phase.window_counts.assign(counts.begin(), counts.end());
  phase.bytes_out = bytes_out_ - out0;
  phase.bytes_in = bytes_in_ - in0;
  return phase;
}

}  // namespace perfbench
