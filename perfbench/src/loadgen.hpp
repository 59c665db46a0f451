// loadgen.hpp — the wire load generator: one thread, one Unix-socket
// connection, a poll loop built on the net:: codec (encode_request,
// FrameReader, decode_reply).
//
// Open loop: requests go out at their scheduled times whatever the replies
// do, so a stall delays every later request and the queue can grow;
// latency is timed from the *intended* send time (Schroeder et al., NSDI
// 2006), and how late the generator itself ran is recorded as lag.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/config.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace pb {

/// One scheduled request: when it is due (seconds after the phase start)
/// and which deck of the population it carries.
struct Arrival {
  double offset_s = 0.0;
  std::size_t deck = 0;
};

/// Seeded Poisson arrivals: `n` requests over exactly n / rate seconds.
/// Given its count, a Poisson process places arrivals as uniform order
/// statistics on the interval, so the offered rate is exact while the gaps
/// stay exponential.  Decks are drawn without replacement: every deck comes
/// up once per `decks` consecutive arrivals, in a seeded order, because
/// the slowest decks set a phase's p95 and their share of the requests must
/// not vary with the seed.  Deterministic for a given seed.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate, int n,
                                      std::size_t decks);

/// One request's timeline on the steady clock, and what came back.
struct RequestRecord {
  std::uint64_t id = 0;  // wire id, echoed by the reply
  std::size_t deck = 0;
  Clock::time_point intended;  // scheduled send time
  Clock::time_point sent;      // encode started
  Clock::time_point encoded;   // frame appended to the outbox
  Clock::time_point written;   // send() that took its last byte began
  Clock::time_point received;  // reply decoded
  double decode_s = 0.0;
  std::size_t request_bytes = 0;
  std::size_t reply_bytes = 0;
  bool replied = false;
  bool busy = false;
  net::WireReply reply;

  double latency_s() const;  // received - intended
  double lag_s() const;      // sent - intended
  double rtt_s() const;      // received - written
};

class LoadGen {
 public:
  /// Connects (blocking) to `address`; `decks` must outlive the generator.
  LoadGen(const std::string& address,
          const std::vector<tl::ProblemConfig>& decks);

  /// Send `schedule` open-loop from now; returns once every request has a
  /// reply.  Throws tl::Error if the server stops answering for 60 s.
  std::vector<RequestRecord> open_loop(const std::vector<Arrival>& schedule);

 private:
  void submit(std::vector<RequestRecord>& records, std::size_t index);
  /// Wait for socket events until `deadline` or the first reply, moving
  /// bytes both ways; returns the number of replies recorded.
  int pump(std::vector<RequestRecord>& records, Clock::time_point deadline);
  void flush(std::vector<RequestRecord>& records);

  const std::vector<tl::ProblemConfig>& decks_;
  net::Fd fd_;
  net::FrameReader reader_;
  std::string outbox_;
  std::size_t outbox_offset_ = 0;
  std::uint64_t bytes_queued_ = 0;
  std::uint64_t bytes_written_ = 0;
  // (end offset in the byte stream, record index) of frames not yet fully
  // written, in stream order.
  std::deque<std::pair<std::uint64_t, std::size_t>> unwritten_;
  std::uint64_t id_base_ = 1;  // wire id of records[0] in the current phase
};

}  // namespace pb
