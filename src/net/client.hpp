// client.hpp — blocking client for the tead wire protocol.
//
// One Client owns one connection.  submit() writes a request frame and
// returns immediately, so callers can pipeline any number of requests;
// wait() reads frames until the given id's reply arrives, stashing
// out-of-order arrivals (the server replies in *completion* order).  A BUSY
// reply surfaces as WireReply.busy — the structured backpressure signal the
// replay driver retries on — and per-request errors arrive in
// response.error.  Transport failures and connection-level protocol errors
// throw tl::Error.
//
// Not thread-safe: one Client per thread.  over_wire() adapts Clients to
// service::run_replay, which opens one per connection thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"

namespace net {

class Client {
 public:
  /// Connect (blocking).  Throws tl::Error when the server is not there.
  explicit Client(const std::string& address);

  /// Send one solve request; returns the wire id to wait() on.  Ids are
  /// client-assigned and monotonically increasing.
  std::uint64_t submit(const tl::ProblemConfig& problem,
                       const std::string& label);

  /// Block until the reply for `id` arrives (serving it from the stash if
  /// an earlier wait() already read it).
  WireReply wait(std::uint64_t id);

  /// submit() + wait() in one call.
  WireReply solve(const tl::ProblemConfig& problem, const std::string& label);

  /// Round-trip a STATS query.
  service::ServiceStats stats();

 private:
  /// Read and decode one frame (blocking).  Throws tl::Error on EOF and
  /// ProtocolError on malformed frames.
  Frame read_frame();

  Fd fd_;
  FrameReader reader_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, WireReply> stashed_;
};

/// Connect for service::run_replay over the wire: every connection opens
/// its own Client to `address`, and a BUSY frame is a BUSY reply.
service::Connect over_wire(const std::string& address);

}  // namespace net
