// server.hpp — the tead network frontend: a poll-based event loop that
// multiplexes framed-protocol connections onto one service::SolveService.
//
// Threading model: ONE acceptor/IO thread runs the whole event loop —
// accept, non-blocking buffered reads and writes, frame dispatch.  Solves
// happen where they always have: on the service's worker shards.  The
// bridge back is push-style: each admitted request carries a
// service::CompletionFn that enqueues a completion event and wakes the loop
// through a self-pipe, so no thread ever parks in Ticket::wait() and a
// single IO thread can keep thousands of in-flight requests moving.
//
// Backpressure: admission control stays at the service's bounded queue.
// When submit() refuses, the request is answered with a BUSY frame —
// never a dropped connection, never a hang — and the client retries
// (service::run_replay does, through net::over_wire).
//
// Pipelining: clients may send any number of requests without reading.
// Replies carry the request id and are written in *completion* order;
// matching them back up is the client's job (net::Client stashes
// out-of-order arrivals).
//
// Shutdown: request_stop() is async-signal-safe (tead's SIGINT/SIGTERM
// handlers call it).  The drain sequence is: close the listener FIRST,
// stop reading from connections, answer every in-flight solve, flush every
// write buffer, then close.  In-flight work is never abandoned mid-solve.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"

namespace net {

struct ServerOptions {
  std::string address = "unix:tead.sock";
  int backlog = 16;
  int max_connections = 64;
  // Tests disable this to pin deterministic BUSY behaviour: with the
  // service not yet started, admissions queue up but never drain.
  bool start_service = true;
};

/// IO-side counters (the solve-side ones live in service::ServiceStats).
struct ServerIoStats {
  long accepted = 0;
  long disconnects = 0;       // peers that vanished (EOF or error)
  long frames_in = 0;
  long frames_out = 0;
  long requests = 0;          // request frames admitted to the service
  long busy_replies = 0;      // requests answered with BUSY
  long request_errors = 0;    // per-request errors (bad deck, bad payload)
  long protocol_errors = 0;   // framing faults that closed a connection
  long stats_queries = 0;
};

class Server {
 public:
  /// `service` must outlive the server; the server starts it in run()
  /// (unless options.start_service is false) but never shuts it down —
  /// lifecycle stays with the owner (tead drains the server first, then
  /// calls service.shutdown()).
  Server(service::SolveService& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen.  Resolves the address (ephemeral tcp ports) so
  /// address() is connectable before run() is entered.
  void open();

  const Address& address() const { return address_; }

  /// Run the event loop until request_stop(); returns after the graceful
  /// drain completed.  Call from one thread only.
  void run();

  /// Ask run() to drain and return.  Async-signal-safe: one atomic store
  /// and one write() to the self-pipe.
  void request_stop();

  ServerIoStats io_stats() const;

 private:
  struct Connection {
    Fd fd;
    FrameReader reader;
    std::string outbox;          // encoded frames awaiting the socket
    std::size_t outbox_offset = 0;
    long in_flight = 0;          // admitted requests not yet answered
    bool close_after_flush = false;  // protocol fault: flush ERROR, close
    bool readable = true;            // cleared on fault and during drain
  };

  struct Completion {
    std::uint64_t connection_id = 0;
    std::uint64_t request_id = 0;
    service::SolveResponse response;
  };

  void accept_ready();
  void read_ready(std::uint64_t id, Connection& connection);
  void write_ready(std::uint64_t id, Connection& connection);
  void dispatch_frame(std::uint64_t id, Connection& connection,
                      const Frame& frame);
  void enqueue_frame(Connection& connection, FrameType type,
                     const std::string& payload);
  void drain_completions();
  void close_connection(std::uint64_t id, bool peer_gone);
  void wake();

  service::SolveService& service_;
  ServerOptions options_;
  Address address_;
  Fd listener_;
  Fd wake_read_, wake_write_;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  bool running_ = false;

  std::uint64_t next_connection_id_ = 1;
  std::map<std::uint64_t, Connection> connections_;
  // Admitted-but-unanswered requests across all connections, including
  // ones whose connection already died; the drain waits for this to reach
  // zero so no worker callback can outlive the server.
  long pending_solves_ = 0;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;  // filled by worker callbacks

  mutable std::mutex io_stats_mutex_;
  ServerIoStats io_stats_;
};

/// Route SIGINT/SIGTERM to server->request_stop() (pass nullptr to restore
/// the previous handlers).  One server at a time; used by `tead --listen`
/// and pinned by tests/test_net.cpp.
void install_signal_handlers(Server* server);

}  // namespace net
