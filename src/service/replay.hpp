// replay.hpp — the one synthetic-traffic driver, in-process or on the wire.
//
// run_replay opens `connections` Submitters, one thread each; every
// connection submits the request list `repeats` times in order with at most
// `window` requests in flight.  in_process() submits straight to a
// SolveService, whose refused admission is known at submit(); over the
// wire (net::over_wire(), one net::Client per connection) a refusal comes
// back later as a BUSY frame.  BUSY is handled one way in both cases: wait
// for the oldest reply still in flight if there is one, otherwise back off
// briefly, then resubmit — so a queue bound shows up as busy_retries, never
// as lost work.
//
// Latency has one definition in both modes: client-observed, from a
// request's first submit to the moment its reply is collected.  Replies are
// collected oldest first, so responses keep submission order per connection
// and connections are concatenated in index order.
//
// Traffic comes from the deck generator (gen/generator.hpp) so a seed fully
// determines the workload — including the --stress hostile corner, which is
// the tail-latency case bench_service_throughput persists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "service/service.hpp"

namespace service {

/// What wait() yields for one submission: a response, or a BUSY refusal
/// (admission bound reached; resubmit later).
struct Reply {
  bool busy = false;
  SolveResponse response;
};

/// One client connection's view of a solve service.  Used from a single
/// thread; run_replay opens one per connection.
class Submitter {
 public:
  virtual ~Submitter() = default;
  /// Send `request`; returns the id to wait() on, or nullopt when it is
  /// refused on the spot (in-process admission).  A refusal that is only
  /// known later (a BUSY frame) comes back from wait().  Never blocks on a
  /// solve.
  virtual std::optional<std::uint64_t> submit(const SolveRequest& request) = 0;
  /// Block until the reply for `id` is available.
  virtual Reply wait(std::uint64_t id) = 0;
};

/// Opens one connection's Submitter; called on that connection's thread.
using Connect = std::function<std::unique_ptr<Submitter>()>;

struct ReplayOptions {
  int connections = 1;  // concurrent Submitters, one thread each
  int repeats = 1;      // passes over the request list per connection
  int window = 8;       // max in-flight requests per connection
};

struct ReplayReport {
  // Per connection in submission order, connections in index order.
  std::vector<SolveResponse> responses;
  std::vector<double> latencies;  // client-observed seconds, per response
  double wall_seconds = 0.0;      // first submit -> last reply collected
  double throughput_sps = 0.0;    // responses / wall_seconds
  double p50_s = 0.0;             // percentiles of `latencies`
  double p99_s = 0.0;
  long busy_retries = 0;  // BUSY results absorbed by resubmission

  bool all_ok() const {
    for (const SolveResponse& r : responses)
      if (!r.ok()) return false;
    return !responses.empty();
  }
};

/// Replay `requests` through the Submitters `connect` opens.  Throws
/// tl::Error when a connection fails (the first failure, after every
/// connection thread has finished).
ReplayReport run_replay(const Connect& connect,
                        const std::vector<SolveRequest>& requests,
                        const ReplayOptions& options);

/// Connect for in-process replays: every connection submits straight to
/// `service` (started on first connect), which must outlive the replay.  A
/// refused admission is a BUSY result from submit(); a service that can
/// admit nothing (shut down, or queue capacity 0) throws tl::Error instead.
Connect in_process(SolveService& service);

/// Deterministic replay traffic from the deck generator: one request per
/// generated deck, labelled with the deck name.
std::vector<SolveRequest> requests_from_gen(const gen::GenOptions& options);

/// Nearest-rank percentile of `samples` (q in [0,1]); 0 when empty.
double latency_percentile(std::vector<double> samples, double q);

/// The golden quantities of a response list as deterministic JSON: label,
/// key, variant, convergence, iteration counts, residuals and the conserved
/// temperature — no timings, no batch sizes, nothing scheduling-dependent.
/// `tead --out` and `teactl solve --out` both write this, so the net-smoke
/// CI gate can `cmp` a networked replay against the in-process replay of
/// the same population byte for byte.
std::string golden_responses_json(const std::vector<SolveResponse>& responses);

}  // namespace service
