// wire.cpp — the service and wire layers, measured per layer: the small
// population sent to the solve service behind net::Server over a Unix
// socket, in two open-loop phases at fixed rates, one without a queue (lo)
// and one with (hi).  Only traced runs use it (see NOTES.md for why no
// gated workload times the wire end to end).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <unistd.h>

#include "core/registry.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "solve_common.hpp"

namespace pb {

namespace {

// Service shape: 2 worker shards x 1 pool thread, plus the server's IO
// thread and this load generator: four threads on the four-core host.
constexpr int kWorkers = 2;
constexpr int kThreadsPerWorker = 1;

// Fixed offered rates, set once from the capacity a closed-loop probe
// measured on the reference host (120-180 solves/s; see NOTES.md).  Each
// phase lasts about 7.5 s and carries a whole number of passes over the
// 25-deck population, enough for kMinBeyond samples beyond its p95; with
// 25 decks the p50 and p95 ranks fall inside one deck's band of latencies.
struct Phase {
  const char* name;
  double rate_sps;
  int requests;
};
constexpr Phase kPhases[] = {{"lo", 30.0, 225}, {"hi", 60.0, 450}};

/// tead in-process: the solve service behind a poll server on its own
/// thread.
class Daemon {
 public:
  explicit Daemon(const std::string& address)
      : service_(service_options(), nullptr),
        server_(service_, server_options(address)) {
    service_.start();
    server_.open();
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: server stopped: %s\n", e.what());
      }
    });
  }
  ~Daemon() {
    server_.request_stop();
    thread_.join();
    service_.shutdown();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  service::SolveService& service() { return service_; }
  net::Server& server() { return server_; }

 private:
  static service::ServiceOptions service_options() {
    service::ServiceOptions o;
    o.workers = kWorkers;
    o.threads_per_worker = kThreadsPerWorker;
    o.enable_tuning = false;  // portable mode: the deck's own solver
    o.default_variant = "manual-omp";
    return o;
  }
  static net::ServerOptions server_options(const std::string& address) {
    net::ServerOptions o;
    o.address = address;
    return o;
  }

  service::SolveService service_;
  net::Server server_;
  std::thread thread_;
};

Golden golden_of_response(const service::SolveResponse& r) {
  Golden g;
  g.converged = r.converged;
  g.iterations = r.iterations;
  g.inner_iterations = r.inner_iterations;
  g.initial_rr = r.initial_rr;
  g.final_rr = r.final_rr;
  g.temperature = r.final_temperature;
  return g;
}

/// The oracle: every response must be bitwise equal to a sequential
/// run_simulation of the same variant at the service's thread count;
/// differences from serial are only counted.
void judge_replies(const std::vector<RequestRecord>& records,
                   const std::vector<Golden>& refs,
                   const std::vector<Golden>& serial_refs, Outcome& out) {
  long busy = 0, errors = 0, differ = 0;
  for (const RequestRecord& r : records) {
    ++out.attempted;
    if (r.busy || !r.reply.response.ok()) {
      ++(r.busy ? busy : errors);
      continue;
    }
    const Golden got = golden_of_response(r.reply.response);
    if (!bitwise_equal(refs[r.deck], got)) ++differ;
    if (!bitwise_equal(serial_refs[r.deck], got)) ++out.serial_mismatches;
  }
  // A refused or failed request is a failed operation, not a wrong
  // answer: it counts against the attempts; a differing reply fails the
  // run.
  out.failed += busy + errors + differ;
  if (busy != 0) out.note(std::to_string(busy) + " BUSY replies");
  if (errors != 0) out.note(std::to_string(errors) + " error replies");
  if (differ != 0)
    out.fail(std::to_string(differ) +
             " replies differ from a sequential run_simulation");
}

/// `get` of every answered request, times `scale`.
std::vector<double> field(const std::vector<RequestRecord>& records,
                          double scale,
                          double (*get)(const RequestRecord&)) {
  std::vector<double> v;
  for (const RequestRecord& r : records)
    if (!r.busy && r.reply.response.ok()) v.push_back(scale * get(r));
  return v;
}

double queue_s(const RequestRecord& r) {
  return r.reply.response.queue_seconds;
}
double solve_s(const RequestRecord& r) {
  return r.reply.response.solve_seconds;
}
double wire_s(const RequestRecord& r) {
  return r.rtt_s() - r.reply.response.latency_seconds;
}
double lag_s(const RequestRecord& r) { return r.lag_s(); }
double encode_s(const RequestRecord& r) {
  return std::chrono::duration<double>(r.encoded - r.sent).count();
}
double decode_s(const RequestRecord& r) { return r.decode_s; }

/// "phase lo  offered 30.0/s: p50 .. p95 .. (n=225; ...)" for the notes.
std::string phase_line(const Phase& phase,
                       const std::vector<RequestRecord>& records) {
  std::vector<double> latency_ms;
  for (const RequestRecord& r : records)
    if (!r.busy && r.reply.response.ok())
      latency_ms.push_back(1e3 * r.latency_s());
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "phase %-3s offered %5.1f/s: latency %s; server solve p50 "
                "%.2f ms, queue p50 %.2f ms",
                phase.name, phase.rate_sps,
                describe(latency_ms, 1.0, "ms").c_str(),
                median(field(records, 1e3, solve_s)),
                median(field(records, 1e3, queue_s)));
  return buf;
}

void set_percentiles(const std::string& name, const std::vector<double>& v,
                     const std::string& unit, Outcome& out) {
  double p50 = 0.0, p95 = 0.0;
  if (percentile(v, 0.50, &p50)) out.set(name + ".p50", p50, unit);
  if (percentile(v, 0.95, &p95)) out.set(name + ".p95", p95, unit);
  out.note(name + ": " + describe(v, 1.0, unit));
}

/// Spans of one request, correlated by its wire id.  Client-side spans are
/// measured; the server's are placed from the durations it reports (queue
/// first, solve ending where delivery starts), since only their lengths
/// cross the wire.
void record_request_spans(const std::vector<RequestRecord>& records,
                          SpanRecorder& spans) {
  for (const RequestRecord& r : records) {
    const std::uint64_t rid = r.id;
    spans.record("loadgen", "lag", rid, r.intended, r.sent);
    spans.record("net", "encode", rid, r.sent, r.encoded);
    spans.record("net", "request", rid, r.sent, r.received);
    const service::SolveResponse& s = r.reply.response;
    const auto dur = [](double seconds) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds));
    };
    const Clock::duration wire_half =
        dur(0.5 * std::max(0.0, r.rtt_s() - s.latency_seconds));
    const Clock::time_point admitted = r.written + wire_half;
    const Clock::time_point ready = r.received - wire_half;
    spans.record("service", "queue", rid, admitted,
                 admitted + dur(s.queue_seconds));
    const Clock::time_point deliver =
        ready - dur(std::max(0.0, s.latency_seconds - s.queue_seconds -
                                      s.solve_seconds));
    spans.record("service", "solve", rid, deliver - dur(s.solve_seconds),
                 deliver);
    spans.record("service", "deliver", rid, deliver, ready);
  }
}

}  // namespace

void trace_wire_layers(const Args& args, SpanRecorder& spans, Outcome& out) {
  std::vector<tl::ProblemConfig> decks;
  for (const Deck& deck : small_population()) decks.push_back(deck.problem);
  // The oracle's references: manual-omp at the service's thread count,
  // and serial for the known-defect count only.
  std::vector<Golden> refs, serial_refs;
  tea::RunOptions ref_options;
  ref_options.threads = kThreadsPerWorker;
  for (const tl::ProblemConfig& deck : decks) {
    refs.push_back(
        golden_of(tea::run_simulation("manual-omp", deck, ref_options)));
    serial_refs.push_back(golden_of(tea::run_simulation("serial", deck)));
  }
  const std::string address = "unix:" + args.out_dir + "/svc-" +
                              std::to_string(::getpid()) + ".sock";
  Daemon daemon(address);
  LoadGen loadgen(address, decks);

  std::vector<RequestRecord> traced;
  for (std::size_t index = 0; index < std::size(kPhases); ++index) {
    const Phase& phase = kPhases[index];
    const std::vector<RequestRecord> records =
        loadgen.open_loop(poisson_schedule(
            args.seed * 0x9e3779b97f4a7c15ULL + index, phase.rate_sps,
            phase.requests, decks.size()));
    record_request_spans(records, spans);
    out.note(phase_line(phase, records));
    traced.insert(traced.end(), records.begin(), records.end());
  }
  judge_replies(traced, refs, serial_refs, out);

  set_percentiles("service.queue_ms", field(traced, 1e3, queue_s), "ms", out);
  set_percentiles("service.solve_ms", field(traced, 1e3, solve_s), "ms", out);
  set_percentiles("net.wire_ms", field(traced, 1e3, wire_s), "ms", out);
  const std::vector<double> lag = field(traced, 1e3, lag_s);
  double lag_p95 = 0.0;
  if (percentile(lag, 0.95, &lag_p95))
    out.set("loadgen.lag_ms.p95", lag_p95, "ms");
  out.note("loadgen.lag_ms: " + describe(lag, 1.0, "ms"));
  out.set("net.encode_us", median(field(traced, 1e6, encode_s)), "us");
  out.set("net.decode_us", median(field(traced, 1e6, decode_s)), "us");
  double req_bytes = 0, reply_bytes = 0, batch = 0;
  long negative = 0;
  for (const RequestRecord& r : traced) {
    req_bytes += static_cast<double>(r.request_bytes);
    reply_bytes += static_cast<double>(r.reply_bytes);
    const service::SolveResponse& s = r.reply.response;
    batch += s.batch_size;
    // wire + queue + solve + deliver = the client's round trip, with wire
    // and deliver the remainders; neither may be negative.
    const double wire = r.rtt_s() - s.latency_seconds;
    const double deliver =
        s.latency_seconds - s.queue_seconds - s.solve_seconds;
    if (wire < -1e-6 || deliver < -1e-6) ++negative;
  }
  const double n = static_cast<double>(traced.size());
  out.set("net.request_bytes", req_bytes / n, "bytes");
  out.set("net.reply_bytes", reply_bytes / n, "bytes");
  out.set("service.batch_mean", batch / n, "requests");
  out.set("trace.negative_parts", static_cast<double>(negative), "count");
  if (negative != 0)
    out.fail(std::to_string(negative) +
             " requests whose wire or deliver part is negative");
  const service::ServiceStats stats = daemon.service().stats();
  const double arena_total =
      static_cast<double>(stats.arena.allocated + stats.arena.reused);
  out.set("service.arena_reuse_frac",
          arena_total > 0 ? stats.arena.reused / arena_total : 0.0,
          "fraction");
  out.set("service.rejected", static_cast<double>(stats.rejected), "count");
  out.set("net.busy_replies",
          static_cast<double>(daemon.server().io_stats().busy_replies),
          "count");
}

}  // namespace pb
