// Tests for the net frontend (src/net): frame codec round-trips, framing
// robustness (truncation, bad magic/version/type, oversized declarations,
// checksum corruption, arbitrarily-split reads), and the server's contracts
// — bit-identical networked solves, pipelining, BUSY backpressure, survival
// of abrupt disconnects, per-request errors that keep the connection, the
// STATS frame, and the SIGTERM graceful drain (this suite runs under TSan
// in CI alongside test_service).
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <random>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "results/result_store.hpp"
#include "results/sweep.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"

namespace {

tl::ProblemConfig tiny_problem(int mesh, int steps) {
  return results::bench_problem(mesh, steps);
}

std::string temp_socket(const std::string& name) {
  return "unix:" + testing::TempDir() + name;
}

/// Portable service shape shared by the server tests: no tuning (tuned
/// winners are machine-local), fixed shard sizes.
service::ServiceOptions portable_service() {
  service::ServiceOptions options;
  options.workers = 2;
  options.threads_per_worker = 2;
  options.enable_tuning = false;
  return options;
}

/// Hand-build a 16-byte header with arbitrary field values so tests can
/// corrupt each one independently.
std::string raw_header(std::uint32_t magic, std::uint16_t version,
                       std::uint16_t type, std::uint32_t payload_len,
                       std::uint32_t checksum) {
  std::string out;
  const auto u16 = [&out](std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
  };
  const auto u32 = [&out](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8)
      out.push_back(static_cast<char>((v >> shift) & 0xff));
  };
  u32(magic);
  u16(version);
  u16(type);
  u32(payload_len);
  u32(checksum);
  return out;
}

/// A server + service running on its own IO thread for the duration of a
/// test; stops and joins on destruction.
struct TestServer {
  explicit TestServer(const std::string& name,
                      service::ServiceOptions svc_options = portable_service(),
                      bool start_service = true)
      : service(svc_options, nullptr) {
    net::ServerOptions options;
    options.address = temp_socket(name);
    options.start_service = start_service;
    server = std::make_unique<net::Server>(service, options);
    server->open();
    io_thread = std::thread([this] { server->run(); });
  }

  ~TestServer() {
    server->request_stop();
    io_thread.join();
    service.shutdown();
  }

  std::string address() const { return server->address().to_string(); }

  service::SolveService service;
  std::unique_ptr<net::Server> server;
  std::thread io_thread;
};

/// Blocking raw-socket helper for malformed-input tests: read frames off
/// `fd` until one decodes or the peer closes (returns false on EOF).
bool read_frame_blocking(int fd, net::FrameReader& reader, net::Frame& frame) {
  char chunk[512];
  while (true) {
    if (reader.next(frame)) return true;
    const ssize_t got = ::recv(fd, chunk, sizeof chunk, 0);
    if (got <= 0) return false;
    reader.feed(chunk, static_cast<std::size_t>(got));
  }
}

// ---------------------------------------------------------------------------
// Address grammar
// ---------------------------------------------------------------------------

TEST(NetAddress, ParsesUnixAndTcpSpecs) {
  const net::Address unix_addr = net::parse_address("unix:/run/tead.sock");
  EXPECT_TRUE(unix_addr.is_unix);
  EXPECT_EQ(unix_addr.path, "/run/tead.sock");
  EXPECT_EQ(unix_addr.to_string(), "unix:/run/tead.sock");

  const net::Address tcp_addr = net::parse_address("tcp:127.0.0.1:4501");
  EXPECT_FALSE(tcp_addr.is_unix);
  EXPECT_EQ(tcp_addr.host, "127.0.0.1");
  EXPECT_EQ(tcp_addr.port, 4501);
  EXPECT_EQ(tcp_addr.to_string(), "tcp:127.0.0.1:4501");
}

TEST(NetAddress, RejectsMalformedSpecs) {
  EXPECT_THROW(net::parse_address(""), tl::ConfigError);
  EXPECT_THROW(net::parse_address("ftp:/x"), tl::ConfigError);
  EXPECT_THROW(net::parse_address("unix:"), tl::ConfigError);
  EXPECT_THROW(net::parse_address("tcp:127.0.0.1"), tl::ConfigError);
  EXPECT_THROW(net::parse_address("tcp:127.0.0.1:notaport"), tl::ConfigError);
  EXPECT_THROW(net::parse_address("tcp:127.0.0.1:99999"), tl::ConfigError);
  // sun_path is ~108 bytes; longer paths must be refused, not truncated.
  EXPECT_THROW(net::parse_address("unix:/" + std::string(200, 'x')),
               tl::ConfigError);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(NetProtocol, FrameRoundTripsEveryType) {
  using net::FrameType;
  for (const FrameType type :
       {FrameType::kRequest, FrameType::kResponse, FrameType::kBusy,
        FrameType::kError, FrameType::kStatsRequest, FrameType::kStats}) {
    const std::string payload = "payload-" +
        std::to_string(static_cast<int>(type));
    const std::string bytes = net::encode_frame(type, payload);
    ASSERT_EQ(bytes.size(), net::kHeaderBytes + payload.size());

    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    net::Frame frame;
    ASSERT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(reader.buffered(), 0u);
    EXPECT_FALSE(reader.next(frame));  // nothing left
  }
}

TEST(NetProtocol, ReaderReassemblesRandomlySplitStream) {
  // Several frames concatenated, fed in seeded-random slices: the reader
  // must yield exactly the original frames regardless of how the transport
  // fragments them.
  std::string stream;
  std::vector<std::string> payloads;
  for (int i = 0; i < 5; ++i) {
    payloads.push_back(std::string(static_cast<std::size_t>(17 * i + 1), 'a' + i));
    stream += net::encode_frame(net::FrameType::kRequest, payloads.back());
  }

  std::mt19937 rng(1234);
  net::FrameReader reader;
  std::size_t offset = 0, decoded = 0;
  net::Frame frame;
  while (offset < stream.size()) {
    const std::size_t chunk = std::min<std::size_t>(
        stream.size() - offset, 1 + rng() % 23);
    reader.feed(stream.data() + offset, chunk);
    offset += chunk;
    while (reader.next(frame)) {
      ASSERT_LT(decoded, payloads.size());
      EXPECT_EQ(frame.payload, payloads[decoded]);
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, payloads.size());
}

TEST(NetProtocol, TruncatedFrameIsNotAnErrorJustIncomplete) {
  const std::string bytes =
      net::encode_frame(net::FrameType::kRequest, "abcdef");
  net::Frame frame;
  // Every proper prefix: needs-more-bytes, never a throw.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    net::FrameReader reader;
    reader.feed(bytes.data(), cut);
    EXPECT_FALSE(reader.next(frame)) << "prefix of " << cut << " bytes";
  }
}

TEST(NetProtocol, ClassifiesEachHeaderFaultAndPoisons) {
  const auto fault_of = [](const std::string& bytes) {
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    net::Frame frame;
    try {
      reader.next(frame);
    } catch (const net::ProtocolError& e) {
      // Poisoned: any further use is refused.
      EXPECT_THROW(reader.next(frame), tl::Error);
      return e.fault();
    }
    ADD_FAILURE() << "malformed header was accepted";
    return net::WireFault::kBadMagic;
  };

  EXPECT_EQ(fault_of(raw_header(0xdeadbeefu, net::kVersion, 1, 0,
                                net::payload_checksum(""))),
            net::WireFault::kBadMagic);
  EXPECT_EQ(fault_of(raw_header(net::kMagic, 99, 1, 0,
                                net::payload_checksum(""))),
            net::WireFault::kBadVersion);
  EXPECT_EQ(fault_of(raw_header(net::kMagic, net::kVersion, 77, 0,
                                net::payload_checksum(""))),
            net::WireFault::kBadType);
  // A hostile declared length is rejected from the header alone — no
  // payload bytes are ever awaited or buffered.
  EXPECT_EQ(fault_of(raw_header(net::kMagic, net::kVersion, 1,
                                net::kMaxPayloadBytes + 1, 0)),
            net::WireFault::kOversized);

  std::string corrupted = net::encode_frame(net::FrameType::kRequest, "data");
  corrupted[net::kHeaderBytes] ^= 0x01;  // flip one payload bit
  EXPECT_EQ(fault_of(corrupted), net::WireFault::kBadChecksum);
}

TEST(NetProtocol, EncodeFrameRefusesOversizedPayload) {
  EXPECT_THROW(net::encode_frame(net::FrameType::kRequest,
                                 std::string(net::kMaxPayloadBytes + 1, 'x')),
               tl::Error);
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

TEST(NetProtocol, RequestRoundTripPreservesProblemKey) {
  const tl::ProblemConfig problem = tiny_problem(24, 3);
  const net::WireRequest request = net::make_request(42, "bm24", problem);
  const net::WireRequest decoded =
      net::decode_request(net::encode_request(request));
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.label, "bm24");
  // The wire carries canonical deck text; parsing it back must land on the
  // identical canonical problem (the property the whole bit-identity
  // contract rests on).
  EXPECT_EQ(results::problem_key(net::request_problem(decoded)),
            results::problem_key(problem));
}

TEST(NetProtocol, ResponseRoundTripIsExactOnEveryField) {
  service::SolveResponse response;
  response.label = "req-1";
  response.key = "k_abc";
  response.variant = "manual-omp";
  response.converged = true;
  response.iterations = 87;
  response.inner_iterations = 261;
  response.initial_rr = 1.2345678901234567e-3;
  response.final_rr = 9.87654321098765432e-13;
  response.final_temperature = 101.32476099999999;
  response.solve_seconds = 0.03125;
  response.queue_seconds = 1e-6;
  response.latency_seconds = 0.031251;
  response.batch_size = 3;

  net::Frame frame;
  frame.type = net::FrameType::kResponse;
  frame.payload = net::encode_response(9, response);
  const net::WireReply reply = net::decode_reply(frame);
  EXPECT_EQ(reply.id, 9u);
  EXPECT_FALSE(reply.busy);
  EXPECT_EQ(reply.response.label, response.label);
  EXPECT_EQ(reply.response.key, response.key);
  EXPECT_EQ(reply.response.variant, response.variant);
  EXPECT_EQ(reply.response.converged, response.converged);
  EXPECT_EQ(reply.response.iterations, response.iterations);
  EXPECT_EQ(reply.response.inner_iterations, response.inner_iterations);
  // Bit-exact doubles: %.17g round-trips IEEE754 exactly.
  EXPECT_EQ(reply.response.initial_rr, response.initial_rr);
  EXPECT_EQ(reply.response.final_rr, response.final_rr);
  EXPECT_EQ(reply.response.final_temperature, response.final_temperature);
  EXPECT_EQ(reply.response.solve_seconds, response.solve_seconds);
  EXPECT_EQ(reply.response.batch_size, response.batch_size);
  EXPECT_TRUE(reply.response.ok());
}

TEST(NetProtocol, BusyAndErrorRepliesDecodeStructured) {
  net::Frame busy;
  busy.type = net::FrameType::kBusy;
  busy.payload = net::encode_busy(5, "queue full");
  const net::WireReply busy_reply = net::decode_reply(busy);
  EXPECT_EQ(busy_reply.id, 5u);
  EXPECT_TRUE(busy_reply.busy);

  net::Frame error;
  error.type = net::FrameType::kError;
  error.payload = net::encode_error(7, "bad-deck", "no such solver");
  const net::WireReply error_reply = net::decode_reply(error);
  EXPECT_EQ(error_reply.id, 7u);
  EXPECT_FALSE(error_reply.busy);
  EXPECT_EQ(error_reply.response.error, "bad-deck: no such solver");
}

TEST(NetProtocol, StatsRoundTrip) {
  service::ServiceStats stats;
  stats.submitted = 10;
  stats.rejected = 2;
  stats.completed = 8;
  stats.batches = 5;
  stats.batched_solves = 4;
  stats.fallback_solves = 1;
  stats.plan.hits = 6;
  stats.plan.misses = 2;
  stats.plan.tunes = 2;
  stats.plan.evictions = 1;
  stats.arena.allocated = 3;
  stats.arena.reused = 7;
  const service::ServiceStats decoded =
      net::decode_stats(net::encode_stats(stats));
  EXPECT_EQ(decoded.submitted, stats.submitted);
  EXPECT_EQ(decoded.rejected, stats.rejected);
  EXPECT_EQ(decoded.completed, stats.completed);
  EXPECT_EQ(decoded.batches, stats.batches);
  EXPECT_EQ(decoded.batched_solves, stats.batched_solves);
  EXPECT_EQ(decoded.fallback_solves, stats.fallback_solves);
  EXPECT_EQ(decoded.plan.hits, stats.plan.hits);
  EXPECT_EQ(decoded.plan.misses, stats.plan.misses);
  EXPECT_EQ(decoded.plan.tunes, stats.plan.tunes);
  EXPECT_EQ(decoded.plan.evictions, stats.plan.evictions);
  EXPECT_EQ(decoded.arena.allocated, stats.arena.allocated);
  EXPECT_EQ(decoded.arena.reused, stats.arena.reused);
}

TEST(NetProtocol, DecodeRejectsMissingFields) {
  EXPECT_THROW(net::decode_request("{}"), tl::ConfigError);
  EXPECT_THROW(net::decode_request("not json"), tl::ConfigError);
  net::Frame frame;
  frame.type = net::FrameType::kResponse;
  frame.payload = "{}";
  EXPECT_THROW(net::decode_reply(frame), tl::ConfigError);
}

TEST(NetProtocol, DeeplyNestedRequestIsAStructuredError) {
  // A max-size frame of '[' with a valid checksum: the decoder must refuse
  // it with a parse error instead of overflowing the stack.
  const std::string payload(net::kMaxPayloadBytes, '[');
  net::FrameReader reader;
  const std::string bytes =
      net::encode_frame(net::FrameType::kRequest, payload);
  reader.feed(bytes.data(), bytes.size());
  net::Frame frame;
  ASSERT_TRUE(reader.next(frame));
  ASSERT_EQ(frame.payload.size(), payload.size());
  EXPECT_THROW(net::decode_request(frame.payload), tl::ConfigError);
}

// ---------------------------------------------------------------------------
// Server end-to-end
// ---------------------------------------------------------------------------

TEST(NetServer, RoundTripMatchesInProcessBitwise) {
  // The keystone: a networked solve must be bit-identical to the same
  // problem solved in-process — iterations, residuals, conserved
  // temperature, everything golden_responses_json pins.
  gen::GenOptions gen_options;
  gen_options.seed = 3;
  gen_options.count = 2;
  const std::vector<service::SolveRequest> requests =
      service::requests_from_gen(gen_options);

  std::vector<service::SolveResponse> local;
  {
    service::SolveService daemon(portable_service(), nullptr);
    daemon.start();
    for (const service::SolveRequest& request : requests) {
      const service::Ticket ticket = daemon.submit(request);
      ASSERT_TRUE(ticket);
      local.push_back(daemon.wait(ticket));
    }
    daemon.shutdown();
  }

  TestServer server("keystone.sock");
  net::Client client(server.address());
  std::vector<service::SolveResponse> remote;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const net::WireReply reply =
        client.solve(requests[i].problem, requests[i].label);
    ASSERT_FALSE(reply.busy);
    ASSERT_TRUE(reply.response.ok()) << reply.response.error;
    EXPECT_EQ(reply.response.key, local[i].key);
    EXPECT_EQ(reply.response.variant, local[i].variant);
    EXPECT_EQ(reply.response.converged, local[i].converged);
    EXPECT_EQ(reply.response.iterations, local[i].iterations);
    EXPECT_EQ(reply.response.inner_iterations, local[i].inner_iterations);
    EXPECT_EQ(reply.response.initial_rr, local[i].initial_rr);
    EXPECT_EQ(reply.response.final_rr, local[i].final_rr);
    EXPECT_EQ(reply.response.final_temperature, local[i].final_temperature);
    remote.push_back(reply.response);
  }
  // The byte-level form of the same contract: the golden JSON the net-smoke
  // CI job `cmp`s must match exactly.
  EXPECT_EQ(service::golden_responses_json(remote),
            service::golden_responses_json(local));
}

TEST(NetServer, PipelinedRequestsMatchOutOfOrderWaits) {
  TestServer server("pipeline.sock");
  net::Client client(server.address());

  const tl::ProblemConfig a = tiny_problem(16, 2);
  const tl::ProblemConfig b = tiny_problem(24, 2);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i)
    ids.push_back(client.submit(i % 2 == 0 ? a : b,
                                "req-" + std::to_string(i)));
  // Wait in reverse submission order: replies arrive in completion order
  // and the client must stash whatever it reads past.
  for (std::size_t i = ids.size(); i-- > 0;) {
    const net::WireReply reply = client.wait(ids[i]);
    ASSERT_FALSE(reply.busy);
    ASSERT_TRUE(reply.response.ok()) << reply.response.error;
    EXPECT_EQ(reply.response.label, "req-" + std::to_string(i));
    EXPECT_TRUE(reply.response.converged);
  }
}

TEST(NetServer, QueueFullYieldsBusyFrameNotDropOrHang) {
  // Deterministic backpressure: the service is NOT started, so the first
  // request parks in the queue (capacity 1) and the second must be answered
  // with a BUSY frame immediately.
  service::ServiceOptions svc_options = portable_service();
  svc_options.queue_capacity = 1;
  TestServer server("busy.sock", svc_options, /*start_service=*/false);
  net::Client client(server.address());

  const tl::ProblemConfig problem = tiny_problem(16, 2);
  const std::uint64_t first = client.submit(problem, "admitted");
  const std::uint64_t second = client.submit(problem, "refused");
  const net::WireReply busy = client.wait(second);
  EXPECT_TRUE(busy.busy);

  // Start the shards: the parked request completes normally — backpressure
  // refused the overflow, it never lost admitted work.
  server.service.start();
  const net::WireReply reply = client.wait(first);
  ASSERT_FALSE(reply.busy);
  ASSERT_TRUE(reply.response.ok()) << reply.response.error;
  EXPECT_TRUE(reply.response.converged);
}

TEST(NetServer, SurvivesAbruptDisconnectMidRequest) {
  TestServer server("abrupt.sock");
  const net::Address address = net::parse_address(server.address());
  const tl::ProblemConfig problem = tiny_problem(16, 2);

  {
    // Half a frame, then vanish.
    net::Fd fd = net::connect_to(address);
    const std::string bytes = net::encode_frame(
        net::FrameType::kRequest,
        net::encode_request(net::make_request(1, "half", problem)));
    net::send_all(fd.get(), bytes.data(), bytes.size() / 2);
  }
  {
    // A full request, then vanish before the response can be written: the
    // solve still runs and its completion must be dropped cleanly.
    net::Fd fd = net::connect_to(address);
    const std::string bytes = net::encode_frame(
        net::FrameType::kRequest,
        net::encode_request(net::make_request(2, "vanish", problem)));
    net::send_all(fd.get(), bytes.data(), bytes.size());
  }

  // The server is still fully functional for the next client.
  net::Client client(server.address());
  const net::WireReply reply = client.solve(problem, "after");
  ASSERT_TRUE(reply.response.ok()) << reply.response.error;
  EXPECT_TRUE(reply.response.converged);
}

TEST(NetServer, MalformedStreamGetsErrorFrameThenClose) {
  TestServer server("garbage.sock");
  net::Fd fd = net::connect_to(net::parse_address(server.address()));
  const std::string garbage(64, 'Z');  // wrong magic from byte 0
  net::send_all(fd.get(), garbage.data(), garbage.size());

  net::FrameReader reader;
  net::Frame frame;
  ASSERT_TRUE(read_frame_blocking(fd.get(), reader, frame));
  EXPECT_EQ(frame.type, net::FrameType::kError);
  const net::WireReply reply = net::decode_reply(frame);
  EXPECT_EQ(reply.id, 0u);  // connection-level
  EXPECT_NE(reply.response.error.find("bad-magic"), std::string::npos)
      << reply.response.error;
  // ...then the server closes: EOF, never a hang.
  EXPECT_FALSE(read_frame_blocking(fd.get(), reader, frame));
}

TEST(NetServer, DeeplyNestedRequestIsRefusedAndServerSurvives) {
  TestServer server("nested.sock");
  net::Fd fd = net::connect_to(net::parse_address(server.address()));
  const std::string bytes = net::encode_frame(
      net::FrameType::kRequest, std::string(net::kMaxPayloadBytes, '['));
  net::send_all(fd.get(), bytes.data(), bytes.size());

  net::FrameReader reader;
  net::Frame frame;
  ASSERT_TRUE(read_frame_blocking(fd.get(), reader, frame));
  EXPECT_EQ(frame.type, net::FrameType::kError);
  const net::WireReply reply = net::decode_reply(frame);
  EXPECT_NE(reply.response.error.find("nesting deeper than"),
            std::string::npos)
      << reply.response.error;
  // The daemon is still serving.
  net::Client client(server.address());
  EXPECT_TRUE(client.solve(tiny_problem(16, 1), "after").response.ok());
}

TEST(NetServer, BadDeckAnswersPerRequestErrorAndKeepsConnection) {
  TestServer server("baddeck.sock");
  net::Fd fd = net::connect_to(net::parse_address(server.address()));

  net::WireRequest bad;
  bad.id = 11;
  bad.label = "bad";
  bad.deck = "this is not a deck";
  const std::string bytes =
      net::encode_frame(net::FrameType::kRequest, net::encode_request(bad));
  net::send_all(fd.get(), bytes.data(), bytes.size());

  net::FrameReader reader;
  net::Frame frame;
  ASSERT_TRUE(read_frame_blocking(fd.get(), reader, frame));
  EXPECT_EQ(frame.type, net::FrameType::kError);
  const net::WireReply reply = net::decode_reply(frame);
  EXPECT_EQ(reply.id, 11u);  // echoed: a payload error is per-request...
  EXPECT_NE(reply.response.error.find("bad-deck"), std::string::npos);

  // ...and the connection stays in sync: a stats query still answers.
  const std::string stats_bytes =
      net::encode_frame(net::FrameType::kStatsRequest, "{}");
  net::send_all(fd.get(), stats_bytes.data(), stats_bytes.size());
  ASSERT_TRUE(read_frame_blocking(fd.get(), reader, frame));
  EXPECT_EQ(frame.type, net::FrameType::kStats);
}

TEST(NetServer, StatsFrameMatchesServiceCounters) {
  TestServer server("stats.sock");
  net::Client client(server.address());
  const tl::ProblemConfig problem = tiny_problem(16, 2);
  for (int i = 0; i < 3; ++i) {
    const net::WireReply reply =
        client.solve(problem, "s" + std::to_string(i));
    ASSERT_TRUE(reply.response.ok()) << reply.response.error;
  }
  const service::ServiceStats wire = client.stats();
  const service::ServiceStats local = server.service.stats();
  EXPECT_EQ(wire.submitted, 3);
  EXPECT_EQ(wire.completed, 3);
  EXPECT_EQ(wire.submitted, local.submitted);
  EXPECT_EQ(wire.completed, local.completed);
  EXPECT_EQ(wire.arena.allocated, local.arena.allocated);
  EXPECT_EQ(wire.arena.reused, local.arena.reused);
}

TEST(NetServer, NetReplayDriverRetriesBusyAndPreservesOrder) {
  service::ServiceOptions svc_options = portable_service();
  svc_options.queue_capacity = 2;  // small bound: forces BUSY retries
  TestServer server("replaydrv.sock", svc_options);

  gen::GenOptions gen_options;
  gen_options.seed = 3;
  gen_options.count = 2;
  const std::vector<service::SolveRequest> requests =
      service::requests_from_gen(gen_options);

  service::ReplayOptions options;
  options.connections = 2;
  options.repeats = 2;
  options.window = 8;  // deeper than the queue bound
  const service::ReplayReport report = service::run_replay(
      net::over_wire(server.address()), requests, options);
  ASSERT_EQ(report.responses.size(),
            requests.size() * 2u * 2u);  // repeats x connections
  EXPECT_TRUE(report.all_ok());
  // Sequence slots survive BUSY resubmission: each connection's block lists
  // the population in submission order.
  for (std::size_t i = 0; i < report.responses.size(); ++i)
    EXPECT_EQ(report.responses[i].label,
              requests[i % requests.size()].label);
}

TEST(NetServer, SigtermDrainsInFlightBeforeExit) {
  // The lifecycle pin: SIGTERM while requests are parked in the queue must
  // answer every one of them before run() returns — listener closed first,
  // in-flight work never abandoned.
  service::ServiceOptions svc_options = portable_service();
  TestServer server("sigterm.sock", svc_options, /*start_service=*/false);
  net::install_signal_handlers(server.server.get());

  net::Client client(server.address());
  const tl::ProblemConfig problem = tiny_problem(16, 2);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(client.submit(problem, "inflight-" + std::to_string(i)));
  // Wait until the server has admitted all three (none can complete: the
  // worker shards are not running yet).
  while (server.server->io_stats().requests < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::raise(SIGTERM);           // -> request_stop(), drain begins
  server.service.start();        // shards answer the parked requests
  for (const std::uint64_t id : ids) {
    const net::WireReply reply = client.wait(id);
    ASSERT_FALSE(reply.busy);
    ASSERT_TRUE(reply.response.ok()) << reply.response.error;
    EXPECT_TRUE(reply.response.converged);
  }
  server.io_thread.join();       // run() returned after the drain
  server.io_thread = std::thread([] {});  // keep the destructor joinable
  net::install_signal_handlers(nullptr);

  // The listener is gone: new connections must be refused.
  EXPECT_THROW(net::Client refused(server.address()), tl::Error);
}

}  // namespace
