#include "net/client.hpp"

#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>
#include <sys/socket.h>

#include "common/error.hpp"

namespace net {

Client::Client(const std::string& address)
    : fd_(connect_to(parse_address(address))) {}

std::uint64_t Client::submit(const tl::ProblemConfig& problem,
                             const std::string& label) {
  TL_REQUIRE(fd_.valid(), "net: submit() on a closed client");
  const std::uint64_t id = next_id_++;
  const std::string frame = encode_frame(
      FrameType::kRequest, encode_request(make_request(id, label, problem)));
  send_all(fd_.get(), frame.data(), frame.size());
  return id;
}

Frame Client::read_frame() {
  Frame frame;
  for (;;) {
    if (reader_.next(frame)) return frame;
    char buffer[64 * 1024];
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof buffer, 0);
    if (n > 0) {
      reader_.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0)
      throw tl::Error("net: server closed the connection");
    throw tl::Error(std::string("net: recv: ") + std::strerror(errno));
  }
}

WireReply Client::wait(std::uint64_t id) {
  const auto stashed = stashed_.find(id);
  if (stashed != stashed_.end()) {
    WireReply reply = std::move(stashed->second);
    stashed_.erase(stashed);
    return reply;
  }
  for (;;) {
    const Frame frame = read_frame();
    if (frame.type == FrameType::kStats)
      continue;  // a stale stats reply; stats() reads its own
    WireReply reply = decode_reply(frame);
    if (frame.type == FrameType::kError && reply.id == 0)
      throw tl::Error("net: server error: " + reply.response.error);
    if (reply.id == id) return reply;
    stashed_.emplace(reply.id, std::move(reply));
  }
}

WireReply Client::solve(const tl::ProblemConfig& problem,
                        const std::string& label) {
  return wait(submit(problem, label));
}

service::ServiceStats Client::stats() {
  TL_REQUIRE(fd_.valid(), "net: stats() on a closed client");
  const std::string frame = encode_frame(FrameType::kStatsRequest, "{}");
  send_all(fd_.get(), frame.data(), frame.size());
  for (;;) {
    const Frame reply = read_frame();
    if (reply.type == FrameType::kStats) return decode_stats(reply.payload);
    if (reply.type == FrameType::kError) {
      const WireReply decoded = decode_reply(reply);
      if (decoded.id == 0)
        throw tl::Error("net: server error: " + decoded.response.error);
      stashed_.emplace(decoded.id, decoded);
      continue;
    }
    WireReply decoded = decode_reply(reply);
    stashed_.emplace(decoded.id, std::move(decoded));
  }
}

namespace {

/// The wire Submitter: one Client connection.
class ClientSubmitter final : public service::Submitter {
 public:
  explicit ClientSubmitter(const std::string& address) : client_(address) {}

  std::optional<std::uint64_t> submit(
      const service::SolveRequest& request) override {
    return client_.submit(request.problem, request.label);
  }

  service::Reply wait(std::uint64_t id) override {
    WireReply reply = client_.wait(id);
    return {reply.busy, std::move(reply.response)};
  }

 private:
  Client client_;
};

}  // namespace

service::Connect over_wire(const std::string& address) {
  return [address] { return std::make_unique<ClientSubmitter>(address); };
}

}  // namespace net
