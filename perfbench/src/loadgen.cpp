#include "loadgen.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pb {

namespace {

/// Deck draws without replacement, reshuffled every `decks` draws.
class DeckBag {
 public:
  DeckBag(std::size_t decks, tl::Rng& rng)
      : rng_(rng), order_(decks), used_(decks) {}

  std::size_t next() {
    if (used_ == order_.size()) {
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng_.next_below(i)]);
      used_ = 0;
    }
    return order_[used_++];
  }

 private:
  tl::Rng& rng_;
  std::vector<std::size_t> order_;
  std::size_t used_;
};

double between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate, int n,
                                      std::size_t decks) {
  tl::Rng rng(seed);
  const double span = n / rate;
  std::vector<double> offsets(static_cast<std::size_t>(n));
  for (double& t : offsets) t = rng.uniform(0.0, span);
  std::sort(offsets.begin(), offsets.end());
  DeckBag bag(decks, rng);
  std::vector<Arrival> schedule;
  schedule.reserve(offsets.size());
  for (double t : offsets) schedule.push_back({t, bag.next()});
  return schedule;
}

double RequestRecord::latency_s() const { return between(intended, received); }
double RequestRecord::lag_s() const { return between(intended, sent); }
double RequestRecord::rtt_s() const { return between(written, received); }

LoadGen::LoadGen(const std::string& address,
                 const std::vector<tl::ProblemConfig>& decks)
    : decks_(decks), fd_(net::connect_to(net::parse_address(address))) {
  net::set_nonblocking(fd_.get());
}

void LoadGen::submit(std::vector<RequestRecord>& records, std::size_t index) {
  RequestRecord& r = records[index];
  r.id = id_base_ + index;
  r.sent = Clock::now();
  const std::string frame = net::encode_frame(
      net::FrameType::kRequest,
      net::encode_request(net::make_request(
          r.id, "d" + std::to_string(r.deck), decks_[r.deck])));
  r.encoded = Clock::now();
  r.request_bytes = frame.size();
  outbox_ += frame;
  bytes_queued_ += frame.size();
  unwritten_.emplace_back(bytes_queued_, index);
  flush(records);
}

void LoadGen::flush(std::vector<RequestRecord>& records) {
  while (outbox_offset_ < outbox_.size()) {
    // Stamped before the call, so `written` never trails the moment the
    // server could first read the frame, even if this thread is preempted
    // right after send() returns.
    const Clock::time_point attempt = Clock::now();
    const ssize_t sent =
        ::send(fd_.get(), outbox_.data() + outbox_offset_,
               outbox_.size() - outbox_offset_, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent > 0) {
      outbox_offset_ += static_cast<std::size_t>(sent);
      bytes_written_ += static_cast<std::uint64_t>(sent);
      while (!unwritten_.empty() &&
             unwritten_.front().first <= bytes_written_) {
        records[unwritten_.front().second].written = attempt;
        unwritten_.pop_front();
      }
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw tl::Error(std::string("loadgen: send failed: ") +
                    std::strerror(errno));
  }
  if (outbox_offset_ == outbox_.size()) {
    outbox_.clear();
    outbox_offset_ = 0;
  }
}

int LoadGen::pump(std::vector<RequestRecord>& records,
                  Clock::time_point deadline) {
  flush(records);
  const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait);
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(ns.count() / 1000000000);
  timeout.tv_nsec = static_cast<long>(ns.count() % 1000000000);
  pollfd pfd{};
  pfd.fd = fd_.get();
  pfd.events = static_cast<short>(
      POLLIN | (outbox_offset_ < outbox_.size() ? POLLOUT : 0));
  const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return 0;
    throw tl::Error(std::string("loadgen: poll failed: ") +
                    std::strerror(errno));
  }
  if (ready == 0) return 0;
  if (pfd.revents & POLLOUT) flush(records);
  if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) return 0;

  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::recv(fd_.get(), buf, sizeof buf, MSG_DONTWAIT);
    if (got > 0) {
      reader_.feed(buf, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) throw tl::Error("loadgen: server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    throw tl::Error(std::string("loadgen: recv failed: ") +
                    std::strerror(errno));
  }
  int replies = 0;
  net::Frame frame;
  while (reader_.next(frame)) {
    const Clock::time_point start = Clock::now();
    net::WireReply reply = net::decode_reply(frame);
    const Clock::time_point end = Clock::now();
    if (reply.id < id_base_ || reply.id - id_base_ >= records.size())
      throw tl::Error("loadgen: reply for unknown request id " +
                      std::to_string(reply.id));
    RequestRecord& r = records[reply.id - id_base_];
    if (r.replied) throw tl::Error("loadgen: duplicate reply");
    r.received = end;
    r.decode_s = between(start, end);
    r.reply_bytes = net::kHeaderBytes + frame.payload.size();
    r.replied = true;
    r.busy = reply.busy;
    r.reply = std::move(reply);
    ++replies;
  }
  return replies;
}

std::vector<RequestRecord> LoadGen::open_loop(
    const std::vector<Arrival>& schedule) {
  const std::size_t n = schedule.size();
  std::vector<RequestRecord> records(n);
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    records[i].deck = schedule[i].deck;
    records[i].intended =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule[i].offset_s));
  }
  std::size_t next = 0, replied = 0;
  Clock::time_point progress = Clock::now();
  while (replied < n) {
    Clock::time_point now = Clock::now();
    while (next < n && records[next].intended <= now) {
      submit(records, next++);
      now = Clock::now();
    }
    const Clock::time_point deadline =
        next < n ? records[next].intended
                 : now + std::chrono::milliseconds(100);
    const int got = pump(records, deadline);
    replied += static_cast<std::size_t>(got);
    if (got > 0 || next < n) progress = Clock::now();
    if (seconds_since(progress) > 60.0)
      throw tl::Error("loadgen: no reply for 60 s");
  }
  id_base_ += n;
  return records;
}

}  // namespace pb
