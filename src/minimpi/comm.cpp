#include "minimpi/comm.hpp"

#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "machine/instrumentation.hpp"

namespace minimpi {

World::World(int size) : size_(size) {
  TL_REQUIRE(size >= 1, "world size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void World::run(const std::function<void(Comm&)>& rank_main) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // Ranks charge wherever their spawner does (a CounterScope, a service's
  // sink), as the same work would on one thread.
  machine::Instrumentation& spawner_sink = machine::sink();

  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      const machine::SinkBinding binding(spawner_sink);
      Comm comm(*this, r);
      try {
        rank_main(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void Comm::send_bytes(const void* data, std::size_t bytes, int dest, Tag tag) {
  if (dest == kProcNull) return;
  TL_REQUIRE(dest >= 0 && dest < size(),
             "send to invalid rank " + std::to_string(dest));
  // Charge before delivery: a message is counted before any rank can
  // receive it, so a count read after a receive includes that message.
  machine::sink().add_message(static_cast<std::int64_t>(bytes));
  world_.mailboxes_[static_cast<std::size_t>(dest)]->push(rank_, tag, data,
                                                          bytes);
}

Status Comm::recv_bytes(void* data, std::size_t bytes, int source, Tag tag) {
  if (source == kProcNull) {
    Status st;
    st.source = kProcNull;
    st.tag = tag;
    st.bytes = 0;
    return st;
  }
  TL_REQUIRE(source == kAnySource || (source >= 0 && source < size()),
             "recv from invalid rank " + std::to_string(source));
  return world_.mailboxes_[static_cast<std::size_t>(rank_)]->pop(source, tag,
                                                                 data, bytes);
}

bool Comm::test(Request& request) {
  if (request.done_) return true;
  TL_REQUIRE(request.kind_ == Request::Kind::kRecv,
             "only receive requests can be pending");
  if (request.source_ == kProcNull) {
    request.status_ = Status{};
    request.status_.source = kProcNull;
    request.status_.tag = request.tag_;
    request.done_ = true;
    return true;
  }
  const auto st =
      world_.mailboxes_[static_cast<std::size_t>(rank_)]->try_pop(
          request.source_, request.tag_, request.data_, request.bytes_);
  if (!st) return false;
  request.status_ = *st;
  request.done_ = true;
  return true;
}

Status Comm::wait(Request& request) {
  if (request.done_) return request.status_;
  TL_REQUIRE(request.kind_ == Request::Kind::kRecv,
             "only receive requests can be pending");
  request.status_ = recv_bytes(request.data_, request.bytes_, request.source_,
                               request.tag_);
  request.done_ = true;
  return request.status_;
}

std::vector<Status> Comm::waitall(tl::span<Request> requests) {
  std::vector<Status> statuses;
  statuses.reserve(requests.size());
  for (Request& r : requests) statuses.push_back(wait(r));
  return statuses;
}

bool Comm::iprobe(int source, Tag tag, Status* status) {
  if (source == kProcNull) return false;
  return world_.mailboxes_[static_cast<std::size_t>(rank_)]->probe(source, tag,
                                                                   status);
}

void Comm::barrier() {
  // Zero-byte allreduce: binomial reduce to 0, then broadcast of a token.
  (void)allreduce<int>(0, ReduceOp::kSum);
}

void run_world(int size, const std::function<void(Comm&)>& rank_main) {
  World world(size);
  world.run(rank_main);
}

}  // namespace minimpi
