#include "service/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "results/json.hpp"

namespace service {

namespace {

using Clock = std::chrono::steady_clock;

struct ConnectionOutcome {
  std::vector<SolveResponse> responses;  // indexed by submission sequence
  std::vector<double> latencies;
  long busy_retries = 0;
  std::string error;  // non-empty when the connection thread threw
};

void replay_connection(const Connect& connect,
                       const std::vector<SolveRequest>& requests,
                       const ReplayOptions& options, ConnectionOutcome& out) {
  try {
    const std::unique_ptr<Submitter> submitter = connect();
    const std::size_t total =
        requests.size() * static_cast<std::size_t>(options.repeats);
    out.responses.resize(total);
    out.latencies.resize(total, 0.0);
    std::vector<Clock::time_point> first_submit(total);

    struct InFlight {
      std::uint64_t id;
      std::size_t seq;
    };
    std::deque<InFlight> in_flight;
    std::deque<std::size_t> refused;  // sequences awaiting resubmission

    // Collect the oldest reply that is not BUSY; BUSY ones met on the way
    // are queued for resubmission.  With nothing left in flight, back off
    // briefly instead.
    const auto collect_oldest = [&] {
      while (!in_flight.empty()) {
        const InFlight oldest = in_flight.front();
        in_flight.pop_front();
        Reply reply = submitter->wait(oldest.id);
        if (!reply.busy) {
          out.responses[oldest.seq] = std::move(reply.response);
          out.latencies[oldest.seq] = std::chrono::duration<double>(
              Clock::now() - first_submit[oldest.seq]).count();
          return;
        }
        ++out.busy_retries;
        refused.push_back(oldest.seq);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    };

    const auto window = static_cast<std::size_t>(options.window);
    std::size_t next = 0;
    while (next < total || !refused.empty() || !in_flight.empty()) {
      if (in_flight.size() >= window || (next == total && refused.empty())) {
        collect_oldest();
        continue;
      }
      std::size_t seq = next;
      if (refused.empty()) {
        first_submit[next++] = Clock::now();
      } else {
        seq = refused.front();
        refused.pop_front();
      }
      if (const auto id = submitter->submit(requests[seq % requests.size()])) {
        in_flight.push_back({*id, seq});
      } else {
        ++out.busy_retries;
        refused.push_front(seq);
        collect_oldest();
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

/// The in-process Submitter: SolveService tickets; a refused admission is
/// known at once, so submit() reports it.
class ServiceSubmitter final : public Submitter {
 public:
  explicit ServiceSubmitter(SolveService& service) : service_(service) {
    service_.start();
  }

  std::optional<std::uint64_t> submit(const SolveRequest& request) override {
    Ticket ticket = service_.submit(request);
    if (ticket == nullptr) {
      if (!service_.admits())
        throw tl::Error(
            "replay: the service admits no work (shut down, or queue "
            "capacity 0)");
      return std::nullopt;
    }
    tickets_.emplace(next_id_, std::move(ticket));
    return next_id_++;
  }

  Reply wait(std::uint64_t id) override {
    const auto it = tickets_.find(id);
    TL_REQUIRE(it != tickets_.end(), "replay: wait() on an unknown id");
    const Ticket ticket = std::move(it->second);
    tickets_.erase(it);
    return {false, service_.wait(ticket)};
  }

 private:
  SolveService& service_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Ticket> tickets_;
};

}  // namespace

Connect in_process(SolveService& service) {
  return [&service] { return std::make_unique<ServiceSubmitter>(service); };
}

ReplayReport run_replay(const Connect& connect,
                        const std::vector<SolveRequest>& requests,
                        const ReplayOptions& options) {
  ReplayReport report;
  if (requests.empty() || options.repeats < 1) return report;
  TL_REQUIRE(options.connections >= 1, "replay: need >= 1 connection");
  TL_REQUIRE(options.window >= 1, "replay: need a window of >= 1");

  std::vector<ConnectionOutcome> outcomes(options.connections);
  const tl::StopWatch watch;
  {
    std::vector<std::thread> threads;
    for (ConnectionOutcome& outcome : outcomes)
      threads.emplace_back(replay_connection, std::cref(connect),
                           std::cref(requests), std::cref(options),
                           std::ref(outcome));
    for (std::thread& thread : threads) thread.join();
  }
  report.wall_seconds = watch.seconds();

  for (ConnectionOutcome& outcome : outcomes) {
    if (!outcome.error.empty())
      throw tl::Error("replay connection failed: " + outcome.error);
    report.busy_retries += outcome.busy_retries;
    report.latencies.insert(report.latencies.end(), outcome.latencies.begin(),
                            outcome.latencies.end());
    for (SolveResponse& response : outcome.responses)
      report.responses.push_back(std::move(response));
  }
  report.p50_s = latency_percentile(report.latencies, 0.50);
  report.p99_s = latency_percentile(report.latencies, 0.99);
  report.throughput_sps =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.responses.size()) / report.wall_seconds
          : 0.0;
  return report;
}

double latency_percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::min(1.0, std::max(0.0, q));
  const auto index = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(samples.size() - 1) + 0.5));
  return samples[index];
}

std::vector<SolveRequest> requests_from_gen(const gen::GenOptions& options) {
  std::vector<SolveRequest> requests;
  for (const gen::GeneratedDeck& deck : gen::generate(options)) {
    SolveRequest request;
    request.label = deck.name;
    request.problem = deck.problem;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string golden_responses_json(const std::vector<SolveResponse>& responses) {
  results::Json array = results::Json::array();
  for (const SolveResponse& response : responses) {
    results::Json entry = results::Json::object();
    entry.set("label", response.label);
    entry.set("key", response.key);
    entry.set("variant", response.variant);
    entry.set("converged", response.converged);
    entry.set("iterations", static_cast<std::int64_t>(response.iterations));
    entry.set("inner_iterations",
              static_cast<std::int64_t>(response.inner_iterations));
    entry.set("initial_rr", response.initial_rr);
    entry.set("final_rr", response.final_rr);
    entry.set("final_temperature", response.final_temperature);
    if (!response.error.empty()) entry.set("error", response.error);
    array.push_back(std::move(entry));
  }
  return array.dump(2) + "\n";
}

}  // namespace service
