// Unit and property tests for minimpi: point-to-point semantics, message
// ordering, nonblocking requests, collectives against sequential references,
// and the 2D Cartesian topology.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "machine/instrumentation.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"

namespace {

using minimpi::Comm;
using minimpi::ReduceOp;

TEST(P2P, PingPong) {
  minimpi::run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(42, 1, /*tag=*/7);
      EXPECT_EQ(comm.recv_value<int>(1, 8), 43);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 7), 42);
      comm.send_value(43, 0, 8);
    }
  });
}

TEST(P2P, VectorPayloadRoundTrips) {
  minimpi::run_world(2, [](Comm& comm) {
    std::vector<double> data(1000);
    if (comm.rank() == 0) {
      std::iota(data.begin(), data.end(), 0.5);
      comm.send(tl::span<const double>(data), 1, 1);
    } else {
      const auto st = comm.recv(tl::span<double>(data), 0, 1);
      EXPECT_EQ(st.count<double>(), 1000u);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 1);
      EXPECT_DOUBLE_EQ(data[999], 999.5);
    }
  });
}

TEST(P2P, NonOvertakingPerTag) {
  minimpi::run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value(i, 1, /*tag=*/3);
    } else {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST(P2P, TagSelectivity) {
  minimpi::run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, /*tag=*/10);
      comm.send_value(2, 1, /*tag=*/20);
    } else {
      // Receive the later tag first: matching must be by tag, not order.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 2);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 1);
    }
  });
}

TEST(P2P, AnySourceAndAnyTag) {
  minimpi::run_world(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(comm.rank(), 0, comm.rank() * 100);
    } else {
      int sum = 0;
      for (int k = 0; k < 2; ++k) {
        int v = 0;
        const auto st = comm.recv(tl::span<int>(&v, 1), minimpi::kAnySource,
                                  minimpi::kAnyTag);
        EXPECT_EQ(st.tag, st.source * 100);
        sum += v;
      }
      EXPECT_EQ(sum, 3);
    }
  });
}

TEST(P2P, ProcNullIsNoop) {
  minimpi::run_world(1, [](Comm& comm) {
    double v = 5.0;
    comm.send(tl::span<const double>(&v, 1), minimpi::kProcNull, 0);
    const auto st = comm.recv(tl::span<double>(&v, 1), minimpi::kProcNull, 0);
    EXPECT_EQ(st.bytes, 0u);
    EXPECT_DOUBLE_EQ(v, 5.0);  // untouched
  });
}

TEST(P2P, InvalidRankThrows) {
  minimpi::run_world(1, [](Comm& comm) {
    int v = 0;
    EXPECT_THROW(comm.send_value(v, 5, 0), tl::Error);
  });
}

TEST(P2P, IsendIrecvWaitall) {
  minimpi::run_world(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    std::vector<double> out(64, static_cast<double>(comm.rank()));
    std::vector<double> in(64, -1.0);
    std::vector<minimpi::Request> reqs;
    reqs.push_back(comm.irecv(tl::span<double>(in), peer, 0));
    reqs.push_back(comm.isend(tl::span<const double>(out), peer, 0));
    comm.waitall(tl::span<minimpi::Request>(reqs));
    EXPECT_DOUBLE_EQ(in[0], static_cast<double>(peer));
    for (const auto& r : reqs) EXPECT_TRUE(r.done());
  });
}

TEST(P2P, RecvTruncationIsAHardError) {
  // MPI semantics: a message longer than the posted receive buffer is an
  // error (MPI_ERR_TRUNCATE), never a silent partial copy.  Pinned so the
  // mailbox can never regress to truncating payloads.
  EXPECT_THROW(minimpi::run_world(2,
                                  [](Comm& comm) {
                                    std::vector<double> big(16, 1.0);
                                    std::vector<double> small(4, 0.0);
                                    if (comm.rank() == 0) {
                                      comm.send(tl::span<const double>(big), 1,
                                                0);
                                    } else {
                                      comm.recv(tl::span<double>(small), 0, 0);
                                    }
                                  }),
               tl::Error);
}

TEST(P2P, TestCompletesArrivedRequest) {
  minimpi::run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(11, 1, 4);
      comm.barrier();
    } else {
      int v = 0;
      minimpi::Request req = comm.irecv(tl::span<int>(&v, 1), 0, 4);
      comm.barrier();  // after this the message must have been enqueued
      EXPECT_TRUE(comm.test(req));
      EXPECT_TRUE(req.done());
      EXPECT_EQ(req.status().source, 0);
      EXPECT_EQ(req.status().bytes, sizeof(int));
      EXPECT_EQ(v, 11);
      EXPECT_TRUE(comm.test(req));  // idempotent once complete
    }
  });
}

TEST(P2P, TestReturnsFalseBeforeArrival) {
  minimpi::run_world(2, [](Comm& comm) {
    if (comm.rank() == 1) {
      int v = 0;
      minimpi::Request req = comm.irecv(tl::span<int>(&v, 1), 0, 4);
      EXPECT_FALSE(comm.test(req));  // nothing sent yet
      comm.barrier();
      comm.wait(req);
      EXPECT_EQ(v, 21);
    } else {
      comm.barrier();
      comm.send_value(21, 1, 4);
    }
  });
}

TEST(P2P, TestOnProcNullRecvCompletesEmpty) {
  minimpi::run_world(1, [](Comm& comm) {
    double v = 3.0;
    minimpi::Request req =
        comm.irecv(tl::span<double>(&v, 1), minimpi::kProcNull, 9);
    EXPECT_TRUE(comm.test(req));
    EXPECT_EQ(req.status().bytes, 0u);
    EXPECT_DOUBLE_EQ(v, 3.0);  // untouched
  });
}

TEST(P2P, IprobeSeesPendingMessage) {
  minimpi::run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(9, 1, 5);
      comm.barrier();
    } else {
      comm.barrier();  // after this the message must have been enqueued
      minimpi::Status st;
      EXPECT_TRUE(comm.iprobe(0, 5, &st));
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_FALSE(comm.iprobe(0, 6));
      EXPECT_EQ(comm.recv_value<int>(0, 5), 9);
    }
  });
}

// --- collectives, parameterized over world size -----------------------------

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierCompletes) {
  minimpi::run_world(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(CollectiveTest, BcastFromEveryRoot) {
  const int n = GetParam();
  minimpi::run_world(n, [n](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<long> data(16, comm.rank() == root ? root * 1000 : -1);
      comm.bcast(tl::span<long>(data), root);
      for (const long v : data) EXPECT_EQ(v, root * 1000);
    }
  });
}

TEST_P(CollectiveTest, ReduceSumMatchesClosedForm) {
  const int n = GetParam();
  minimpi::run_world(n, [n](Comm& comm) {
    const double v = static_cast<double>(comm.rank() + 1);
    const double result = comm.reduce(v, ReduceOp::kSum, /*root=*/0);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(result, n * (n + 1) / 2.0);
    }
  });
}

TEST_P(CollectiveTest, AllreduceAllOps) {
  const int n = GetParam();
  minimpi::run_world(n, [n](Comm& comm) {
    const double v = static_cast<double>(comm.rank() + 1);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kSum), n * (n + 1) / 2.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kMin), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kMax), static_cast<double>(n));
    // Product of 1..n.
    double expect = 1.0;
    for (int k = 1; k <= n; ++k) expect *= k;
    EXPECT_DOUBLE_EQ(comm.allreduce(v, ReduceOp::kProd), expect);
  });
}

TEST_P(CollectiveTest, VectorAllreduceElementwise) {
  const int n = GetParam();
  minimpi::run_world(n, [n](Comm& comm) {
    double vals[3] = {1.0, static_cast<double>(comm.rank()),
                      static_cast<double>(comm.rank() * comm.rank())};
    comm.allreduce(tl::span<double>(vals), ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(vals[0], static_cast<double>(n));
    EXPECT_DOUBLE_EQ(vals[1], n * (n - 1) / 2.0);
  });
}

TEST_P(CollectiveTest, GatherAndAllgather) {
  const int n = GetParam();
  minimpi::run_world(n, [n](Comm& comm) {
    const auto gathered = comm.gather(comm.rank() * 2, /*root=*/0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) EXPECT_EQ(gathered[static_cast<std::size_t>(r)], r * 2);
    } else {
      EXPECT_TRUE(gathered.empty());
    }
    const auto all = comm.allgather(comm.rank() + 10);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r + 10);
  });
}

TEST_P(CollectiveTest, ScatterDistributesRootValues) {
  const int n = GetParam();
  minimpi::run_world(n, [n](Comm& comm) {
    std::vector<int> values;
    if (comm.rank() == 0) {
      values.resize(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) values[static_cast<std::size_t>(r)] = r * r;
    }
    const int mine = comm.scatter(tl::span<const int>(values), /*root=*/0);
    EXPECT_EQ(mine, comm.rank() * comm.rank());
  });
}

TEST_P(CollectiveTest, MixedTrafficDoesNotCorruptCollectives) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP() << "needs at least 2 ranks";
  minimpi::run_world(n, [](Comm& comm) {
    // Interleave user p2p traffic with collectives on reserved tags.
    const int peer = comm.rank() ^ 1;
    if (peer < comm.size()) {
      comm.send_value(comm.rank(), peer, /*tag=*/1);
    }
    const double sum = comm.allreduce(1.0, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(comm.size()));
    if (peer < comm.size()) {
      EXPECT_EQ(comm.recv_value<int>(peer, 1), peer);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(World, ExceptionFromRankPropagates) {
  EXPECT_THROW(minimpi::run_world(3,
                                  [](Comm& comm) {
                                    comm.barrier();
                                    if (comm.rank() == 1) {
                                      throw tl::Error("rank 1 exploded");
                                    }
                                  }),
               tl::Error);
}

TEST(World, RejectsNonPositiveSize) {
  EXPECT_THROW(minimpi::World(0), tl::Error);
}

// --- cartesian topology -------------------------------------------------------

TEST(Cart, DimsCreateNearSquare) {
  EXPECT_EQ(minimpi::dims_create(1), (std::array<int, 2>{1, 1}));
  EXPECT_EQ(minimpi::dims_create(4), (std::array<int, 2>{2, 2}));
  EXPECT_EQ(minimpi::dims_create(6), (std::array<int, 2>{3, 2}));
  EXPECT_EQ(minimpi::dims_create(7), (std::array<int, 2>{7, 1}));
  EXPECT_EQ(minimpi::dims_create(12), (std::array<int, 2>{4, 3}));
}

TEST(Cart, CoordsRoundTripAndNeighbours) {
  minimpi::run_world(6, [](Comm& comm) {
    minimpi::Cart2D cart(comm, {3, 2});
    const auto [cx, cy] = cart.coords();
    EXPECT_EQ(cart.rank_of(cx, cy), comm.rank());
    // Boundary neighbours are PROC_NULL.
    if (cx == 0) EXPECT_EQ(cart.left(), minimpi::kProcNull);
    if (cx == 2) EXPECT_EQ(cart.right(), minimpi::kProcNull);
    if (cy == 0) EXPECT_EQ(cart.down(), minimpi::kProcNull);
    if (cy == 1) EXPECT_EQ(cart.up(), minimpi::kProcNull);
    // Interior neighbours are mutual.
    if (cart.right() != minimpi::kProcNull) {
      const auto rc = cart.coords_of(cart.right());
      EXPECT_EQ(rc[0], cx + 1);
      EXPECT_EQ(rc[1], cy);
    }
  });
}

TEST(Cart, RejectsMismatchedDims) {
  minimpi::run_world(4, [](Comm& comm) {
    EXPECT_THROW(minimpi::Cart2D(comm, {3, 2}), tl::Error);
  });
}

TEST(BlockRange, PartitionsCellsContiguously) {
  for (const int cells : {1, 10, 97, 1000}) {
    for (const int parts : {1, 2, 3, 7}) {
      int expected_begin = 0;
      for (int p = 0; p < parts; ++p) {
        const auto [b, e] = minimpi::block_range(cells, parts, p);
        EXPECT_EQ(b, expected_begin);
        EXPECT_GE(e, b);
        expected_begin = e;
      }
      EXPECT_EQ(expected_begin, cells);
    }
  }
}

TEST(BlockRange, SizesWithinOneCell) {
  for (int p = 0; p < 3; ++p) {
    const auto [b, e] = minimpi::block_range(10, 3, p);
    EXPECT_GE(e - b, 3);
    EXPECT_LE(e - b, 4);
  }
}

// Rank threads start bound to the spawner's counter sink: a scope around
// run_world sees every rank's messages, and no rank's charge reaches a scope
// open on an unrelated thread.
TEST(World, RankThreadsChargeTheSpawnersSink) {
  machine::Counters bystander;
  machine::Counters spawner;
  std::atomic<bool> ranks_done{false};
  std::atomic<bool> bystander_open{false};
  std::thread other([&] {
    const machine::CounterScope scope;
    bystander_open.store(true);
    while (!ranks_done.load()) std::this_thread::yield();
    bystander = scope.delta();
  });
  while (!bystander_open.load()) std::this_thread::yield();
  {
    const machine::CounterScope scope;
    minimpi::run_world(4, [](Comm& comm) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send_value(comm.rank(), next, /*tag=*/3);
      EXPECT_EQ(comm.recv_value<int>(prev, 3), prev);
    });
    spawner = scope.delta();
  }
  ranks_done.store(true);
  other.join();
  EXPECT_EQ(spawner.messages, 4);
  EXPECT_EQ(spawner.message_bytes, 4 * static_cast<std::int64_t>(sizeof(int)));
  EXPECT_EQ(bystander.messages, 0);
}

}  // namespace
