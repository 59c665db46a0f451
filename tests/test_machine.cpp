// Unit tests for the machine layer: counters and counter sinks, machine
// registry, efficiency calibration table, and roofline projection
// properties.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "machine/efficiency.hpp"
#include "machine/instrumentation.hpp"
#include "machine/machine_model.hpp"
#include "machine/roofline.hpp"

namespace {

using machine::Counters;
using machine::EfficiencyProfile;
using machine::MachineModel;

TEST(Counters, ArithmeticAndSnapshot) {
  machine::Instrumentation instr;
  instr.add_traffic(100, 50, 10);
  instr.add_launch(2);
  instr.add_message(64);
  instr.add_h2d(8);
  instr.add_reduction();
  const Counters c = instr.snapshot();
  EXPECT_EQ(c.bytes_read, 100);
  EXPECT_EQ(c.bytes_written, 50);
  EXPECT_EQ(c.total_bytes(), 150);
  EXPECT_EQ(c.flops, 10);
  EXPECT_EQ(c.kernel_launches, 2);
  EXPECT_EQ(c.messages, 1);
  EXPECT_EQ(c.message_bytes, 64);
  EXPECT_EQ(c.h2d_bytes, 8);
  EXPECT_EQ(c.reductions, 1);
}

TEST(Counters, ScopeDeltas) {
  machine::sink().add_traffic(1000, 0, 0);
  const machine::CounterScope scope;
  machine::sink().add_traffic(0, 500, 0);
  const Counters d = scope.delta();
  EXPECT_EQ(d.bytes_read, 0);
  EXPECT_EQ(d.bytes_written, 500);
}

TEST(CounterSinks, ChargeReachesEveryAncestorUpToGlobal) {
  machine::Instrumentation& root = machine::Instrumentation::global();
  const Counters root_before = root.snapshot();
  machine::Instrumentation parent;  // a child of global()
  machine::Instrumentation child(&parent);
  child.add_launch(3);
  child.add_message(64);
  parent.add_launch();
  EXPECT_EQ(child.snapshot().kernel_launches, 3);
  EXPECT_EQ(child.snapshot().message_bytes, 64);
  EXPECT_EQ(parent.snapshot().kernel_launches, 4);
  EXPECT_EQ(parent.snapshot().messages, 1);
  const Counters root_delta = root.snapshot() - root_before;
  EXPECT_EQ(root_delta.kernel_launches, 4);
  EXPECT_EQ(root_delta.message_bytes, 64);
}

TEST(CounterSinks, ScopesNestAndRestoreTheBinding) {
  EXPECT_EQ(&machine::sink(), &machine::Instrumentation::global());
  {
    const machine::CounterScope outer;
    ASSERT_NE(&machine::sink(), &machine::Instrumentation::global());
    machine::sink().add_reduction();
    {
      const machine::CounterScope inner;
      machine::sink().add_reduction(2);
      EXPECT_EQ(inner.delta().reductions, 2);
    }
    machine::sink().add_reduction(4);
    EXPECT_EQ(outer.delta().reductions, 7);
  }
  EXPECT_EQ(&machine::sink(), &machine::Instrumentation::global());
}

// The bug per-execution sinks fix: a scope sees only its own thread's
// charges, however busy a sibling thread is.
TEST(CounterSinks, SiblingThreadChargesStayOutOfAScope) {
  std::atomic<bool> stop{false};
  std::atomic<long> sibling_charges{0};
  std::thread sibling([&] {
    while (!stop.load()) {
      machine::sink().add_launch();
      sibling_charges.fetch_add(1);
    }
  });
  while (sibling_charges.load() == 0) std::this_thread::yield();
  Counters delta;
  {
    const machine::CounterScope scope;
    for (int i = 0; i < 1000; ++i) {
      machine::sink().add_launch();
      std::this_thread::yield();
    }
    delta = scope.delta();
  }
  stop.store(true);
  sibling.join();
  EXPECT_EQ(delta.kernel_launches, 1000);
}

TEST(CounterSinks, ThreadsBoundToOneSinkSumExactly) {
  machine::Instrumentation shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      const machine::SinkBinding binding(shared);
      for (int i = 0; i < 1000; ++i) machine::sink().add_traffic(8, 16, 1);
    });
  }
  for (std::thread& t : threads) t.join();
  const Counters c = shared.snapshot();
  EXPECT_EQ(c.bytes_read, 4 * 1000 * 8);
  EXPECT_EQ(c.bytes_written, 4 * 1000 * 16);
  EXPECT_EQ(c.flops, 4 * 1000);
  EXPECT_EQ(&machine::sink(), &machine::Instrumentation::global());
}

TEST(Counters, ToStringMentionsFields) {
  Counters c;
  c.flops = 7;
  EXPECT_NE(c.to_string().find("flops=7"), std::string::npos);
}

TEST(MachineRegistry, PaperMachinesPresent) {
  const auto machines = machine::paper_machines();
  ASSERT_EQ(machines.size(), 3u);
  EXPECT_EQ(machines[0]->id, "xeon");
  EXPECT_EQ(machines[1]->id, "knl");
  EXPECT_EQ(machines[2]->id, "p100");
  EXPECT_FALSE(machines[0]->is_gpu());
  EXPECT_TRUE(machines[2]->is_gpu());
  // Table II headline specs.
  EXPECT_EQ(machines[0]->cores, 28);
  EXPECT_EQ(machines[1]->cores, 64);
  EXPECT_GT(machines[1]->peak_bw_gbs, machines[0]->peak_bw_gbs);
  EXPECT_GT(machines[2]->peak_bw_gbs, machines[1]->peak_bw_gbs);
}

TEST(MachineRegistry, LookupByIdAndUnknownThrows) {
  EXPECT_EQ(machine::machine_by_id("knl").id, "knl");
  EXPECT_THROW(machine::machine_by_id("cray-1"), tl::Error);
}

TEST(Efficiency, SupportMatrixMatchesPaper) {
  const auto& xeon = machine::xeon_e5_2660v4();
  const auto& knl = machine::knl_7210();
  const auto& p100 = machine::tesla_p100();
  // CPU variants run on CPUs, not on the GPU.
  EXPECT_TRUE(machine::supported("manual-omp", xeon));
  EXPECT_TRUE(machine::supported("manual-omp", knl));
  EXPECT_FALSE(machine::supported("manual-omp", p100));
  // GPU variants only on the P100.
  EXPECT_TRUE(machine::supported("kokkos-cuda", p100));
  EXPECT_FALSE(machine::supported("kokkos-cuda", xeon));
  // PGI 17.3 could not offload OpenACC to the KNL host (paper §IV-B).
  EXPECT_TRUE(machine::supported("manual-acc-cpu", xeon));
  EXPECT_FALSE(machine::supported("manual-acc-cpu", knl));
}

TEST(Efficiency, Table3AnchorsPreserved) {
  // [T3] anchors from the paper's Table III bandwidth column.
  EXPECT_NEAR(machine::efficiency_for("ops-tiled", machine::knl_7210()).bw_fraction,
              0.9593, 1e-9);
  EXPECT_NEAR(machine::efficiency_for("manual-cuda", machine::tesla_p100()).bw_fraction,
              0.757, 1e-9);
  EXPECT_NEAR(machine::efficiency_for("raja-omp", machine::xeon_e5_2660v4()).bw_fraction,
              0.531, 1e-9);
  // [APP] anchor: Kokkos' KNL residual is set from Table III *application*
  // efficiency (31.40%) because our leaner reimplementation moves fewer
  // bytes than the 2017 build (see efficiency.cpp).
  EXPECT_NEAR(machine::efficiency_for("kokkos-omp", machine::knl_7210()).bw_fraction,
              0.30, 1e-9);
}

TEST(Efficiency, UnsupportedLookupThrows) {
  EXPECT_THROW(machine::efficiency_for("manual-cuda", machine::knl_7210()),
               tl::Error);
}

TEST(Efficiency, FrameworkOfSplitsPrefix) {
  EXPECT_EQ(machine::framework_of("manual-acc-cpu"), "manual");
  EXPECT_EQ(machine::framework_of("ops-tiled"), "ops");
  EXPECT_EQ(machine::framework_of("serial"), "serial");
}

TEST(Efficiency, PaperVariantListHasSixteen) {
  EXPECT_EQ(machine::paper_variants().size(), 16u);
}

TEST(Efficiency, GpuVariantClassifier) {
  EXPECT_TRUE(machine::is_gpu_variant("ops-cuda"));
  EXPECT_TRUE(machine::is_gpu_variant("manual-acc-gpu"));
  EXPECT_TRUE(machine::is_gpu_variant("ops-acc"));
  EXPECT_FALSE(machine::is_gpu_variant("manual-acc-cpu"));
  EXPECT_FALSE(machine::is_gpu_variant("ops-tiled"));
}

// --- roofline properties ------------------------------------------------------

Counters stream_counters(std::int64_t bytes, std::int64_t flops = 0) {
  Counters c;
  c.bytes_read = bytes / 2;
  c.bytes_written = bytes - c.bytes_read;
  c.flops = flops;
  return c;
}

TEST(Roofline, TimeScalesLinearlyInBytes) {
  const EfficiencyProfile prof{.bw_fraction = 0.8};
  const auto& m = machine::xeon_e5_2660v4();
  const double t1 = machine::project_time(stream_counters(1'000'000'000), m, prof).total();
  const double t2 = machine::project_time(stream_counters(2'000'000'000), m, prof).total();
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
}

TEST(Roofline, HigherBandwidthMachineIsFaster) {
  const EfficiencyProfile prof{.bw_fraction = 0.8};
  const Counters c = stream_counters(10'000'000'000LL);
  const double xeon = machine::project_time(c, machine::xeon_e5_2660v4(), prof).total();
  const double knl = machine::project_time(c, machine::knl_7210(), prof).total();
  const double p100 = machine::project_time(c, machine::tesla_p100(), prof).total();
  EXPECT_GT(xeon, knl);
  EXPECT_GT(knl, p100);
}

TEST(Roofline, LaunchOverheadAdds) {
  const EfficiencyProfile prof{.bw_fraction = 0.8, .launch_multiplier = 2.0};
  const auto& m = machine::tesla_p100();
  Counters c = stream_counters(1'000'000);
  c.kernel_launches = 1000;
  const auto t = machine::project_time(c, m, prof);
  EXPECT_NEAR(t.launch_s, 1000 * m.launch_overhead_us * 2.0 * 1e-6, 1e-12);
  EXPECT_GT(t.total(), t.stream_s);
}

TEST(Roofline, StreamTermIsMaxOfMemoryAndCompute) {
  EfficiencyProfile prof{.bw_fraction = 1.0, .compute_fraction = 1.0};
  const auto& m = machine::xeon_e5_2660v4();
  // Memory-bound: huge bytes, few flops.
  auto mem = machine::project_time(stream_counters(1'000'000'000, 10), m, prof);
  EXPECT_DOUBLE_EQ(mem.stream_s, mem.memory_s);
  // Compute-bound: few bytes, huge flops.
  auto comp = machine::project_time(stream_counters(10, 10'000'000'000LL), m, prof);
  EXPECT_DOUBLE_EQ(comp.stream_s, comp.compute_s);
}

TEST(Roofline, MessagesAndPcieCharged) {
  EfficiencyProfile prof{.bw_fraction = 0.8};
  Counters c = stream_counters(1'000'000);
  c.messages = 100;
  c.message_bytes = 1'000'000;
  const auto cpu = machine::project_time(c, machine::xeon_e5_2660v4(), prof);
  EXPECT_GT(cpu.message_s, 0.0);
  Counters g = stream_counters(1'000'000);
  g.h2d_bytes = 100'000'000;
  const auto gpu = machine::project_time(g, machine::tesla_p100(), prof);
  EXPECT_NEAR(gpu.pcie_s, 100'000'000 / (12.0 * 1e9), 1e-9);
}

TEST(Roofline, KnlMcdramSpillDegradesBandwidth) {
  const EfficiencyProfile prof{.bw_fraction = 1.0};
  const Counters c = stream_counters(10'000'000'000LL);
  const auto& knl = machine::knl_7210();
  const double fits =
      machine::project_time(c, knl, prof, std::int64_t(8) << 30).total();
  const double spills =
      machine::project_time(c, knl, prof, std::int64_t(64) << 30).total();
  EXPECT_GT(spills, fits * 1.5);  // mostly-DDR traffic is much slower
  // No spill rule on the Xeon.
  const auto& xeon = machine::xeon_e5_2660v4();
  EXPECT_DOUBLE_EQ(
      machine::project_time(c, xeon, prof, std::int64_t(64) << 30).total(),
      machine::project_time(c, xeon, prof, 0).total());
}

TEST(Roofline, AchievedRatesConsistent) {
  const EfficiencyProfile prof{.bw_fraction = 0.5};
  const Counters c = stream_counters(1'000'000'000, 500);
  const auto& m = machine::knl_7210();
  const auto t = machine::project_time(c, m, prof);
  // Pure streaming: achieved bandwidth equals bw_fraction * peak.
  EXPECT_NEAR(t.achieved_bw_gbs(c), m.peak_bw_gbs * 0.5, 1e-6);
}

TEST(Roofline, ScaleCountersFollowsRules) {
  Counters c;
  c.bytes_read = 1000;
  c.bytes_written = 500;
  c.flops = 100;
  c.kernel_launches = 10;
  c.messages = 4;
  c.message_bytes = 400;
  c.solver_iterations = 20;
  const Counters s = machine::scale_counters(c, /*cells=*/4.0,
                                             /*iters=*/2.0, /*perimeter=*/2.0);
  EXPECT_EQ(s.bytes_read, 8000);    // cells x iters
  EXPECT_EQ(s.bytes_written, 4000);
  EXPECT_EQ(s.flops, 800);
  EXPECT_EQ(s.kernel_launches, 20);  // iters
  EXPECT_EQ(s.messages, 8);
  EXPECT_EQ(s.message_bytes, 1600);  // perimeter x iters
  EXPECT_EQ(s.solver_iterations, 40);
}

// --- metamorphic properties ---------------------------------------------------
//
// Relations that must hold for *any* calibration values: faster hardware
// cannot slow a projection down, bigger problems cannot get cheaper, and the
// KNL MCDRAM spill rule must be continuous at its capacity boundary.

/// A realistic TeaLeaf-like counter mix at mesh scale `n` (5-point stencil
/// traffic, one launch and one reduction per nominal iteration).
Counters kernel_mix(int n, int iterations = 100) {
  Counters c;
  const std::int64_t cells = static_cast<std::int64_t>(n) * n;
  c.bytes_read = 5 * 8 * cells * iterations;
  c.bytes_written = 8 * cells * iterations;
  c.flops = 10 * cells * iterations;
  c.kernel_launches = 4 * iterations;
  c.reductions = 2 * iterations;
  c.messages = 8 * iterations;
  c.message_bytes = 4 * 8 * n * iterations;
  return c;
}

TEST(RooflineMetamorphic, DoublingBandwidthNeverSlowsAnyVariant) {
  // For every supported (variant, machine) pair: doubling the machine's peak
  // bandwidth must not increase any projected kernel time.
  const Counters c = kernel_mix(512);
  for (const MachineModel* m : machine::paper_machines()) {
    for (const std::string& variant : machine::paper_variants()) {
      if (!machine::supported(variant, *m)) continue;
      MachineModel faster = *m;
      faster.peak_bw_gbs *= 2.0;
      const EfficiencyProfile prof = machine::efficiency_for(variant, *m);
      // With and without a spilling working set on the KNL.
      for (const std::int64_t ws : {std::int64_t{0}, std::int64_t(8) << 30,
                                    std::int64_t(64) << 30}) {
        const double before = machine::project_time(c, *m, prof, ws).total();
        const double after =
            machine::project_time(c, faster, prof, ws).total();
        EXPECT_LE(after, before * (1.0 + 1e-12))
            << variant << " on " << m->id << " ws=" << ws;
      }
    }
  }
}

TEST(RooflineMetamorphic, ProjectionsMonotoneInMeshSize) {
  // Scaling the counted work up (cells and iterations) must never cheapen
  // the projection, on any machine, for any supported variant.
  for (const MachineModel* m : machine::paper_machines()) {
    for (const std::string& variant : machine::paper_variants()) {
      if (!machine::supported(variant, *m)) continue;
      const EfficiencyProfile prof = machine::efficiency_for(variant, *m);
      double previous = 0.0;
      for (const int n : {64, 128, 256, 512, 1024, 2048, 4096}) {
        // CG iterations grow ~linearly with mesh width: model that too.
        const Counters c = kernel_mix(n, n);
        const std::int64_t ws = static_cast<std::int64_t>(n) * n * 6 * 8;
        const double t = machine::project_time(c, *m, prof, ws).total();
        EXPECT_GT(t, previous) << variant << " on " << m->id << " at " << n;
        previous = t;
      }
    }
  }
}

TEST(RooflineMetamorphic, KnlSpillBoundaryIsContinuousAndMonotone) {
  const EfficiencyProfile prof{.bw_fraction = 1.0};
  const Counters c = stream_counters(10'000'000'000LL);
  const auto& knl = machine::knl_7210();
  const auto capacity =
      static_cast<std::int64_t>(knl.mem_capacity_gb * 1e9);

  const double at_zero = machine::project_time(c, knl, prof, 0).total();
  const double below =
      machine::project_time(c, knl, prof, capacity - 1).total();
  const double at_capacity =
      machine::project_time(c, knl, prof, capacity).total();
  const double just_over =
      machine::project_time(c, knl, prof, capacity + 1).total();

  // In MCDRAM entirely: full-speed, identical to the no-working-set case.
  EXPECT_DOUBLE_EQ(below, at_zero);
  EXPECT_DOUBLE_EQ(at_capacity, at_zero);
  // One byte over: continuous (no cliff), but never faster.
  EXPECT_GE(just_over, at_capacity);
  EXPECT_NEAR(just_over, at_capacity, 1e-6 * at_capacity);

  // Far past capacity the effective bandwidth approaches DDR speed from
  // above: monotone degradation, bounded by the pure-DDR projection.
  double previous = at_capacity;
  for (const double factor : {2.0, 4.0, 16.0, 256.0}) {
    const auto ws = static_cast<std::int64_t>(factor * capacity);
    const double t = machine::project_time(c, knl, prof, ws).total();
    EXPECT_GE(t, previous) << "ws factor " << factor;
    previous = t;
  }
  // DDR bound: effective bandwidth can degrade towards ~80 GB/s, not below.
  const double ddr_floor_time =
      static_cast<double>(c.total_bytes()) / (80.0 * 1e9);
  EXPECT_LE(previous, ddr_floor_time * (1.0 + 1e-9));

  // Only the KNL has the spill rule.  The Xeon is working-set independent;
  // the P100's working-set dependence is the *occupancy* rule, which works
  // the other way around: larger sets saturate the device better and can
  // only speed the projection up.
  const auto& xeon = machine::xeon_e5_2660v4();
  EXPECT_DOUBLE_EQ(
      machine::project_time(c, xeon, prof, std::int64_t(256) << 30).total(),
      machine::project_time(c, xeon, prof, 0).total());
  const auto& p100 = machine::tesla_p100();
  EXPECT_LE(
      machine::project_time(c, p100, prof, std::int64_t(256) << 30).total(),
      machine::project_time(c, p100, prof, std::int64_t(64) << 20).total());
}

TEST(HostMachine, MeasuredModelIsSane) {
  const MachineModel& host = machine::host_machine();
  EXPECT_EQ(host.id, "host");
  EXPECT_GE(host.cores, 1);
  EXPECT_GT(host.peak_bw_gbs, 0.1);
}

TEST(HostMachine, OverridesFeedCalibrationIntoTheModel) {
  const machine::MachineOverrides saved = machine::host_overrides();
  machine::set_host_overrides({});
  const MachineModel measured = machine::host_machine();

  machine::MachineOverrides o;
  o.peak_bw_gbs = 42.5;
  o.launch_overhead_us = 7.25;
  machine::set_host_overrides(o);
  const MachineModel& calibrated = machine::host_machine();
  EXPECT_DOUBLE_EQ(calibrated.peak_bw_gbs, 42.5);
  EXPECT_DOUBLE_EQ(calibrated.launch_overhead_us, 7.25);
  // Untouched fields keep the measured values.
  EXPECT_EQ(calibrated.cores, measured.cores);
  EXPECT_DOUBLE_EQ(calibrated.msg_bw_gbs, measured.msg_bw_gbs);

  // Partial override: only the bandwidth moves.
  machine::MachineOverrides bw_only;
  bw_only.peak_bw_gbs = 99.0;
  machine::set_host_overrides(bw_only);
  EXPECT_DOUBLE_EQ(machine::host_machine().peak_bw_gbs, 99.0);
  EXPECT_DOUBLE_EQ(machine::host_machine().launch_overhead_us,
                   measured.launch_overhead_us);

  // Clearing restores the measured model exactly.
  machine::set_host_overrides({});
  EXPECT_DOUBLE_EQ(machine::host_machine().peak_bw_gbs, measured.peak_bw_gbs);
  machine::set_host_overrides(saved);
}

}  // namespace
