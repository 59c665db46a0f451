// halo.hpp — host-side halo maintenance shared by the manual CPU backends:
// internal edge exchange over minimpi plus reflective physical boundaries.
// (miniops has its own Dat-based implementation; device backends reflect with
// kernels.)
//
// The exchange is split-phase: begin() posts the four neighbour receives and
// eagerly sends the four boundary strips, finish() completes the receives,
// unpacks and mirror-fills the physical edges.  Callers that can compute
// halo-independent interior cells between the two calls overlap communication
// with compute (ManualHostBackend's exchange_* kernels); calling them
// back-to-back is the blocking exchange.
//
// Wire protocol: the four directions fly concurrently.  X messages carry
// depth x ny column strips, y messages depth x nx row strips of owned cells
// only — diagonal halo corners are never read by the 5-point stencil or the
// coefficient kernels, so they are left unexchanged (physical-edge corners
// are refilled by the reflection pass every round).
#pragma once

#include <vector>

#include "core/backends/field_store.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"

namespace tea {

/// One split-phase halo exchange of `depth` layers of `f`.  Collective across
/// the communicator: every rank must run begin()+finish() in the same order
/// with the same depth.  With a null comm both phases reduce to the
/// reflective physical fill.
class HaloExchange {
public:
  HaloExchange(CellView f, const PartitionGeom& geom, minimpi::Comm* comm,
               const minimpi::Cart2D* cart, int depth);

  /// Post the neighbour receives and eagerly send the boundary strips.
  void begin();

  /// Complete the receives, unpack the halos, mirror-fill physical edges and
  /// charge the instrumentation for the messages actually exchanged.
  void finish();

private:
  CellView f_;
  PartitionGeom geom_;
  minimpi::Comm* comm_;
  const minimpi::Cart2D* cart_;
  int depth_;
  bool begun_ = false;

  // Pack/unpack staging, one buffer per direction (left, right, down, up).
  std::vector<double> send_[4];
  std::vector<double> recv_[4];
  minimpi::Request reqs_[4];
};

/// Blocking exchange + reflect: begin() immediately followed by finish().
void exchange_and_reflect(CellView f, const PartitionGeom& geom,
                          minimpi::Comm* comm, const minimpi::Cart2D* cart,
                          int depth);

}  // namespace tea
