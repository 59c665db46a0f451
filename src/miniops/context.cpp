#include "miniops/context.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "machine/instrumentation.hpp"
#include "miniops/tiling.hpp"

namespace ops {

namespace {

// Halo-exchange message tags (reserved range; FIFO matching per peer keeps
// multi-dat exchanges in order).
constexpr minimpi::Tag kTagToLeft = 3001;
constexpr minimpi::Tag kTagToRight = 3002;
constexpr minimpi::Tag kTagToDown = 3003;
constexpr minimpi::Tag kTagToUp = 3004;
}  // namespace

Context::Context(ContextOptions options) : options_(std::move(options)) {
  if (options_.comm != nullptr) {
    cart_ = std::make_unique<minimpi::Cart2D>(*options_.comm);
  }
  TL_REQUIRE(!(options_.device != nullptr && options_.comm != nullptr),
             "device contexts are single-rank in this implementation");
  TL_REQUIRE(!(options_.device != nullptr && options_.tiled),
             "tiling is a host-side executor");
}

Context::~Context() {
  // Any still-queued loops would silently vanish; run them.
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; queued work failing here is a programming
    // error surfaced by tests via explicit flush().
  }
}

tlp::ThreadPool* Context::pool() const {
  if (!options_.use_pool) return nullptr;
  return options_.pool != nullptr ? options_.pool : &tlp::global_pool();
}

bool Context::counts_globally() const {
  return options_.comm == nullptr || options_.comm->rank() == 0;
}

Block& Context::decl_block(const std::string& name, int nx, int ny) {
  TL_REQUIRE(nx > 0 && ny > 0, "block dimensions must be positive");
  blocks_.push_back(std::make_unique<Block>(name, nx, ny));
  return *blocks_.back();
}

Context::Partition Context::partition_of(const Block& block) const {
  if (cart_ == nullptr) {
    return Partition{0, 0, block.nx(), block.ny()};
  }
  const auto [cx, cy] = cart_->coords();
  const auto [x0, x1] = minimpi::block_range(block.nx(), cart_->px(), cx);
  const auto [y0, y1] = minimpi::block_range(block.ny(), cart_->py(), cy);
  return Partition{x0, y0, x1 - x0, y1 - y0};
}

Dat& Context::decl_dat(Block& block, const std::string& name, int halo_depth) {
  const Partition p = partition_of(block);
  dats_.push_back(std::make_unique<Dat>(block, name, halo_depth, p.x0, p.y0,
                                        p.nx, p.ny));
  dats_.back()->id_ = static_cast<int>(dats_.size()) - 1;
  return *dats_.back();
}

Range Context::clip_to_local(const Range& global, const Dat& dat) const {
  const int gnx = dat.block().nx();
  const int gny = dat.block().ny();
  const int d = dat.halo_depth();
  // This rank executes its owned cells; ranks on a physical boundary also
  // execute range cells lying in the global halo beyond that boundary.
  Range allowed;
  allowed.x0 = dat.local_x0() == 0 ? -d : dat.local_x0();
  allowed.x1 = dat.local_x0() + dat.local_nx() == gnx
                   ? gnx + d
                   : dat.local_x0() + dat.local_nx();
  allowed.y0 = dat.local_y0() == 0 ? -d : dat.local_y0();
  allowed.y1 = dat.local_y0() + dat.local_ny() == gny
                   ? gny + d
                   : dat.local_y0() + dat.local_ny();
  Range r = global.intersect(allowed);
  if (r.empty()) return Range{0, 0, 0, 0};
  // Translate to local coordinates.
  r.x0 -= dat.local_x0();
  r.x1 -= dat.local_x0();
  r.y0 -= dat.local_y0();
  r.y1 -= dat.local_y0();
  return r;
}

GblValues Context::finish_reductions(const LoopRecord& loop,
                                     GblValues local) {
  for (int k = 0; k < loop.n_gbls; ++k) {
    const auto g = static_cast<std::size_t>(k);
    if (options_.comm != nullptr) {
      local[g] = options_.comm->allreduce(local[g], loop.gbl_ops[g]);
    }
    if (counts_globally()) {
      machine::Instrumentation& counts = machine::sink();
      counts.add_reduction();
      if (is_device()) counts.add_d2h(8);
    }
  }
  return local;
}

// --- halo management ----------------------------------------------------------

namespace {

/// Mirror-reflect `depth` halo layers from the interior on the physical
/// edges this rank touches (TeaLeaf's reflective boundary).
void reflect_on_host(Dat& dat, int depth, bool at_xlo, bool at_xhi,
                     bool at_ylo, bool at_yhi) {
  const int nx = dat.local_nx();
  const int ny = dat.local_ny();
  if (at_xlo) {
    for (int j = 0; j < ny; ++j) {
      for (int k = 0; k < depth; ++k) dat.at(-1 - k, j) = dat.at(k, j);
    }
  }
  if (at_xhi) {
    for (int j = 0; j < ny; ++j) {
      for (int k = 0; k < depth; ++k) {
        dat.at(nx + k, j) = dat.at(nx - 1 - k, j);
      }
    }
  }
  // Y reflection covers the x halo too so corners are consistent.
  if (at_ylo) {
    for (int k = 0; k < depth; ++k) {
      for (int i = -depth; i < nx + depth; ++i) {
        dat.at(i, -1 - k) = dat.at(i, k);
      }
    }
  }
  if (at_yhi) {
    for (int k = 0; k < depth; ++k) {
      for (int i = -depth; i < nx + depth; ++i) {
        dat.at(i, ny + k) = dat.at(i, ny - 1 - k);
      }
    }
  }
}

}  // namespace

void Context::exchange_internal(Dat& dat, int depth) {
  minimpi::Comm& comm = *options_.comm;
  const minimpi::Cart2D& cart = *cart_;
  const int nx = dat.local_nx();
  const int ny = dat.local_ny();
  const std::size_t x_msg = static_cast<std::size_t>(depth) * ny;

  std::vector<double> buf(x_msg);
  std::vector<double> in(x_msg);

  // --- X phase: interior columns <-> side halos ---
  if (cart.left() != minimpi::kProcNull) {
    for (int j = 0; j < ny; ++j) {
      for (int k = 0; k < depth; ++k) buf[static_cast<std::size_t>(j) * depth + k] = dat.at(k, j);
    }
    comm.send(tl::span<const double>(buf), cart.left(), kTagToLeft);
  }
  if (cart.right() != minimpi::kProcNull) {
    comm.recv(tl::span<double>(in), cart.right(), kTagToLeft);
    for (int j = 0; j < ny; ++j) {
      for (int k = 0; k < depth; ++k) dat.at(nx + k, j) = in[static_cast<std::size_t>(j) * depth + k];
    }
    for (int j = 0; j < ny; ++j) {
      for (int k = 0; k < depth; ++k) {
        buf[static_cast<std::size_t>(j) * depth + k] = dat.at(nx - depth + k, j);
      }
    }
    comm.send(tl::span<const double>(buf), cart.right(), kTagToRight);
  }
  if (cart.left() != minimpi::kProcNull) {
    comm.recv(tl::span<double>(in), cart.left(), kTagToRight);
    for (int j = 0; j < ny; ++j) {
      for (int k = 0; k < depth; ++k) {
        dat.at(-depth + k, j) = in[static_cast<std::size_t>(j) * depth + k];
      }
    }
  }

  // --- Y phase: rows including x halo, so corners propagate ---
  const int row_lo = -depth;
  const int row_width = nx + 2 * depth;
  const std::size_t y_msg = static_cast<std::size_t>(depth) * row_width;
  buf.resize(y_msg);
  in.resize(y_msg);

  if (cart.down() != minimpi::kProcNull) {
    for (int k = 0; k < depth; ++k) {
      for (int i = 0; i < row_width; ++i) {
        buf[static_cast<std::size_t>(k) * row_width + i] = dat.at(row_lo + i, k);
      }
    }
    comm.send(tl::span<const double>(buf), cart.down(), kTagToDown);
  }
  if (cart.up() != minimpi::kProcNull) {
    comm.recv(tl::span<double>(in), cart.up(), kTagToDown);
    for (int k = 0; k < depth; ++k) {
      for (int i = 0; i < row_width; ++i) {
        dat.at(row_lo + i, ny + k) = in[static_cast<std::size_t>(k) * row_width + i];
      }
    }
    for (int k = 0; k < depth; ++k) {
      for (int i = 0; i < row_width; ++i) {
        buf[static_cast<std::size_t>(k) * row_width + i] =
            dat.at(row_lo + i, ny - depth + k);
      }
    }
    comm.send(tl::span<const double>(buf), cart.up(), kTagToUp);
  }
  if (cart.down() != minimpi::kProcNull) {
    comm.recv(tl::span<double>(in), cart.down(), kTagToUp);
    for (int k = 0; k < depth; ++k) {
      for (int i = 0; i < row_width; ++i) {
        dat.at(row_lo + i, -depth + k) = in[static_cast<std::size_t>(k) * row_width + i];
      }
    }
  }

  // Pack + unpack both touch the exchanged cells once.  Count only the
  // strips actually exchanged: a null neighbour moves no bytes, so
  // domain-edge ranks pay less than interior ranks.
  std::int64_t moved = 0;
  if (cart.left() != minimpi::kProcNull) moved += 2 * static_cast<std::int64_t>(x_msg);
  if (cart.right() != minimpi::kProcNull) moved += 2 * static_cast<std::int64_t>(x_msg);
  if (cart.down() != minimpi::kProcNull) moved += 2 * static_cast<std::int64_t>(y_msg);
  if (cart.up() != minimpi::kProcNull) moved += 2 * static_cast<std::int64_t>(y_msg);
  const std::int64_t bytes = moved * static_cast<std::int64_t>(sizeof(double));
  machine::sink().add_traffic(bytes, bytes, 0);
}

void Context::reflect_physical(Dat& dat, int depth) {
  bool at_xlo = true, at_xhi = true, at_ylo = true, at_yhi = true;
  if (cart_ != nullptr) {
    at_xlo = cart_->left() == minimpi::kProcNull;
    at_xhi = cart_->right() == minimpi::kProcNull;
    at_ylo = cart_->down() == minimpi::kProcNull;
    at_yhi = cart_->up() == minimpi::kProcNull;
  }
  reflect_on_host(dat, depth, at_xlo, at_xhi, at_ylo, at_yhi);
  const std::int64_t edge_cells =
      static_cast<std::int64_t>(depth) *
      (2 * dat.local_nx() + 2 * (dat.local_nx() + 2 * depth));
  machine::sink().add_traffic(edge_cells * 8, edge_cells * 8, 0);
}

void Context::reflect_physical_device(Dat& dat, int depth) {
  simgpu::Device& dev = *options_.device;
  ensure_on_device(dat);
  double* org = dat.device_origin();
  const int stride = dat.row_stride();
  const int nx = dat.local_nx();
  const int ny = dat.local_ny();
  const auto at = [org, stride](int i, int j) -> double& {
    return org[static_cast<std::ptrdiff_t>(j) * stride + i];
  };
  const std::int64_t edge_bytes =
      static_cast<std::int64_t>(depth) * (nx + ny) * 8;
  const simgpu::KernelTraffic traffic{edge_bytes, edge_bytes, 0};
  dev.launch_2d("halo_reflect_x", depth, ny, traffic, [&](int k, int j) {
    at(-1 - k, j) = at(k, j);
    at(nx + k, j) = at(nx - 1 - k, j);
  });
  dev.launch_2d("halo_reflect_y", nx + 2 * depth, depth, traffic,
                [&](int ii, int k) {
                  const int i = ii - depth;
                  at(i, -1 - k) = at(i, k);
                  at(i, ny + k) = at(i, ny - 1 - k);
                });
}

bool Context::halo_updates_queueable() const {
  // Reflections are ordinary (skewable) loops; inter-rank exchanges couple
  // whole rows across ranks and still fence the queue.
  return options_.tiled && !is_device() &&
         (options_.comm == nullptr || options_.comm->size() == 1);
}

void Context::enqueue_reflection(Dat& dat, int depth) {
  LoopRecord rec;
  rec.name = "halo_reflect(" + dat.name() + ")";
  const int nx = dat.local_nx();
  const int ny = dat.local_ny();
  rec.local_range = Range{-depth, nx + depth, -depth, ny + depth};
  rec.flops_per_cell = 0;
  rec.is_halo_update = true;
  rec.traffic_cells_override =
      static_cast<std::int64_t>(2 * depth) * (2 * (nx + ny) + 4 * depth);
  // Conservative extents: the deepest mirror read is 2*depth-1 away.
  const int reach = 2 * depth - 1;
  rec.dats.push_back(LoopRecord::DatUse{&dat, AccessMode::kReadWrite, -reach,
                                        reach, -reach, reach});
  Dat* d = &dat;
  rec.exec = [d, nx, ny, depth](int /*x0*/, int /*x1*/, int y0, int y1,
                                double* /*gbl*/) {
    // X mirror for the interior rows of this band (row-local).
    for (int j = std::max(y0, 0); j < std::min(y1, ny); ++j) {
      for (int k = 0; k < depth; ++k) {
        d->at(-1 - k, j) = d->at(k, j);
        d->at(nx + k, j) = d->at(nx - 1 - k, j);
      }
    }
    // Halo rows in this band, corners included, reading *interior* cells
    // only (both axes mirrored) so the record has no self-dependency.
    const auto mirror_x = [nx](int i) {
      if (i < 0) return -1 - i;
      if (i >= nx) return 2 * nx - 1 - i;
      return i;
    };
    for (int j = y0; j < std::min(y1, 0); ++j) {
      const int src_j = -1 - j;
      for (int i = -depth; i < nx + depth; ++i) {
        d->at(i, j) = d->at(mirror_x(i), src_j);
      }
    }
    for (int j = std::max(y0, ny); j < y1; ++j) {
      const int src_j = 2 * ny - 1 - j;
      for (int i = -depth; i < nx + depth; ++i) {
        d->at(i, j) = d->at(mirror_x(i), src_j);
      }
    }
  };
  execute(std::move(rec));
  dat.set_halo_dirty(false);
  if (counts_globally()) machine::sink().add_halo_exchange();
}

void Context::update_halo(const std::vector<Dat*>& dats, int depth) {
  if (halo_updates_queueable()) {
    for (Dat* dat : dats) {
      TL_REQUIRE(depth <= dat->halo_depth(),
                 "update depth exceeds halo depth of dat '" + dat->name() +
                     "'");
      enqueue_reflection(*dat, depth);
    }
    return;
  }
  flush();
  for (Dat* dat : dats) {
    TL_REQUIRE(depth <= dat->halo_depth(),
               "update depth exceeds halo depth of dat '" + dat->name() + "'");
    if (is_device()) {
      reflect_physical_device(*dat, depth);
    } else {
      if (options_.comm != nullptr) exchange_internal(*dat, depth);
      reflect_physical(*dat, depth);
    }
    dat->set_halo_dirty(false);
    if (counts_globally()) machine::sink().add_halo_exchange();
  }
}

// --- device coherence -----------------------------------------------------------

void Context::ensure_on_device(Dat& dat) {
  auto& buf = dat.device_buffer(*options_.device);
  if (dat.device_stale()) {
    const tl::Span2D<const double> host = dat.padded_span();
    buf.upload(tl::span<const double>(host.data(), dat.padded_cells()));
    dat.set_device_stale(false);
  }
}

void Context::fetch_to_host(Dat& dat) {
  if (!is_device() || !dat.has_device() || !dat.host_stale()) return;
  auto& buf = dat.device_buffer(*options_.device);
  tl::Span2D<double> host = dat.padded_span();
  buf.download(tl::span<double>(host.data(), dat.padded_cells()));
  dat.set_host_stale(false);
}

// --- execution ------------------------------------------------------------------

void Context::prepare_reads(const LoopRecord& loop) {
  for (const auto& use : loop.dats) {
    if (!reads(use.mode)) continue;
    const bool needs_halo =
        use.xlo < 0 || use.xhi > 0 || use.ylo < 0 || use.yhi > 0;
    if (needs_halo && use.dat->halo_dirty()) {
      // OPS dirty-bit automation: refresh before the read.
      update_halo({use.dat}, use.dat->halo_depth());
    }
  }
}

void Context::charge_loop_traffic(const LoopRecord& loop) {
  const long long cells = loop.traffic_cells_override >= 0
                              ? loop.traffic_cells_override
                              : loop.local_range.cells();
  std::int64_t r = 0, w = 0;
  for (const auto& use : loop.dats) {
    if (reads(use.mode)) r += cells * 8;
    if (writes(use.mode)) w += cells * 8;
  }
  machine::Instrumentation& counts = machine::sink();
  counts.add_traffic(r, w, cells * loop.flops_per_cell);
  if (counts_globally()) counts.add_launch();
}

void Context::mark_after_execution(const LoopRecord& loop) {
  if (loop.is_halo_update) {
    for (const auto& use : loop.dats) use.dat->set_halo_dirty(false);
    return;
  }
  for (const auto& use : loop.dats) {
    if (writes(use.mode)) use.dat->set_halo_dirty(true);
  }
}

namespace {

/// Each global argument's identity: where the fold over the row (block)
/// partials starts.
GblValues identities(const LoopRecord& loop) {
  GblValues v{};
  for (int k = 0; k < loop.n_gbls; ++k) {
    const auto g = static_cast<std::size_t>(k);
    v[g] = identity_of(loop.gbl_ops[g]);
  }
  return v;
}

GblValues fold_gbls(const LoopRecord& loop, GblValues acc,
                    const GblValues& partial) {
  for (int k = 0; k < loop.n_gbls; ++k) {
    const auto g = static_cast<std::size_t>(k);
    acc[g] = minimpi::apply(loop.gbl_ops[g], acc[g], partial[g]);
  }
  return acc;
}

}  // namespace

GblValues Context::run_host_loop(const LoopRecord& loop) {
  prepare_reads(loop);
  flush();  // prepare_reads may have queued halo reflections
  const Range& r = loop.local_range;
  GblValues result = identities(loop);
  if (r.empty()) {
    // Nothing to run; a reduction still yields its identity.
  } else if (loop.n_gbls > 0) {
    result = tlp::reduce_rows(
        pool(), r.y1 - r.y0, result,
        [&](long row) {
          GblValues partial{};
          const int j = r.y0 + static_cast<int>(row);
          loop.exec(r.x0, r.x1, j, j + 1, partial.data());
          return partial;
        },
        [&](const GblValues& acc, const GblValues& partial) {
          return fold_gbls(loop, acc, partial);
        });
  } else if (tlp::ThreadPool* p = pool(); p != nullptr) {
    p->parallel_for(r.y0, r.y1, [&](long lo, long hi) {
      loop.exec(r.x0, r.x1, static_cast<int>(lo), static_cast<int>(hi),
                nullptr);
    });
  } else {
    loop.exec(r.x0, r.x1, r.y0, r.y1, nullptr);
  }
  mark_after_execution(loop);
  charge_loop_traffic(loop);
  ++loops_executed_;
  return finish_reductions(loop, result);
}

GblValues Context::run_device_loop(LoopRecord& loop) {
  for (const auto& use : loop.dats) {
    ensure_on_device(*use.dat);
  }
  const Range& r = loop.local_range;
  GblValues result = identities(loop);
  if (!r.empty()) {
    const long long cells = r.cells();
    std::int64_t br = 0, bw = 0;
    for (const auto& use : loop.dats) {
      if (reads(use.mode)) br += cells * 8;
      if (writes(use.mode)) bw += cells * 8;
    }
    options_.device->launch_2d_blocks(
        loop.name, r.x1 - r.x0, r.y1 - r.y0,
        {br, bw, cells * loop.flops_per_cell},
        [&](const simgpu::Block2D& b) {
          GblValues partial{};
          loop.exec(r.x0 + b.x0, r.x0 + b.x1, r.y0 + b.y0, r.y0 + b.y1,
                    partial.data());
          return partial;
        },
        [&](const GblValues& partial) {
          result = fold_gbls(loop, result, partial);
        });
  }
  for (const auto& use : loop.dats) {
    if (writes(use.mode)) {
      use.dat->set_host_stale(true);
      use.dat->set_halo_dirty(true);
    }
  }
  ++loops_executed_;
  return finish_reductions(loop, result);
}

GblValues Context::execute(LoopRecord&& loop) {
  if (is_device()) return run_device_loop(loop);
  if (!options_.tiled) return run_host_loop(loop);
  if (loop.n_gbls > 0) {
    flush();
    return run_host_loop(loop);
  }

  // Tiled path.  A stencil read of a dat with a stale halo is a hazard:
  // intra-rank row dependences are handled by the tile plan's skew, but halo
  // contents are not — unless the halo refresh itself is a queueable
  // reflection, in which case we enqueue one and carry on chaining.
  if (!loop.is_halo_update) {
    for (const auto& use : loop.dats) {
      if (!reads(use.mode)) continue;
      const bool non_point =
          use.xlo < 0 || use.xhi > 0 || use.ylo < 0 || use.yhi > 0;
      if (!non_point || !use.dat->halo_dirty()) continue;
      if (halo_updates_queueable()) {
        enqueue_reflection(*use.dat, use.dat->halo_depth());
      } else {
        flush();
        return run_host_loop(loop);  // prepare_reads refreshes dirty halos
      }
    }
  }

  // Queued writes make halos stale immediately (for hazard checks of later
  // loops); queued reflections clean them.  mark_after_execution re-derives
  // the same state at flush time.
  if (loop.is_halo_update) {
    for (const auto& use : loop.dats) use.dat->set_halo_dirty(false);
  } else {
    for (const auto& use : loop.dats) {
      if (writes(use.mode)) use.dat->set_halo_dirty(true);
    }
  }

  queue_.push_back(std::move(loop));
  if (static_cast<int>(queue_.size()) >= options_.tile.max_chain) flush();
  return GblValues{};
}

void Context::flush() {
  if (queue_.empty()) return;
  std::vector<LoopRecord> chain(std::make_move_iterator(queue_.begin()),
                                std::make_move_iterator(queue_.end()));
  queue_.clear();
  ++flushes_;

  if (chain.size() == 1) {
    run_host_loop(chain[0]);
    return;
  }

  const int local_nx =
      chain[0].dats.empty() ? 1 : chain[0].dats[0].dat->padded_nx();
  const TilePlan plan(chain, options_.tile, local_nx);

  tlp::ThreadPool* p = pool();
  for (int t = 0; t < plan.num_tiles(); ++t) {
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const TileSlice& s = plan.slice(t, static_cast<int>(k));
      if (s.y_end <= s.y_begin) continue;
      const Range& r = chain[k].local_range;
      if (p != nullptr) {
        p->parallel_for(s.y_begin, s.y_end, [&](long lo, long hi) {
          chain[k].exec(r.x0, r.x1, static_cast<int>(lo),
                        static_cast<int>(hi), nullptr);
        });
      } else {
        chain[k].exec(r.x0, r.x1, s.y_begin, s.y_end, nullptr);
      }
    }
  }

  const TilePlan::Traffic traffic = plan.traffic(chain);
  machine::sink().add_traffic(traffic.bytes_read, traffic.bytes_written,
                              traffic.flops);
  if (counts_globally()) {
    machine::sink().add_launch(static_cast<std::int64_t>(chain.size()));
  }
  for (const LoopRecord& l : chain) mark_after_execution(l);
  loops_executed_ += static_cast<long>(chain.size());
}

}  // namespace ops
