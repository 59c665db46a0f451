// par_loop.hpp — the templated miniops front-end (ops_par_loop equivalent).
//
//   ops::par_loop(ctx, "advance", range, /*flops_per_cell=*/3,
//                 [](ops::Acc u, ops::Acc w) { w(0,0) = 0.5 * u(1,0); },
//                 ops::arg_dat(u_dat, ops::AccessMode::kRead, Stencil::star5()),
//                 ops::arg_dat(w_dat, ops::AccessMode::kWrite));
//
// Kernel parameters correspond positionally to the trailing argument
// descriptors: ArgDat -> ops::Acc bound to the current point, ArgGbl ->
// double& (the current row's partial on the host, the current thread
// block's on a device; the Context folds the partials in row or block order
// and the combined/allreduced value lands in the ArgGbl's target after the
// call).
#pragma once

#include <array>
#include <tuple>
#include <type_traits>

#include "common/error.hpp"
#include "miniops/context.hpp"

namespace ops {

namespace detail {

// --- band execution ------------------------------------------------------------
//
// One executor serves host and device.  It binds arguments once per band of
// rows — a host chunk, one row of a reducing host loop, or one device thread
// block — not once per element: a dat binds to its host or device origin,
// and a reduction argument becomes a stack-local accumulator (GblBand),
// started at its identity, that the kernel updates through a plain double&
// and that is written to the band's partial afterwards.  So a dot-product
// par_loop runs at the speed of the underlying row reduction.

/// A global argument: its position in the loop's GblValues, and the
/// identity its band accumulator starts from.
struct GblBind {
  int index;
  double identity;
};

struct DatBand {
  double* origin;
  int stride;
};
struct GblBand {
  double* partial;
  double local;
};

inline DatBand bind_band(const ArgDat& a, bool device, double* /*gbl*/) {
  return DatBand{device ? a.dat->device_origin() : a.dat->origin(),
                 a.dat->row_stride()};
}
inline GblBand bind_band(const GblBind& g, bool /*device*/, double* gbl) {
  return GblBand{gbl + g.index, g.identity};
}

inline Acc band_deref(DatBand& b, int i, int j) {
  return Acc(b.origin + static_cast<std::ptrdiff_t>(j) * b.stride + i,
             b.stride);
}
inline double& band_deref(GblBand& g, int /*i*/, int /*j*/) { return g.local; }

inline void band_flush(DatBand&) {}
inline void band_flush(GblBand& g) { *g.partial = g.local; }

// Argument classification helpers.
inline void collect(LoopRecord& rec, const ArgDat& a) {
  rec.dats.push_back(LoopRecord::DatUse{a.dat, a.mode, a.stencil->ylo(),
                                        a.stencil->yhi(), a.stencil->xlo(),
                                        a.stencil->xhi()});
}
inline void collect(LoopRecord&, const ArgGbl&) {}

/// Normalize an argument for closure capture: an ArgGbl takes the next
/// GblValues position (recording its op and target), an ArgDat passes
/// through.
struct Gbls {
  LoopRecord& rec;
  std::array<double*, kMaxGbls> targets{};
};

inline const ArgDat& normalize(const ArgDat& a, Gbls&) { return a; }
inline GblBind normalize(const ArgGbl& g, Gbls& gbls) {
  const int index = gbls.rec.n_gbls++;
  gbls.rec.gbl_ops[static_cast<std::size_t>(index)] = g.op;
  gbls.targets[static_cast<std::size_t>(index)] = g.target;
  return GblBind{index, identity_of(g.op)};
}

inline const Dat* first_dat() { return nullptr; }
template <typename... Rest>
const Dat* first_dat(const ArgDat& a, const Rest&...) {
  return a.dat;
}
template <typename A0, typename... Rest>
const Dat* first_dat(const A0&, const Rest&... rest) {
  return first_dat(rest...);
}

}  // namespace detail

template <typename Kernel, typename... Args>
void par_loop(Context& ctx, const std::string& name, const Range& global_range,
              int flops_per_cell, Kernel kernel, Args... args) {
  static_assert((0 + ... + std::is_same_v<Args, ArgGbl>) <= kMaxGbls,
                "par_loop takes at most kMaxGbls global arguments");
  const Dat* anchor = detail::first_dat(args...);
  TL_REQUIRE(anchor != nullptr, "par_loop needs at least one dat argument");

  LoopRecord rec;
  rec.name = name;
  rec.flops_per_cell = flops_per_cell;
  rec.local_range = ctx.clip_to_local(global_range, *anchor);
  (detail::collect(rec, args), ...);
  detail::Gbls gbls{rec};
  auto binders_src = std::tuple{detail::normalize(args, gbls)...};

  rec.exec = [kernel, device = ctx.is_device(),
              binders = std::move(binders_src)](int x0, int x1, int y0, int y1,
                                                double* gbl) {
    std::apply(
        [&](const auto&... b) {
          auto band = std::make_tuple(detail::bind_band(b, device, gbl)...);
          std::apply(
              [&](auto&... bb) {
                for (int j = y0; j < y1; ++j) {
                  for (int i = x0; i < x1; ++i) {
                    kernel(detail::band_deref(bb, i, j)...);
                  }
                }
                (detail::band_flush(bb), ...);
              },
              band);
        },
        binders);
  };

  const int n_gbls = rec.n_gbls;
  const GblValues result = ctx.execute(std::move(rec));
  for (int k = 0; k < n_gbls; ++k) {
    *gbls.targets[static_cast<std::size_t>(k)] =
        result[static_cast<std::size_t>(k)];
  }
}

/// Overload with a default flop estimate (5 flops/cell, typical of TeaLeaf's
/// pointwise kernels).
template <typename Kernel, typename... Args>
void par_loop(Context& ctx, const std::string& name, const Range& global_range,
              Kernel kernel, Args... args) {
  par_loop(ctx, name, global_range, 5, std::move(kernel), args...);
}

}  // namespace ops
