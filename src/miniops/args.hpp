// args.hpp — par_loop argument descriptors and the accessor objects handed to
// user kernels (OPS' ops_arg_dat / ops_arg_gbl / ACC<double> equivalents).
#pragma once

#include <array>
#include <limits>

#include "minimpi/types.hpp"
#include "miniops/dat.hpp"
#include "miniops/range.hpp"
#include "miniops/stencil.hpp"

namespace ops {

using ReduceOp = minimpi::ReduceOp;

/// Field argument: which Dat, how it is accessed, through which stencil.
struct ArgDat {
  Dat* dat;
  AccessMode mode;
  const Stencil* stencil;
};

inline ArgDat arg_dat(Dat& d, AccessMode mode,
                      const Stencil& s = Stencil::point()) {
  return ArgDat{&d, mode, &s};
}

/// Accessor bound to the loop's current point: `acc(di, dj)` addresses the
/// cell offset by (di, dj), like OPS' ACC<double> operator().
class Acc {
public:
  Acc(double* at_point, int row_stride)
      : p_(at_point), stride_(row_stride) {}

  double& operator()(int di, int dj) const {
    return p_[static_cast<std::ptrdiff_t>(dj) * stride_ + di];
  }

private:
  double* p_;
  int stride_;
};

/// Most global-reduction arguments one par_loop takes (TeaLeaf's field
/// summary uses four).
inline constexpr int kMaxGbls = 4;

/// One value per global argument of a loop, in argument order: a row's
/// partials, a device block's, or the loop's combined result.
using GblValues = std::array<double, kMaxGbls>;

/// The value a reduction starts from.
inline double identity_of(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return 0.0;
    case ReduceOp::kProd: return 1.0;
    case ReduceOp::kMin: return std::numeric_limits<double>::infinity();
    case ReduceOp::kMax: return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

/// Global-reduction argument: result lands in `*target` once the loop (and
/// any cross-rank combine) completes.  Kernels accumulate into one partial
/// per row (per thread block on a device), folded in row (block) order.
struct ArgGbl {
  double* target;
  ReduceOp op;
};

inline ArgGbl arg_gbl(double& target, ReduceOp op = ReduceOp::kSum) {
  return ArgGbl{&target, op};
}

}  // namespace ops
