// dim3.hpp — CUDA-style launch geometry for the simulated GPU.
#pragma once

namespace simgpu {

struct Dim3 {
  int x = 1;
  int y = 1;
  int z = 1;

  long count() const {
    return static_cast<long>(x) * static_cast<long>(y) * static_cast<long>(z);
  }
};

/// Ceiling division used to size grids, as CUDA codes do.
inline int div_up(int n, int block) { return (n + block - 1) / block; }

/// One thread block of a 1D launch: block `index` covers [lo, hi).
struct Block1D {
  long index = 0;
  long lo = 0;
  long hi = 0;
};

/// One thread block of a 2D launch: block `index` (row-major over the grid)
/// covers [x0, x1) x [y0, y1).
struct Block2D {
  long index = 0;
  int x0 = 0, x1 = 0;
  int y0 = 0, y1 = 0;
};

/// Per-element kernel coordinates (blockIdx/threadIdx equivalents are
/// recoverable from these plus the block dims, but kernels in this codebase
/// consume the global index directly, as TeaLeaf's CUDA kernels do after
/// their first line `i = blockIdx.x*blockDim.x + threadIdx.x`).
struct GlobalIndex {
  int x = 0;
  int y = 0;
};

}  // namespace simgpu
