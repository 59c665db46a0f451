// schedule.hpp — the static loop schedule of tlp::ThreadPool, OpenMP's
// default `schedule(static)` (the paper's CPU builds all rely on OpenMP
// work-sharing; this library is our from-scratch equivalent).  It decides
// which thread runs which rows, never how a reduction associates: row
// partials fold in row order whatever the split (tlp::fold_rows).
#pragma once

#include <algorithm>

namespace tlp {

/// The [begin,end) sub-range thread `tid` of `nthreads` owns under static
/// scheduling.  Remainder elements are spread over the leading threads, as
/// OpenMP's static schedule does.
struct StaticRange {
  long begin;
  long end;
};

inline StaticRange static_partition(long begin, long end, int tid,
                                    int nthreads) {
  const long n = end - begin;
  if (n <= 0 || nthreads <= 0) return {begin, begin};
  const long base = n / nthreads;
  const long rem = n % nthreads;
  const long lo = begin + base * tid + std::min<long>(tid, rem);
  const long hi = lo + base + (tid < rem ? 1 : 0);
  return {lo, hi};
}

}  // namespace tlp
