#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

// 1-based nearest rank; the epsilon keeps 0.95 * 200 at rank 190 despite
// 0.95 having no exact binary representation.
long nearest_rank(double q, long n) {
  return std::max(1L, static_cast<long>(std::ceil(q * n - 1e-9)));
}

}  // namespace

bool percentile(std::vector<double> v, double q, double* out) {
  const long n = static_cast<long>(v.size());
  if (n == 0) return false;
  const long rank = nearest_rank(q, n);
  if (n - rank < kMinBeyond) return false;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  *out = v[static_cast<std::size_t>(rank - 1)];
  return true;
}

std::string describe(const std::vector<double>& v, double scale,
                     const std::string& unit) {
  char buf[160];
  double p50 = 0.0, p95 = 0.0;
  const bool has50 = percentile(v, 0.50, &p50);
  const bool has95 = percentile(v, 0.95, &p95);
  std::snprintf(buf, sizeof buf, "p50=%s p95=%s %s (n=%zu)",
                has50 ? std::to_string(p50 * scale).c_str() : "n/a",
                has95 ? std::to_string(p95 * scale).c_str() : "n/a",
                unit.c_str(), v.size());
  return buf;
}

void report_setup(const std::vector<double>& setups, Outcome& out) {
  out.set("setup_s", median(setups), "s");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "setup_s: median of %zu set-ups, range %.6f-%.6f s",
                setups.size(), *std::min_element(setups.begin(), setups.end()),
                *std::max_element(setups.begin(), setups.end()));
  out.note(buf);
}

}  // namespace pb
