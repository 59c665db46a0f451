// host.hpp — the fingerprint printed with every result: CPU model, core
// count, cache sizes, a same-run STREAM-style triad, the kernel libraries'
// compile flags and the source revision.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct HostInfo {
  std::string cpu_model;
  int nproc = 0;
  std::vector<std::string> caches;  // "L1d 48K", "L3 107520K", ...
  std::int64_t llc_bytes = 0;
  double triad_gbs = 0.0;            // best of the timed triad passes
  std::int64_t triad_array_bytes = 0;
  int triad_threads = 0;
  std::string toolchain_flags;
  std::string git_revision;

  std::map<std::string, std::string> as_map() const;
};

/// Read the host description and run the triad on `threads` threads, with
/// each array at least four times the last-level cache.
HostInfo fingerprint(int threads);

/// Aggregate CPU time from /proc/stat, to report how much of a run the
/// hypervisor took away (steal): on a shared host that is the main source
/// of run-to-run spread.
struct CpuTimes {
  long long total = 0;
  long long steal = 0;
};
CpuTimes cpu_times();

/// Host notes for a result: every fingerprint field, and the steal share
/// of CPU time since `start`.
std::vector<std::string> host_notes(const HostInfo& host,
                                    const CpuTimes& start);

}  // namespace pb
