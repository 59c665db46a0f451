#include "host.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "results/sweep.hpp"
#include "threading/thread_pool.hpp"

namespace pb {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// "48K" / "8M" -> bytes.
std::int64_t size_bytes(const std::string& text) {
  if (text.empty()) return 0;
  std::int64_t value = std::atoll(text.c_str());
  switch (text.back()) {
    case 'K': return value << 10;
    case 'M': return value << 20;
    case 'G': return value << 30;
    default: return value;
  }
}

/// a = b + s*c over arrays of `bytes` each, first-touched by the pool that
/// runs the passes; returns the best pass in GB/s (3 arrays moved per pass,
/// no write-allocate traffic counted, as STREAM reports it).
double triad_gbs(std::int64_t bytes, int threads) {
  const long n = static_cast<long>(bytes / 8);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  tlp::ThreadPool pool(threads);
  pool.parallel_for(0, n, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + 1e-9 * static_cast<double>(i);
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  for (int pass = 0; pass < 4; ++pass) {
    const double s = 0.5 + pass;
    const Clock::time_point start = Clock::now();
    pool.parallel_for(0, n, [&](long lo, long hi) {
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (long i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double seconds = seconds_since(start);
    best = std::max(best, 3.0 * 8.0 * static_cast<double>(n) / seconds / 1e9);
  }
  return best;
}

}  // namespace

HostInfo fingerprint(int threads) {
  HostInfo host;
  host.cpu_model = cpu_model();
  host.nproc = static_cast<int>(std::thread::hardware_concurrency());
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    std::string type = read_line(dir + "type");
    const std::string size = read_line(dir + "size");
    const std::string suffix =
        type == "Data" ? "d" : type == "Instruction" ? "i" : "";
    host.caches.push_back("L" + level + suffix + " " + size);
    host.llc_bytes = std::max(host.llc_bytes, size_bytes(size));
  }
  // Without a readable cache hierarchy, size for a generous 128 MiB LLC.
  const std::int64_t llc = host.llc_bytes > 0 ? host.llc_bytes : (128LL << 20);
  host.triad_array_bytes = 4 * llc;
  host.triad_threads = threads;
  host.triad_gbs = triad_gbs(host.triad_array_bytes, threads);
  host.toolchain_flags = results::toolchain_flags();
  host.git_revision = results::git_revision();
  return host;
}

CpuTimes cpu_times() {
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::istringstream line(read_line("/proc/stat"));
  std::string label;
  line >> label;
  CpuTimes t;
  long long value = 0;
  for (int field = 0; field < 8 && line >> value; ++field) {
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

std::vector<std::string> host_notes(const HostInfo& host,
                                    const CpuTimes& start) {
  std::vector<std::string> notes;
  for (const auto& [key, value] : host.as_map())
    notes.push_back(key + ": " + value);
  const CpuTimes now = cpu_times();
  const long long total = now.total - start.total;
  char buf[96];
  std::snprintf(buf, sizeof buf, "host.steal_pct: %.1f (of all CPU time "
                "during the run)",
                total > 0 ? 100.0 * (now.steal - start.steal) / total : 0.0);
  notes.push_back(buf);
  return notes;
}

std::map<std::string, std::string> HostInfo::as_map() const {
  std::string cache_list;
  for (const std::string& c : caches)
    cache_list += (cache_list.empty() ? "" : ", ") + c;
  return {
      {"host.cpu_model", cpu_model},
      {"host.nproc", std::to_string(nproc)},
      {"host.caches", cache_list},
      {"host.triad_gbs", std::to_string(triad_gbs)},
      {"host.triad_array_mib", std::to_string(triad_array_bytes >> 20)},
      {"host.triad_threads", std::to_string(triad_threads)},
      {"host.toolchain_flags", toolchain_flags},
      {"host.git_revision", git_revision},
  };
}

}  // namespace pb
