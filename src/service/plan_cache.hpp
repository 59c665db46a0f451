// plan_cache.hpp — per-deck TunedPlan cache for the solve service.
//
// Every request entering the service is keyed by the result store's
// canonical problem hash (results::problem_key) — the same keying scheme
// the store and the tuner use, so "the plan for this deck" means exactly
// "the plan tuned against this store row family".  A hit returns the stored
// plan bits unchanged; a miss runs tuning::tune and caches the outcome.
// Because tune() is a pure function of (store contents, problem, options),
// re-populating a cache against the same store reproduces bit-identical
// plans — the warm-pass determinism the service-smoke CI job asserts by
// byte-comparing the persisted cache file across passes.
//
// The cache is LRU-bounded in memory; its persisted form lists entries
// key-sorted, so the file's bytes depend only on the entry set and the plan
// bits — never on which worker touched an entry last.  Tunes are serialised
// behind a single mutex: tuning::tune mutates process-global machine
// overrides and the shared result store, neither of which tolerates
// concurrent tunes.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "results/result_store.hpp"
#include "tuning/search.hpp"

namespace service {

struct PlanCacheStats {
  long hits = 0;       // lookups and fetches served from cache (a fetch
                       // that waited for another's tune of its key too)
  long misses = 0;     // fetches that tuned
  long tunes = 0;      // tuning::tune actually executed
  long evictions = 0;  // entries dropped by the LRU bound
};

class PlanCache {
public:
  /// `capacity` bounds the entry count (>= 1); `path` is where load()/save()
  /// persist the cache — empty disables persistence.  By convention the
  /// service puts the cache next to its result store ("<store>.plans.json").
  explicit PlanCache(std::size_t capacity, std::string path = "");

  /// Canonical request key: the store's problem hash.
  static std::string key_for(const tl::ProblemConfig& problem);

  /// The service entry point.  Cache hit: return the stored plan (moved to
  /// most-recently-used).  Miss: run tuning::tune against `store` under the
  /// tune mutex, insert, and return the fresh plan.  Two workers fetching a
  /// cold key concurrently perform one tune: the loser of the mutex race
  /// re-checks the cache and counts a hit, so a miss is a fetch that tuned.
  tuning::TunedPlan fetch_or_tune(results::ResultStore& store,
                                  const tl::ProblemConfig& problem,
                                  const tuning::TuneOptions& options);

  /// Direct lookup without tuning; counts as a hit when found and as
  /// nothing otherwise.
  bool lookup(const std::string& key, tuning::TunedPlan* out);

  /// Insert (or overwrite) an entry as most-recently-used, evicting the
  /// least-recently-used entry when over capacity.
  void insert(const std::string& key, tuning::TunedPlan plan);

  /// Read entries persisted by save(); silently a no-op when the path is
  /// empty or the file does not exist, throws tl::ConfigError on a
  /// malformed or schema-incompatible file.
  void load();
  /// Persist entries (key-sorted) to the path; no-op when empty.
  void save() const;

  PlanCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  const std::string& path() const { return path_; }

private:
  struct Entry {
    std::string key;
    tuning::TunedPlan plan;
  };

  // Caller must hold mutex_.  Returns entries_.size() on miss.
  std::size_t find_locked(const std::string& key) const;
  void touch_locked(std::size_t index);  // move to MRU (back)

  const std::size_t capacity_;
  const std::string path_;
  mutable std::mutex mutex_;
  std::mutex tune_mutex_;  // serialises tuning::tune across workers
  std::vector<Entry> entries_;  // LRU at front, MRU at back
  PlanCacheStats stats_;
};

}  // namespace service
