#include "service/plan_cache.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/file_util.hpp"
#include "results/json.hpp"
#include "tuning/plan.hpp"

namespace service {

namespace {
constexpr int kCacheSchemaVersion = 1;
}  // namespace

PlanCache::PlanCache(std::size_t capacity, std::string path)
    : capacity_(capacity == 0 ? 1 : capacity), path_(std::move(path)) {}

std::string PlanCache::key_for(const tl::ProblemConfig& problem) {
  return results::problem_key(problem);
}

std::size_t PlanCache::find_locked(const std::string& key) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].key == key) return i;
  return entries_.size();
}

void PlanCache::touch_locked(std::size_t index) {
  if (index + 1 == entries_.size()) return;  // already MRU
  Entry entry = std::move(entries_[index]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  entries_.push_back(std::move(entry));
}

bool PlanCache::lookup(const std::string& key, tuning::TunedPlan* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t i = find_locked(key);
  if (i == entries_.size()) return false;
  ++stats_.hits;
  touch_locked(i);
  if (out != nullptr) *out = entries_.back().plan;
  return true;
}

void PlanCache::insert(const std::string& key, tuning::TunedPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t i = find_locked(key);
  if (i != entries_.size()) {
    entries_[i].plan = std::move(plan);
    touch_locked(i);
    return;
  }
  entries_.push_back(Entry{key, std::move(plan)});
  while (entries_.size() > capacity_) {
    entries_.erase(entries_.begin());
    ++stats_.evictions;
  }
}

tuning::TunedPlan PlanCache::fetch_or_tune(results::ResultStore& store,
                                           const tl::ProblemConfig& problem,
                                           const tuning::TuneOptions& options) {
  const std::string key = key_for(problem);
  tuning::TunedPlan plan;
  if (lookup(key, &plan)) return plan;

  // Serialise tunes: tuning::tune mutates the shared store and the
  // process-global machine overrides.  Re-check after winning the mutex so
  // concurrent fetches of one cold key cost a single tune.
  std::lock_guard<std::mutex> tune_lock(tune_mutex_);
  if (lookup(key, &plan)) return plan;
  tuning::TuneOutcome outcome = tuning::tune(store, problem, options);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    ++stats_.tunes;
  }
  insert(key, outcome.plan);
  return outcome.plan;
}

void PlanCache::load() {
  if (path_.empty()) return;
  std::ifstream in(path_);
  if (!in) return;  // no persisted cache yet
  std::stringstream ss;
  ss << in.rdbuf();
  const results::Json doc = results::Json::parse(ss.str());
  const std::int64_t version = doc.get_int("schema_version", -1);
  if (version != kCacheSchemaVersion)
    throw tl::ConfigError("plan cache '" + path_ +
                          "': unsupported schema_version " +
                          std::to_string(version));
  const results::Json* entries = doc.get("entries");
  if (entries == nullptr || !entries->is_array())
    throw tl::ConfigError("plan cache '" + path_ + "': missing entries array");
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  for (const results::Json& ej : entries->items()) {
    const results::Json* plan_json = ej.get("plan");
    if (plan_json == nullptr)
      throw tl::ConfigError("plan cache '" + path_ + "': entry without plan");
    Entry entry;
    entry.key = ej.get_string("key", "");
    if (entry.key.empty())
      throw tl::ConfigError("plan cache '" + path_ + "': entry without key");
    entry.plan = tuning::plan_from_json(*plan_json);
    entries_.push_back(std::move(entry));
    // Respect the bound even if the file was written with a larger one.
    while (entries_.size() > capacity_) {
      entries_.erase(entries_.begin());
      ++stats_.evictions;
    }
  }
}

void PlanCache::save() const {
  if (path_.empty()) return;
  results::Json doc = results::Json::object();
  doc.set("schema_version", kCacheSchemaVersion);
  results::Json entries = results::Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Persist key-sorted, not in LRU order: recency depends on which worker
    // touched an entry last, and the service-smoke byte-compare must not
    // depend on scheduling.  Recency is session-local; a reloaded cache
    // starts with sorted (arbitrary but stable) recency.
    std::vector<const Entry*> sorted;
    sorted.reserve(entries_.size());
    for (const Entry& entry : entries_) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry* a, const Entry* b) { return a->key < b->key; });
    for (const Entry* entry : sorted) {
      results::Json ej = results::Json::object();
      ej.set("key", entry->key);
      ej.set("plan", tuning::plan_to_json(entry->plan));
      entries.push_back(std::move(ej));
    }
  }
  doc.set("entries", std::move(entries));
  tl::write_file_atomically(path_, doc.dump() + "\n");
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace service
