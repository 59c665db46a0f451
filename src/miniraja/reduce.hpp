// reduce.hpp — miniraja portable reducer objects.
//
// RAJA reducers are value-semantic objects captured by the loop lambda; the
// same user code works across serial, OpenMP and CUDA policies.  We follow
// the mechanics of RAJA's OpenMP backend: forall/kernel_2d copy the loop body
// once per work chunk (a pool rank's static block on the host, one thread
// block on simgpu), so every reducer captured in that copy is a private
// accumulator the compiler can keep in a register.  When the copy dies at
// chunk end it folds its value into the shared state's slot for that chunk,
// and get() folds the slots in chunk order.  A result therefore depends only
// on the chunk geometry (pool size, block shape), never on which OS thread
// ran which chunk.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/simd.hpp"

namespace raja {

namespace detail {

/// Ordinal of the work chunk whose private loop-body copy this thread is
/// making; 0 outside any chunk (the calling thread acts as chunk 0).
inline long& chunk_ordinal() {
  thread_local long ordinal = 0;
  return ordinal;
}

/// Marks the calling thread as setting up chunk `ordinal` for the scope's
/// lifetime; scopes nest, as nested loops do.
class ChunkScope {
public:
  explicit ChunkScope(long ordinal) : previous_(chunk_ordinal()) {
    chunk_ordinal() = ordinal;
  }
  ~ChunkScope() { chunk_ordinal() = previous_; }

  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

private:
  long previous_;
};

/// Shared state of one reducer: one partial per chunk ordinal, grown on
/// first fold.  Folds arrive once per chunk, so a mutex is cheap here.
template <typename T, typename Fold>
class ReducerState {
public:
  explicit ReducerState(T identity) : identity_(identity) {}

  const T& identity() const { return identity_; }

  /// Out of line: inlined into the loop-body copy's destructor, this path
  /// keeps the chunk loop's accumulator in memory instead of a register.
  TL_NOINLINE void fold(long ordinal, T v) {
    const auto i = static_cast<std::size_t>(ordinal);
    std::lock_guard<std::mutex> lock(mutex_);
    if (slots_.size() <= i) slots_.resize(i + 1, identity_);
    slots_[i] = Fold()(slots_[i], v);
  }

  /// Partials folded in chunk order.
  T get() const {
    std::lock_guard<std::mutex> lock(mutex_);
    T acc = identity_;
    for (const T& s : slots_) acc = Fold()(acc, s);
    return acc;
  }

private:
  T identity_;
  mutable std::mutex mutex_;
  std::vector<T> slots_;
};

struct FoldSum {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a + b;
  }
};
struct FoldMin {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};
struct FoldMax {
  template <typename T>
  T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};

/// The object the user constructs owns the shared state; every copy is a
/// private accumulator for the chunk being set up on the copying thread and
/// folds into the state when destroyed.  Copies must not outlive the owner,
/// as in RAJA.
template <typename T, typename Fold>
class Reducer {
public:
  Reducer(T initial, T identity)
      : owned_(std::make_unique<ReducerState<T, Fold>>(identity)),
        state_(owned_.get()),
        initial_(initial),
        value_(identity) {}

  Reducer(const Reducer& other)
      : state_(other.state_),
        initial_(other.initial_),
        value_(other.state_->identity()),
        ordinal_(chunk_ordinal()) {}
  Reducer& operator=(const Reducer&) = delete;

  ~Reducer() {
    if (owned_ == nullptr && !(value_ == state_->identity())) {
      state_->fold(ordinal_, value_);
    }
  }

  /// Final reduced value (RAJA's implicit conversion / .get()).
  T get() const {
    return Fold()(initial_, Fold()(state_->get(), value_));
  }
  operator T() const { return get(); }

protected:
  void combine(const T& v) const { value_ = Fold()(value_, v); }

private:
  std::unique_ptr<ReducerState<T, Fold>> owned_;
  ReducerState<T, Fold>* state_;
  T initial_;
  mutable T value_;  // this object's private accumulator
  long ordinal_ = 0;
};

}  // namespace detail

template <typename T>
class ReduceSum : public detail::Reducer<T, detail::FoldSum> {
public:
  explicit ReduceSum(T initial = T{})
      : detail::Reducer<T, detail::FoldSum>(initial, T{}) {}
  /// RAJA idiom: `sum += value;` inside the loop body.
  const ReduceSum& operator+=(const T& v) const {
    this->combine(v);
    return *this;
  }
};

template <typename T>
class ReduceMin : public detail::Reducer<T, detail::FoldMin> {
public:
  explicit ReduceMin(T initial)
      : detail::Reducer<T, detail::FoldMin>(initial, initial) {}
  const ReduceMin& min(const T& v) const {
    this->combine(v);
    return *this;
  }
};

template <typename T>
class ReduceMax : public detail::Reducer<T, detail::FoldMax> {
public:
  explicit ReduceMax(T initial)
      : detail::Reducer<T, detail::FoldMax>(initial, initial) {}
  const ReduceMax& max(const T& v) const {
    this->combine(v);
    return *this;
  }
};

}  // namespace raja
