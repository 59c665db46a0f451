// reduce.hpp — miniraja portable reducer objects.
//
// RAJA reducers are value-semantic objects captured by the loop lambda; the
// same user code works across serial, OpenMP and CUDA policies.  The object
// the user constructs is the owner; every copy of it is a private
// accumulator the compiler can keep in a register, and a copy folds its
// value into the owner when it is destroyed.  The policies (forall.hpp) run
// each row — a fixed index block in 1-D, a thread block on simgpu — on its
// own copy of the loop body, hand the copies to tlp::fold_rows, and so
// destroy them on the calling thread in row order.  A result therefore
// depends on neither the pool size nor which thread ran which row, and the
// fold needs no lock.
#pragma once

#include <utility>

namespace raja {

namespace detail {

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

/// Copies must not outlive the owner, as in RAJA.
template <typename T, typename Fold>
class Reducer {
public:
  Reducer(T initial, T identity)
      : owner_(this), initial_(initial), identity_(identity),
        value_(identity) {}

  /// A copy starts a fresh private accumulator for the owner.
  Reducer(const Reducer& other)
      : owner_(other.owner_),
        initial_(other.initial_),
        identity_(other.identity_),
        value_(other.identity_) {}
  /// A move hands the accumulated value over, so a row's body copy can be
  /// returned into its fold_rows slot without folding early.
  Reducer(Reducer&& other) noexcept
      : owner_(other.owner_),
        initial_(other.initial_),
        identity_(other.identity_),
        value_(std::exchange(other.value_, other.identity_)) {}
  Reducer& operator=(const Reducer&) = delete;

  ~Reducer() {
    if (owner_ != this && !(value_ == identity_)) {
      owner_->value_ = Fold()(owner_->value_, value_);
    }
  }

  /// Final reduced value (RAJA's implicit conversion / .get()).
  T get() const { return Fold()(initial_, owner_->value_); }
  operator T() const { return get(); }

protected:
  void combine(const T& v) const { value_ = Fold()(value_, v); }

private:
  const Reducer* owner_;
  T initial_;
  T identity_;
  mutable T value_;  // this object's accumulator
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
