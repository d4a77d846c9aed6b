// Blocking MPMC queues: the alert service's replica-to-AD queue and the
// task queue of runtime::ThreadPool.
//
// Closing a queue wakes all blocked consumers; pop() then drains any
// remaining elements before reporting exhaustion, so no message is lost
// on shutdown (the paper's back links are lossless — so are our queues).
// BoundedBlockingQueue adds a capacity: push() blocks while full, giving
// producers natural backpressure instead of unbounded buffering.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace rcm::runtime {

template <typename T>
class BlockingQueue {
 public:
  /// Enqueues unless the queue is closed; returns whether the element was
  /// accepted.
  bool push(T value) {
    {
      std::lock_guard lock{mutex_};
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an element is available or the queue is closed and
  /// drained; nullopt means "closed and empty" (the consumer should exit).
  std::optional<T> pop() {
    std::unique_lock lock{mutex_};
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Non-blocking variant; nullopt when currently empty (queue may still
  /// be open).
  std::optional<T> try_pop() {
    std::lock_guard lock{mutex_};
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Rejects future pushes and wakes all blocked consumers.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock{mutex_};
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock{mutex_};
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Bounded MPMC variant: push() blocks while the queue holds `capacity`
/// elements (backpressure), pop() blocks while empty. Close semantics
/// match BlockingQueue: pushes are rejected immediately, consumers drain
/// the remaining elements and then see nullopt.
template <typename T>
class BoundedBlockingQueue {
 public:
  explicit BoundedBlockingQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocks until there is room or the queue is closed; returns whether
  /// the element was accepted.
  bool push(T value) {
    {
      std::unique_lock lock{mutex_};
      not_full_.wait(lock,
                     [&] { return items_.size() < capacity_ || closed_; });
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an element is available or the queue is closed and
  /// drained; nullopt means "closed and empty".
  std::optional<T> pop() {
    std::optional<T> value;
    {
      std::unique_lock lock{mutex_};
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
      if (items_.empty()) return std::nullopt;
      value = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Rejects future pushes and wakes every blocked producer and consumer.
  void close() {
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock{mutex_};
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock{mutex_};
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace rcm::runtime
