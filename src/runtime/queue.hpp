// Bounded blocking MPMC queue: the task queue of runtime::ThreadPool.
//
// push() blocks while the queue is full, giving producers natural
// backpressure instead of unbounded buffering. Closing the queue wakes
// every blocked producer and consumer; pop() then drains any remaining
// elements before reporting exhaustion, so no task is lost on shutdown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace rcm::runtime {

/// push() blocks while the queue holds `capacity` elements, pop() blocks
/// while empty. After close(), push() returns false at once (also for a
/// producer blocked on a full queue), and pop() returns the remaining
/// elements in order, then nullopt.
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
