// Tests for the blocking MPMC queue behind the alert service's AD queue
// and runtime::ThreadPool.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/queue.hpp"

namespace rcm::runtime {
namespace {

TEST(BlockingQueue, FifoSingleThread) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseRejectsPushesButDrains) {
  BlockingQueue<int> q;
  (void)q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.pop(), 1);              // drains the remaining element
  EXPECT_FALSE(q.pop().has_value());  // then reports exhaustion
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::atomic<int> got{0};
  std::thread consumer{[&] {
    const auto v = q.pop();
    got = v.value_or(-1);
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), 0);  // still blocked
  (void)q.push(42);
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(BlockingQueue, CloseWakesBlockedConsumers) {
  BlockingQueue<int> q;
  std::atomic<bool> finished{false};
  std::thread consumer{[&] {
    while (q.pop().has_value()) {
    }
    finished = true;
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
  EXPECT_TRUE(finished.load());
}

TEST(BlockingQueue, ManyProducersOneConsumer) {
  BlockingQueue<int> q;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) (void)q.push(p * kPerProducer + i);
    });
  std::vector<int> seen;
  std::thread consumer{[&] {
    while (auto v = q.pop()) seen.push_back(*v);
  }};
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  // Per-producer FIFO must be preserved even under contention.
  std::vector<int> last(kProducers, -1);
  for (int v : seen) {
    const int p = v / kPerProducer;
    EXPECT_GT(v % kPerProducer, last[p]);
    last[p] = v % kPerProducer;
  }
}

}  // namespace
}  // namespace rcm::runtime
