// Tests for the loopback socket substrate: raw socket semantics and
// framed traffic over UDP and TCP.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <thread>

#include "net/socket.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace rcm::net {
namespace {

using namespace std::chrono_literals;

constexpr VarId kX = 0;

TEST(UdpSocket, RoundTripDatagram) {
  UdpSocket receiver;
  UdpSocket sender;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  sender.send_to(receiver.port(), payload);
  const auto got = receiver.receive(1000ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(UdpSocket, ReceiveTimesOutCleanly) {
  UdpSocket receiver;
  const auto got = receiver.receive(20ms);
  EXPECT_FALSE(got.has_value());
}

TEST(UdpSocket, TrySendToTreatsADeadPortAsLoss) {
  std::uint16_t dead_port = 0;
  {
    UdpSocket gone;
    dead_port = gone.port();
  }
  UdpSocket receiver;
  UdpSocket sender;
  const std::vector<std::uint8_t> payload{7};
  // Whatever the kernel reports for the closed port, nothing throws and
  // the live port still gets its datagram.
  for (int i = 0; i < 3; ++i) (void)sender.try_send_to(dead_port, payload);
  std::optional<std::vector<std::uint8_t>> got;
  for (int i = 0; i < 3 && !got; ++i) {
    (void)sender.try_send_to(receiver.port(), payload);
    got = receiver.receive(200ms);
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(UdpSocket, DatagramBoundariesPreserved) {
  UdpSocket receiver;
  UdpSocket sender;
  sender.send_to(receiver.port(), std::vector<std::uint8_t>{1});
  sender.send_to(receiver.port(), std::vector<std::uint8_t>{2, 2});
  const std::vector<std::uint8_t> big(4000, 0xAB);
  const std::vector<std::uint8_t> small{3, 3, 3};
  sender.send_to(receiver.port(), big);
  sender.send_to(receiver.port(), small);
  const auto first = receiver.receive(1000ms);
  const auto second = receiver.receive(1000ms);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->size(), 1u);
  EXPECT_EQ(second->size(), 2u);
  const auto third = receiver.receive(1000ms);
  const auto fourth = receiver.receive(1000ms);
  ASSERT_TRUE(third && fourth);
  EXPECT_EQ(*third, big);
  EXPECT_EQ(*fourth, small);  // no tail of the earlier, larger read
}

TEST(Tcp, ConnectAcceptExchange) {
  TcpListener listener;
  std::thread client{[&] {
    TcpStream stream = TcpStream::connect(listener.port());
    stream.write_all(std::vector<std::uint8_t>{10, 20, 30});
    stream.shutdown_write();
    // Keep the socket alive briefly so the FIN carries the data.
    std::this_thread::sleep_for(50ms);
  }};
  auto accepted = listener.accept(2000ms);
  ASSERT_TRUE(accepted.has_value());
  std::vector<std::uint8_t> received;
  while (true) {
    const auto chunk = accepted->read_some(1000ms);
    ASSERT_TRUE(chunk.has_value());
    if (chunk->empty()) break;  // EOF
    received.insert(received.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(received, (std::vector<std::uint8_t>{10, 20, 30}));
  client.join();
}

TEST(Tcp, AcceptTimesOutWithoutClient) {
  TcpListener listener;
  EXPECT_FALSE(listener.accept(20ms).has_value());
}

TEST(Tcp, FramedAlertsSurviveChunking) {
  TcpListener listener;
  Alert alert;
  alert.cond = "c";
  alert.histories.emplace(
      kX, std::vector<Update>{{kX, 1, 10.0}, {kX, 2, 20.0}});
  const auto framed =
      wire::frame(wire::encode_alert(alert, wire::AlertEncoding::kFullHistories));

  std::thread client{[&] {
    TcpStream stream = TcpStream::connect(listener.port());
    // Byte-at-a-time writes: the reader's FrameCursor must reassemble.
    for (std::uint8_t b : framed)
      stream.write_all(std::vector<std::uint8_t>{b});
    stream.shutdown_write();
    std::this_thread::sleep_for(50ms);
  }};
  auto accepted = listener.accept(2000ms);
  ASSERT_TRUE(accepted.has_value());
  wire::FrameCursor cursor;
  std::vector<Alert> decoded;
  while (true) {
    const auto chunk = accepted->read_some(1000ms);
    ASSERT_TRUE(chunk.has_value());
    if (chunk->empty()) break;
    cursor.feed(*chunk);
    while (auto payload = cursor.next())
      decoded.push_back(wire::decode_alert(*payload).alert);
  }
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key(), alert.key());
  client.join();
}

bool nodelay(const TcpStream& stream) {
  int value = 0;
  socklen_t len = sizeof(value);
  if (::getsockopt(stream.native_handle(), IPPROTO_TCP, TCP_NODELAY, &value,
                   &len) < 0)
    return false;
  return value != 0;
}

TEST(Tcp, NagleIsOffOnBothEnds) {
  // Every stream carries whole framed messages; a small frame must not
  // wait in the kernel for the ACK of the previous segment.
  TcpListener listener;
  TcpStream client = TcpStream::connect(listener.port());
  auto accepted = listener.accept(2000ms);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(nodelay(client));
  EXPECT_TRUE(nodelay(*accepted));
}

TEST(Tcp, ReadsReturnExactlyTheBytesRead) {
  TcpListener listener;
  TcpStream client = TcpStream::connect(listener.port());
  auto accepted = listener.accept(2000ms);
  ASSERT_TRUE(accepted.has_value());
  const std::vector<std::uint8_t> big(3000, 0xCD);
  const std::vector<std::uint8_t> small{7, 8};
  const auto read_exactly = [&](std::size_t want, bool blocking) {
    std::vector<std::uint8_t> got;
    for (int tries = 0; got.size() < want && tries < 200; ++tries) {
      const auto chunk =
          blocking ? accepted->read_some(1000ms) : accepted->read_available();
      if (!chunk) {
        std::this_thread::sleep_for(5ms);
        continue;
      }
      if (chunk->empty()) break;
      got.insert(got.end(), chunk->begin(), chunk->end());
    }
    return got;
  };
  client.write_all(big);
  EXPECT_EQ(read_exactly(big.size(), true), big);
  client.write_all(small);
  EXPECT_EQ(read_exactly(small.size(), true), small);
  client.write_all(big);
  EXPECT_EQ(read_exactly(big.size(), false), big);
  client.write_all(small);
  EXPECT_EQ(read_exactly(small.size(), false), small);
  client.shutdown_write();
  const auto eof = accepted->read_some(1000ms);
  ASSERT_TRUE(eof.has_value());
  EXPECT_TRUE(eof->empty());
}

}  // namespace
}  // namespace rcm::net
