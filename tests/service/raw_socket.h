// Raw unix-socket client helpers for the daemon tests. They speak the
// wire format below service::AdmitClient, so a test decides exactly which
// bytes reach the daemon and when.
#ifndef ZONESTREAM_TESTS_SERVICE_RAW_SOCKET_H_
#define ZONESTREAM_TESTS_SERVICE_RAW_SOCKET_H_

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "service/protocol.h"

namespace zonestream::service {

// A connected client socket whose reads give up after 5 s, so a daemon
// that never answers fails the test instead of hanging it.
inline int ConnectRaw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{5, 0};
  EXPECT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
      0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

inline void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

// Reads whole response frames from a blocking fd until EOF, the read
// timeout, or `count` frames arrive.
inline std::vector<Response> ReadResponses(int fd, size_t count) {
  std::vector<Response> responses;
  std::string buffer;
  char chunk[4096];
  while (responses.size() < count) {
    size_t consumed = 0;
    std::string_view payload;
    while (NextFrame(buffer, &consumed, &payload) == FrameParse::kFrame) {
      auto response = DecodeResponse(payload);
      EXPECT_TRUE(response.ok()) << response.status().ToString();
      if (response.ok()) responses.push_back(*response);
      buffer.erase(0, consumed);
      if (responses.size() >= count) return responses;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return responses;
}

inline std::string PingFrames(int count) {
  Request ping;
  ping.op = OpCode::kPing;
  const std::string one = EncodeRequest(ping);
  std::string frames;
  for (int i = 0; i < count; ++i) AppendFrame(&frames, one);
  return frames;
}

}  // namespace zonestream::service

#endif  // ZONESTREAM_TESTS_SERVICE_RAW_SOCKET_H_
