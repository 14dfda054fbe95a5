//===- net/Wire.cpp -------------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "obs/Metrics.h"
#include "support/FaultInject.h"
#include "support/Format.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace slingen;
using namespace slingen::net;

namespace {

constexpr size_t HeaderSize = 4 + 1 + 4; // magic, verb, payload length

/// Writes all of \p Len bytes; EINTR-safe, short-write-safe. MSG_NOSIGNAL
/// turns a dead peer into an EPIPE return instead of killing the process.
bool fullSend(int Fd, const void *Data, size_t Len, std::string &Err) {
  const char *P = static_cast<const char *>(Data);
  while (Len > 0) {
    ssize_t N = send(Fd, P, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = formatf("send failed: %s", strerror(errno));
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Reads exactly \p Len bytes. Returns 1 on success, 0 on EOF before the
/// first byte, -1 on EOF mid-read or a socket error, -2 when \p DeadlineUs
/// (absolute, 0 = none) expires before the bytes arrive. Each blocking
/// read is gated by a poll() bounded by the time remaining.
int fullRecv(int Fd, void *Data, size_t Len, std::string &Err,
             int64_t DeadlineUs) {
  char *P = static_cast<char *>(Data);
  size_t Got = 0;
  while (Got < Len) {
    if (DeadlineUs > 0) {
      int64_t RemainUs = DeadlineUs - obs::nowUs();
      if (RemainUs <= 0) {
        Err = "deadline expired waiting for the peer";
        return -2;
      }
      pollfd PFd{};
      PFd.fd = Fd;
      PFd.events = POLLIN;
      int Rc = poll(&PFd, 1, static_cast<int>((RemainUs + 999) / 1000));
      if (Rc < 0) {
        if (errno == EINTR)
          continue;
        Err = formatf("poll failed: %s", strerror(errno));
        return -1;
      }
      if (Rc == 0) {
        Err = "deadline expired waiting for the peer";
        return -2;
      }
    }
    ssize_t N = read(Fd, P + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = formatf("read failed: %s", strerror(errno));
      return -1;
    }
    if (N == 0) {
      if (Got == 0)
        return 0;
      Err = formatf("torn frame: peer closed after %zu of %zu bytes", Got,
                    Len);
      return -1;
    }
    Got += static_cast<size_t>(N);
  }
  return 1;
}

} // namespace

bool net::verbKnown(uint8_t V) {
  switch (static_cast<Verb>(V)) {
  case Verb::Get:
  case Verb::Warm:
  case Verb::Ping:
  case Verb::Stats:
  case Verb::Metrics:
  case Verb::Artifact:
  case Verb::Ok:
  case Verb::Error:
    return true;
  }
  return false;
}

bool net::writeFrame(int Fd, Verb V, const std::string &Payload,
                     std::string &Err) {
  if (fault::anyArmed() && fault::shouldFire("drop-connection")) {
    // Simulate the peer (or the network) dying mid-exchange: kill the
    // stream under ourselves so the write and every later read fail.
    shutdown(Fd, SHUT_RDWR);
    Err = "injected fault: connection dropped";
    return false;
  }
  char Header[HeaderSize];
  std::memcpy(Header, FrameMagic.data(), FrameMagic.size());
  Header[4] = static_cast<char>(V);
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Header[5 + I] = static_cast<char>((Len >> (8 * I)) & 0xff);
  if (!fullSend(Fd, Header, HeaderSize, Err))
    return false;
  return Payload.empty() || fullSend(Fd, Payload.data(), Payload.size(), Err);
}

ReadStatus net::readFrame(int Fd, Frame &F, std::string &Err,
                          size_t MaxPayload, int64_t DeadlineUs) {
  if (fault::anyArmed()) {
    int StallMs = fault::paramMs("stall-read");
    if (fault::shouldFire("stall-read"))
      std::this_thread::sleep_for(
          std::chrono::milliseconds(StallMs > 0 ? StallMs : 100));
  }
  char Header[HeaderSize];
  int Rc = fullRecv(Fd, Header, HeaderSize, Err, DeadlineUs);
  if (Rc == 0)
    return ReadStatus::Eof;
  if (Rc == -2)
    return ReadStatus::Timeout;
  if (Rc < 0)
    return ReadStatus::Error;
  if (std::memcmp(Header, FrameMagic.data(), FrameMagic.size()) != 0) {
    Err = "bad frame magic (not an sld peer?)";
    return ReadStatus::Error;
  }
  F.VerbByte = static_cast<uint8_t>(Header[4]);
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(static_cast<uint8_t>(Header[5 + I]))
           << (8 * I);
  // Reject before allocating or reading: the declared length is attacker-
  // controlled input.
  if (Len > MaxPayload) {
    Err = formatf("frame payload of %u bytes exceeds the %zu-byte cap",
                  Len, MaxPayload);
    return ReadStatus::Error;
  }
  F.Payload.resize(Len);
  if (Len > 0) {
    int PRc = fullRecv(Fd, F.Payload.data(), Len, Err, DeadlineUs);
    if (PRc == -2)
      return ReadStatus::Timeout;
    if (PRc != 1)
      return ReadStatus::Error;
  }
  return ReadStatus::Ok;
}
