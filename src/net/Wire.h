//===- net/Wire.h - frame and payload primitives of the sld protocol ------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bottom layer of the sld socket protocol: length-prefixed binary
/// frames over a stream socket, plus the little-endian payload reader/
/// writer the protocol layer encodes messages with.
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic FrameMagic ("sld3")
///   4       1     verb (see Verb; unknown values are delivered raw so the
///                 server can answer ERR instead of hanging up blind)
///   5       4     payload length N
///   9       N     payload bytes
///
/// readFrame() distinguishes a clean EOF at a frame boundary (peer closed,
/// ReadStatus::Eof) from a torn frame (EOF or error mid-header/payload,
/// ReadStatus::Error) and rejects payloads over the caller's cap before
/// reading them, so a hostile 4 GiB length prefix cannot balloon memory.
/// All I/O retries EINTR and handles short reads/writes.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_NET_WIRE_H
#define SLINGEN_NET_WIRE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace slingen {
namespace net {

/// Opens every frame. It is the protocol version too: a change to any
/// message layout bumps it, so a mismatched peer fails at the first frame
/// ("bad frame magic") instead of misreading a payload.
constexpr std::string_view FrameMagic = "sld3";

/// Frame verbs. Requests are low values, responses have the high bit set.
enum class Verb : uint8_t {
  Get = 0x01,     ///< request: generate/serve one kernel (payload: Request)
  Warm = 0x02,    ///< request: queue a prefetch for one kernel (same payload)
  Ping = 0x03,    ///< request: liveness probe (empty payload)
  Stats = 0x04,   ///< request: service counters (empty payload)
  Metrics = 0x05, ///< request: metrics scrape text (empty payload)

  Artifact = 0x81, ///< response to Get (payload: ArtifactMsg)
  Ok = 0x82,       ///< response to Warm/Ping/Stats (payload: text)
  Error = 0x83,    ///< response: request failed (payload: message)
};

/// True for verbs this build of the protocol understands.
bool verbKnown(uint8_t V);

/// Frames over 64 MiB are rejected by default -- comfortably above any
/// emitted kernel + .so, far below a memory-exhaustion vector.
constexpr size_t DefaultMaxPayload = 64u << 20;

/// One decoded frame. VerbByte is raw so unknown verbs survive decoding.
struct Frame {
  uint8_t VerbByte = 0;
  std::string Payload;

  Verb verb() const { return static_cast<Verb>(VerbByte); }
};

/// Writes one frame; loops over short writes, suppresses SIGPIPE. Returns
/// false (with \p Err) on any socket error.
bool writeFrame(int Fd, Verb V, const std::string &Payload, std::string &Err);

enum class ReadStatus {
  Ok,      ///< a complete frame was read
  Eof,     ///< peer closed cleanly between frames
  Error,   ///< torn frame, bad magic, oversized payload, or socket error
  Timeout, ///< the deadline expired before a complete frame arrived
};

/// Reads one complete frame. Blocks indefinitely when \p DeadlineUs is 0;
/// otherwise \p DeadlineUs is an absolute obs::nowUs() stamp and every
/// read is preceded by a poll() bounded by the time remaining, so a
/// stalled peer costs at most the deadline (ReadStatus::Timeout -- the
/// stream may be mid-frame afterwards, so the caller must treat the
/// connection as desynchronized and close it).
ReadStatus readFrame(int Fd, Frame &F, std::string &Err,
                     size_t MaxPayload = DefaultMaxPayload,
                     int64_t DeadlineUs = 0);

//===----------------------------------------------------------------------===//
// Payload encoding: a flat little-endian byte stream of u8/u32/u64/f64 and
// length-prefixed strings. ByteReader never reads past the end -- every
// accessor returns false on truncation, so a short frame fails decoding
// instead of faulting.
//===----------------------------------------------------------------------===//

class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void u64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Buf.append(S);
  }

  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

class ByteReader {
public:
  explicit ByteReader(const std::string &Data) : Data(Data) {}

  bool u8(uint8_t &V) {
    if (Pos + 1 > Data.size())
      return false;
    V = static_cast<uint8_t>(Data[Pos++]);
    return true;
  }
  bool u32(uint32_t &V) {
    if (Pos + 4 > Data.size())
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(Data[Pos++])) << (8 * I);
    return true;
  }
  bool u64(uint64_t &V) {
    if (Pos + 8 > Data.size())
      return false;
    V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Data[Pos++])) << (8 * I);
    return true;
  }
  bool f64(double &V) {
    uint64_t Bits;
    if (!u64(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof(V));
    return true;
  }
  bool str(std::string &S) {
    uint32_t Len;
    if (!u32(Len) || Pos + Len > Data.size())
      return false;
    S.assign(Data, Pos, Len);
    Pos += Len;
    return true;
  }

  bool atEnd() const { return Pos == Data.size(); }

private:
  const std::string &Data;
  size_t Pos = 0;
};

} // namespace net
} // namespace slingen

#endif // SLINGEN_NET_WIRE_H
