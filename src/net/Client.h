//===- net/Client.h - blocking sld protocol client ------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the sld protocol: connect to a daemon (Unix path or
/// loopback TCP), issue GET/WARM/PING/STATS requests, decode the replies.
/// One Client is one connection; requests on it are strictly sequential
/// (send, then block for the reply). It is movable, not copyable, and not
/// thread-safe -- concurrent callers open their own connections, which is
/// exactly what the single-flight test does to hammer one key.
///
/// The received ArtifactMsg carries the compiled kernel as .so bytes;
/// ArtifactMsg-consuming callers hand them to JitKernel::loadFromBytes()
/// to get a callable kernel with no local generator or C compiler.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_NET_CLIENT_H
#define SLINGEN_NET_CLIENT_H

#include "net/Protocol.h"
#include "net/Wire.h"

#include <optional>
#include <string>

namespace slingen {
namespace net {

/// Which layer a failed request died in. The distinction matters to
/// callers with a fallback: a Transport failure says nothing about the
/// request (reconnect/retry/degrade is sound), a Daemon failure is the
/// daemon's verdict on *this* request (retrying elsewhere just repeats
/// it), and a Protocol failure means the peer speaks something else
/// entirely.
enum class ErrorCategory {
  Transport, ///< connect/read/write failed or the daemon hung up
  Protocol,  ///< the reply (ERR included) did not decode, or carried an
             ///< unexpected verb
  Daemon,    ///< the daemon answered ERR; Code carries its error class
};

/// A structured request failure: the category, the daemon's error class
/// (decoded from the ERR payload's errc token; set for every Daemon
/// failure, unset for transport/protocol failures except a client-side
/// deadline expiry), and the human-readable message.
struct ClientError {
  ErrorCategory Category = ErrorCategory::Transport;
  std::optional<service::Errc> Code;
  std::string Message;
};

class Client {
public:
  /// Connects to \p Addr (see parseAddr for accepted forms). Returns
  /// std::nullopt with \p Err on parse or connect failure. The connect is
  /// nonblocking-with-poll: an unreachable or blackholed address fails
  /// within \p TimeoutMs instead of hanging for the kernel's SYN-retry
  /// budget (minutes).
  static std::optional<Client> connect(const std::string &Addr,
                                       std::string &Err,
                                       int TimeoutMs = 10000);

  Client(Client &&O) noexcept;
  Client &operator=(Client &&O) noexcept;
  ~Client();

  /// GET: serve (generating if needed) the kernel for \p R.
  bool get(const Request &R, ArtifactMsg &Out, ClientError &Err);

  /// WARM: queue a background prefetch on the daemon; returns once the
  /// daemon acknowledged the queueing, not the generation.
  bool warm(const Request &R, ClientError &Err);

  /// PING: liveness probe.
  bool ping(ClientError &Err);

  /// STATS: the daemon's ServiceStats as `key=value` lines.
  bool stats(std::string &Out, ClientError &Err);

  /// METRICS: the daemon's full metrics scrape (sorted registry text plus
  /// top-K dimension tables).
  bool metrics(std::string &Out, ClientError &Err);

  /// Flattened-string conveniences (the message only; callers that branch
  /// on the failure class use the ClientError forms above).
  bool get(const Request &R, ArtifactMsg &Out, std::string &Err);
  bool warm(const Request &R, std::string &Err);
  bool ping(std::string &Err);
  bool stats(std::string &Out, std::string &Err);
  bool metrics(std::string &Out, std::string &Err);

  /// Payload cap applied to incoming response frames. Artifact responses
  /// carry C source and .so bytes, so the default is deliberately roomy.
  void setMaxPayload(size_t Max) { MaxPayload = Max; }

  /// Absolute reply deadline (an obs::nowUs() stamp; 0 = wait forever)
  /// applied to every later round trip. When it expires mid-reply the
  /// stream is desynchronized, so the client closes its connection and
  /// fails with Errc::DeadlineExceeded -- callers reconnect to continue.
  void setDeadlineUs(int64_t D) { DeadlineUs = D; }

private:
  Client() = default;

  /// One request/response exchange; fails on transport errors, ERR
  /// responses, and unexpected verbs, classifying each into \p Err.
  bool roundTrip(Verb V, const std::string &Payload, Verb ExpectReply,
                 std::string &ReplyPayload, ClientError &Err);

  int Fd = -1;
  size_t MaxPayload = DefaultMaxPayload;
  int64_t DeadlineUs = 0;
};

} // namespace net
} // namespace slingen

#endif // SLINGEN_NET_CLIENT_H
