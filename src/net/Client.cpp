//===- net/Client.cpp -----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include "net/Server.h" // parseAddr
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace slingen;
using namespace slingen::net;

namespace {

/// Nonblocking connect bounded by \p TimeoutMs: a blackholed TCP address
/// (or a daemon whose accept queue stopped draining) fails here in bounded
/// time instead of hanging for the kernel's minutes-long SYN-retry budget.
/// On success the socket is restored to blocking mode.
bool connectWithTimeout(int Fd, const sockaddr *SA, socklen_t Len,
                        int TimeoutMs, std::string &Err) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  if (Flags < 0 || fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) < 0) {
    Err = formatf("fcntl failed: %s", strerror(errno));
    return false;
  }
  int Rc = ::connect(Fd, SA, Len);
  if (Rc != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      Err = strerror(errno);
      return false;
    }
    int64_t Deadline = obs::nowUs() + static_cast<int64_t>(TimeoutMs) * 1000;
    for (;;) {
      int64_t RemainUs = Deadline - obs::nowUs();
      if (RemainUs <= 0) {
        Err = formatf("timed out after %d ms", TimeoutMs);
        return false;
      }
      pollfd PFd{};
      PFd.fd = Fd;
      PFd.events = POLLOUT;
      int PRc = poll(&PFd, 1, static_cast<int>((RemainUs + 999) / 1000));
      if (PRc < 0) {
        if (errno == EINTR)
          continue;
        Err = formatf("poll failed: %s", strerror(errno));
        return false;
      }
      if (PRc == 0) {
        Err = formatf("timed out after %d ms", TimeoutMs);
        return false;
      }
      break;
    }
    int SoErr = 0;
    socklen_t SoLen = sizeof(SoErr);
    if (getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &SoLen) != 0 ||
        SoErr != 0) {
      Err = strerror(SoErr != 0 ? SoErr : errno);
      return false;
    }
  }
  if (fcntl(Fd, F_SETFL, Flags) < 0) {
    Err = formatf("fcntl failed: %s", strerror(errno));
    return false;
  }
  return true;
}

} // namespace

std::optional<Client> Client::connect(const std::string &Addr,
                                      std::string &Err, int TimeoutMs) {
  ParsedAddr P;
  if (!parseAddr(Addr, P, Err))
    return std::nullopt;
  if (TimeoutMs <= 0)
    TimeoutMs = 10000;

  int Fd = -1;
  std::string ConnErr;
  if (P.IsUnix) {
    if (P.UnixPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
      Err = "unix socket path too long: " + P.UnixPath;
      return std::nullopt;
    }
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = formatf("socket failed: %s", strerror(errno));
      return std::nullopt;
    }
    sockaddr_un SA{};
    SA.sun_family = AF_UNIX;
    strncpy(SA.sun_path, P.UnixPath.c_str(), sizeof(SA.sun_path) - 1);
    if (!connectWithTimeout(Fd, reinterpret_cast<sockaddr *>(&SA),
                            sizeof(SA), TimeoutMs, ConnErr)) {
      Err = "cannot connect to " + P.UnixPath + ": " + ConnErr;
      close(Fd);
      return std::nullopt;
    }
  } else {
    addrinfo Hints{}, *Res = nullptr;
    Hints.ai_family = AF_INET;
    Hints.ai_socktype = SOCK_STREAM;
    int Rc = getaddrinfo(P.Host.c_str(), std::to_string(P.Port).c_str(),
                         &Hints, &Res);
    if (Rc != 0 || !Res) {
      Err = formatf("cannot resolve %s: %s", P.Host.c_str(),
                    gai_strerror(Rc));
      return std::nullopt;
    }
    Fd = socket(Res->ai_family, Res->ai_socktype, Res->ai_protocol);
    if (Fd < 0 || !connectWithTimeout(Fd, Res->ai_addr, Res->ai_addrlen,
                                      TimeoutMs, ConnErr)) {
      Err = formatf("cannot connect to %s:%d: %s", P.Host.c_str(), P.Port,
                    ConnErr.empty() ? strerror(errno) : ConnErr.c_str());
      if (Fd >= 0)
        close(Fd);
      freeaddrinfo(Res);
      return std::nullopt;
    }
    freeaddrinfo(Res);
  }

  Client C;
  C.Fd = Fd;
  return C;
}

Client::Client(Client &&O) noexcept
    : Fd(O.Fd), MaxPayload(O.MaxPayload), DeadlineUs(O.DeadlineUs) {
  O.Fd = -1;
}

Client &Client::operator=(Client &&O) noexcept {
  if (this != &O) {
    if (Fd >= 0)
      close(Fd);
    Fd = O.Fd;
    MaxPayload = O.MaxPayload;
    DeadlineUs = O.DeadlineUs;
    O.Fd = -1;
  }
  return *this;
}

Client::~Client() {
  if (Fd >= 0)
    close(Fd);
}

bool Client::roundTrip(Verb V, const std::string &Payload, Verb ExpectReply,
                       std::string &ReplyPayload, ClientError &Err) {
  // One span + one histogram sample per wire exchange: the client-side
  // round-trip view that pairs with the daemon's server.<verb>.us numbers
  // (the difference is wire + queueing cost).
  static obs::Histogram &RoundTripUs =
      obs::Registry::global().histogram("client.roundtrip.us");
  obs::ScopedSpan Span("client-roundtrip", "client", &RoundTripUs);
  Err = {};
  if (Fd < 0) {
    Err.Message = "not connected";
    return false;
  }
  if (DeadlineUs > 0 && obs::nowUs() >= DeadlineUs) {
    // Nothing was sent yet, so the connection stays usable; the request
    // just never had time to run.
    Err.Code = service::Errc::DeadlineExceeded;
    Err.Message = "deadline expired before the request was sent";
    return false;
  }
  if (!writeFrame(Fd, V, Payload, Err.Message))
    return false; // Category defaults to Transport
  Frame F;
  ReadStatus RS = readFrame(Fd, F, Err.Message, MaxPayload, DeadlineUs);
  if (RS == ReadStatus::Eof) {
    Err.Message = "daemon closed the connection";
    return false;
  }
  if (RS == ReadStatus::Timeout) {
    // The reply may be mid-frame; the stream is desynchronized. Close so
    // the next request reconnects instead of decoding garbage.
    close(Fd);
    Fd = -1;
    Err.Code = service::Errc::DeadlineExceeded;
    Err.Message = "deadline expired waiting for the daemon's reply";
    return false;
  }
  if (RS == ReadStatus::Error)
    return false; // torn frame / bad magic / socket error: the stream died
  if (F.verb() == Verb::Error) {
    service::Errc Code;
    if (!decodeErrorPayload(F.Payload, Code, Err.Message)) {
      Err.Category = ErrorCategory::Protocol;
      Err.Message = "untagged error reply: " + F.Payload;
      return false;
    }
    Err.Category = ErrorCategory::Daemon;
    Err.Code = Code;
    if (Err.Message.empty())
      Err.Message = "daemon reported an error";
    return false;
  }
  if (F.verb() != ExpectReply) {
    Err.Category = ErrorCategory::Protocol;
    Err.Message = formatf("unexpected reply verb 0x%02x", F.VerbByte);
    return false;
  }
  ReplyPayload = std::move(F.Payload);
  return true;
}

bool Client::get(const Request &R, ArtifactMsg &Out, ClientError &Err) {
  int64_t Start = obs::nowUs();
  std::string Reply;
  if (!roundTrip(Verb::Get, encodeRequest(R), Verb::Artifact, Reply, Err))
    return false;
  if (!decodeArtifact(Reply, Out, Err.Message)) {
    Err.Category = ErrorCategory::Protocol;
    Err.Code = std::nullopt;
    return false;
  }
  // Merge the daemon's spans into the local trace: its steady clock is
  // not ours, so rebase the server window to sit centered inside this
  // round trip (left-aligned when clock skew makes it look wider). Tids
  // are offset so server threads get their own rows next to ours.
  if (!Out.ServerSpans.empty() && R.TraceId &&
      obs::Tracer::global().enabled()) {
    int64_t ClientDur = obs::nowUs() - Start;
    int64_t SrvMin = INT64_MAX, SrvMax = INT64_MIN;
    for (const obs::Span &S : Out.ServerSpans) {
      SrvMin = std::min(SrvMin, S.StartUs);
      SrvMax = std::max(SrvMax, S.StartUs + S.DurUs);
    }
    int64_t Window = SrvMax - SrvMin;
    int64_t Offset =
        Start + (Window < ClientDur ? (ClientDur - Window) / 2 : 0) - SrvMin;
    for (const obs::Span &S : Out.ServerSpans) {
      obs::Span Local = S;
      Local.StartUs += Offset;
      Local.Tid += 1000;
      Local.TraceId = R.TraceId;
      obs::Tracer::global().record(Local);
    }
  }
  return true;
}

bool Client::warm(const Request &R, ClientError &Err) {
  std::string Reply;
  return roundTrip(Verb::Warm, encodeRequest(R), Verb::Ok, Reply, Err);
}

bool Client::ping(ClientError &Err) {
  std::string Reply;
  return roundTrip(Verb::Ping, "", Verb::Ok, Reply, Err);
}

bool Client::stats(std::string &Out, ClientError &Err) {
  return roundTrip(Verb::Stats, "", Verb::Ok, Out, Err);
}

bool Client::metrics(std::string &Out, ClientError &Err) {
  return roundTrip(Verb::Metrics, "", Verb::Ok, Out, Err);
}

bool Client::get(const Request &R, ArtifactMsg &Out, std::string &Err) {
  ClientError E;
  if (get(R, Out, E))
    return true;
  Err = std::move(E.Message);
  return false;
}

bool Client::warm(const Request &R, std::string &Err) {
  ClientError E;
  if (warm(R, E))
    return true;
  Err = std::move(E.Message);
  return false;
}

bool Client::ping(std::string &Err) {
  ClientError E;
  if (ping(E))
    return true;
  Err = std::move(E.Message);
  return false;
}

bool Client::stats(std::string &Out, std::string &Err) {
  ClientError E;
  if (stats(Out, E))
    return true;
  Err = std::move(E.Message);
  return false;
}

bool Client::metrics(std::string &Out, std::string &Err) {
  ClientError E;
  if (metrics(Out, E))
    return true;
  Err = std::move(E.Message);
  return false;
}
