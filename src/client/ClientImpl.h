//===- client/ClientImpl.h - facade internals (not installed) -------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The implementation layer behind include/slingen/client.h: the backend
/// interface the Session owns, the shared kernel state both origins fold
/// into, and the mappings from the internal error vocabularies
/// (service::Errc, net::ClientError) onto the public sl::Code set. This
/// header may include internal headers freely -- it is the one place the
/// public API touches the service/net/runtime layers.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CLIENT_CLIENTIMPL_H
#define SLINGEN_CLIENT_CLIENTIMPL_H

#include "slingen/client.h"

#include "isa/ISA.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "service/KernelCache.h"
#include "service/KernelService.h"

#include <memory>
#include <string>

namespace slingen {
namespace client {
namespace detail {

/// The immutable state behind a Kernel handle. Both factory paths
/// normalize into this one shape, which is what makes local and remote
/// kernels behave identically.
struct KernelState {
  Kernel::Origin Origin = Kernel::Origin::Local;
  std::string Key, FuncName, IsaName, CSource, StrategyName, SoBytes;
  int NumParams = 0;
  int BatchThreads = 1;
  bool Batched = false;
  bool Measured = false;
  long StaticCost = 0;
  double MeasuredCycles = 0.0;
  std::vector<int> Choice;
  /// The request's phase breakdown; unset when the request did not ask
  /// for one or the serving side could not provide it.
  std::optional<TimingBreakdown> Timing;
  /// The loaded shared object; null for source-only kernels.
  std::shared_ptr<const runtime::JitKernel> K;
  /// Keeps a local artifact (and the JitKernel it owns) alive.
  service::ArtifactPtr LocalArtifact;
  /// Resolved once by the factory: the target ISA (null when IsaName, which
  /// can be wire-supplied, is unknown to this build) and whether the object
  /// may run here (loaded, and hostCanRun(Isa)).
  const VectorISA *Isa = nullptr;
  bool Runnable = false;
};

/// Internal construction of public Kernel handles.
struct KernelFactory {
  /// Wraps a served local artifact; reads the compiled object's bytes
  /// from its cache/temp path when \p WantObject. An unreadable object
  /// under WantObject (e.g. the disk tier's GC evicted the .so while the
  /// loaded kernel kept serving from memory) is an error, not a silent
  /// downgrade to empty bytes. \p Timing (may be null) is the service's
  /// breakdown for the request, \p RoundTripUs the backend-measured wall
  /// time; together they become Kernel::timing().
  static Result<Kernel> fromArtifact(const service::ArtifactPtr &A,
                                     bool WantObject,
                                     const service::RequestTiming *Timing,
                                     long RoundTripUs);
  /// Wraps a wire artifact, staging and loading the shipped object bytes
  /// when present and host-runnable; the bytes of an object this host
  /// cannot run stay unloaded (objectBytes() only). A shipped object that
  /// fails to load is an error (ProtocolError), not a silent downgrade.
  /// The message's TimingText (when present and well-formed) plus
  /// \p RoundTripUs become Kernel::timing().
  static Result<Kernel> fromMessage(net::ArtifactMsg Msg, long RoundTripUs);
};

/// What a Session delegates to. One backend per session; all methods are
/// serialized by the session's single-caller contract.
class Backend {
public:
  virtual ~Backend() = default;
  virtual Result<Kernel> get(const Request &R) = 0;
  virtual Status warm(const Request &R) = 0;
  virtual Status drain() = 0;
  virtual Status ping() = 0;
  virtual Result<std::string> stats() = 0;
  virtual Result<std::string> metrics() = 0;
  virtual Session::BackendKind kind() const = 0;
};

/// In-process KernelService backend (`local:`).
std::unique_ptr<Backend> makeLocalBackend(const std::string &CacheDir,
                                          const SessionConfig &Config,
                                          Status &Err);
/// sld socket backend (`unix:`/`tcp:`), with per-request connection
/// re-establishment and the Config's bounded retry policy (MaxRetries /
/// RetryBackoffMs / ConnectTimeoutMs). \p Eager connects inside the
/// factory (plain remote addresses fail fast); the fallback wrapper
/// passes false.
std::unique_ptr<Backend> makeRemoteBackend(const std::string &Addr,
                                           const SessionConfig &Config,
                                           bool Eager, Status &Err);
/// Remote-preferring backend that degrades to a lazily created local
/// service on connect/transport failures (`auto:`).
std::unique_ptr<Backend> makeFallbackBackend(const std::string &RemoteAddr,
                                             const SessionConfig &Config,
                                             Status &Err);

/// service::Errc -> public code.
Code mapServiceErrc(service::Errc E);
/// A failed net request -> public Status. \p Connected tells transport
/// failures apart: false means the daemon was never reached
/// (ConnectFailed), true means an established connection died
/// (TransportError).
Status mapClientError(const net::ClientError &E, bool Connected);
/// Builds the wire Request for \p R (shared by the remote backend's
/// get/warm).
net::Request toWireRequest(const Request &R);
/// Builds the service-side views of \p R (shared by the local backend's
/// get/warm). The request was validated at build() time, so this cannot
/// fail.
void toServiceArgs(const Request &R, GenOptions &Options,
                   service::RequestOptions &Req);

} // namespace detail
} // namespace client
} // namespace slingen

#endif // SLINGEN_CLIENT_CLIENTIMPL_H
