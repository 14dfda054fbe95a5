//===- net/Protocol.h - sld request/response messages ---------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message layer of the sld protocol: what rides inside the Wire.h
/// frames. Two payload shapes exist:
///
///   Request      (verbs GET and WARM) an LA program as source text, the
///                GenOptions document (see slingen/OptionsIO.h), the
///                batched bit, and optional per-request overrides of the
///                daemon's batch strategy and measured-tuning default.
///   ArtifactMsg  (verb ARTIFACT) everything a client needs to use a
///                kernel without a local generator or compiler: the
///                emitted C, full provenance (key, choice vector, tuning
///                data), and the compiled shared object as raw bytes --
///                dlopen-able on the client via JitKernel::loadFromBytes.
///
/// Each message has exactly one encoding: every field is always written,
/// in a fixed order, with 0 (or empty) meaning "none" for the optional
/// ones. Decoders validate strictly (no trailing bytes, no out-of-range
/// flags) and fail with a message rather than guessing: a payload that
/// decodes re-encodes to exactly its own bytes.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_NET_PROTOCOL_H
#define SLINGEN_NET_PROTOCOL_H

#include "obs/Trace.h"
#include "service/KernelService.h"

#include <optional>
#include <string>
#include <vector>

namespace slingen {
namespace net {

/// A GET/WARM payload.
struct Request {
  std::string LaSource;    ///< the LA program text
  std::string OptionsText; ///< serializeGenOptions() document (may be empty)
  bool Batched = false;
  /// Batch-strategy override ("loop"/"fused"/"auto"); empty defers
  /// to the daemon's configured strategy.
  std::string StrategyName;
  /// Batched dispatch-width override (the `threads=k` knob): 0 defers to
  /// the daemon's batch-threads policy, k >= 1 pins the width the daemon
  /// records on a produced artifact. Dispatch metadata only -- it never
  /// changes the served bytes or the cache key.
  int Threads = 0;
  /// Measured-tuning override: -1 defers to the daemon, 0/1 force. A
  /// produce-time policy: it governs how a cache miss is generated, and
  /// an already-cached artifact is served as-is (ArtifactMsg::Measured
  /// reports what this kernel actually got).
  int MeasureOverride = -1;
  /// When false the response omits the .so bytes (clients that only want
  /// the C source skip the biggest field).
  bool WantSo = true;
  /// Ask the daemon to attach its per-request phase breakdown and span
  /// list to the response (ArtifactMsg::Timing and ServerSpans).
  bool WantTiming = false;
  /// Milliseconds the client is willing to wait, 0 = no deadline. The
  /// daemon sheds work whose deadline already passed (Errc::
  /// DeadlineExceeded) instead of generating a kernel nobody is waiting
  /// for.
  uint32_t DeadlineMs = 0;
  /// Request trace id for cross-process span correlation; 0 = untraced.
  uint64_t TraceId = 0;
};

std::string encodeRequest(const Request &R);
bool decodeRequest(const std::string &Payload, Request &R, std::string &Err);

/// Builds the service-side view of a request: GenOptions from the options
/// document and RequestOptions from the override fields. Fails (with
/// \p Err) on malformed options, unknown strategy names, or out-of-range
/// overrides.
bool requestToServiceArgs(const Request &R, GenOptions &Options,
                          service::RequestOptions &Req, std::string &Err);

/// Span-list cap of the ARTIFACT decoder: far above what a daemon ships
/// (obs::SpanCollector keeps at most 128), and each span costs >= 28
/// payload bytes, so a hostile count cannot reserve past the frame.
constexpr uint32_t MaxServerSpans = 4096;

/// An ARTIFACT payload: KernelArtifact, flattened for the wire.
struct ArtifactMsg {
  std::string Key;
  std::string FuncName;
  std::string IsaName;
  int NumParams = 0;
  bool Batched = false;
  std::string StrategyName; ///< "loop"/"fused" (batched artifacts only)
  /// Tuned batched dispatch width (>= 1; batched artifacts only): remote
  /// clients loading the shipped .so dispatch with this many threads by
  /// default.
  int BatchThreads = 1;
  std::vector<int> Choice;
  long StaticCost = 0;
  bool Measured = false;
  double MeasuredCycles = 0.0;
  std::string CSource;
  std::string SoBytes; ///< compiled shared object; empty when source-only
  /// Server-timing breakdown; the daemon sets it exactly when the request
  /// set WantTiming.
  std::optional<service::RequestTiming> Timing;
  /// The daemon's span list for this request (server clock timestamps),
  /// shipped alongside Timing so the client can merge one cross-process
  /// Chrome trace. The decoder rejects more than MaxServerSpans.
  std::vector<obs::Span> ServerSpans;
};

std::string encodeArtifact(const ArtifactMsg &A);
bool decodeArtifact(const std::string &Payload, ArtifactMsg &A,
                    std::string &Err);

/// Flattens a served artifact (plus the .so bytes the server read for it,
/// empty when source-only or not requested) into the wire shape.
ArtifactMsg artifactToMsg(const service::KernelArtifact &A,
                          std::string SoBytes);

//===----------------------------------------------------------------------===//
// Structured ERR payloads. A daemon-side failure rides the wire as
// "<errc-token>: <message>" (tokens from service::errcName), so clients
// can branch on the error class -- retry only transport failures, map
// parse errors to their own error model -- without parsing prose. A
// payload without a known token (or with "ok") does not decode.
//===----------------------------------------------------------------------===//

std::string encodeErrorPayload(service::Errc Code, const std::string &Msg);
bool decodeErrorPayload(const std::string &Payload, service::Errc &Code,
                        std::string &Msg);

} // namespace net
} // namespace slingen

#endif // SLINGEN_NET_PROTOCOL_H
