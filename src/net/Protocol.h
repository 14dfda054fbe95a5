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
/// Decoders validate strictly (no trailing bytes, no unknown strategy
/// names) and fail with a message rather than guessing: a frame that
/// decodes is a frame whose every field is meaningful.
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
  /// Ask the daemon to attach its per-request phase breakdown to the
  /// response (ArtifactMsg::TimingText). Encoded as a trailing field only
  /// when set, so requests from clients that never ask are byte-identical
  /// to the pre-timing wire format and old daemons keep decoding them;
  /// old daemons receiving a want-timing request reject it, which the
  /// facade treats as "no breakdown available", not a failure.
  bool WantTiming = false;
  /// Milliseconds the client is willing to wait, 0 = no deadline. The
  /// daemon sheds work whose deadline already passed (Errc::
  /// DeadlineExceeded) instead of generating a kernel nobody is waiting
  /// for. Rides the same trailing-field scheme as WantTiming: when set,
  /// the want-timing byte is always written (0 or 1) followed by the u32
  /// deadline, so the decoder distinguishes the tails by length --
  /// deadline-free requests stay byte-identical to the older formats, and
  /// an old daemon rejecting the tail makes the client retry without it.
  uint32_t DeadlineMs = 0;
  /// Request trace id for cross-process span correlation; 0 = untraced.
  /// Extends the trailing-field scheme a third step: when nonzero, the
  /// full tail is always written -- want-timing byte, u32 deadline (0
  /// allowed in this form only), u64 trace id (nonzero), u64 span id --
  /// so the decoder again tells the three tails apart by length (1, 5,
  /// or 21 bytes). Old daemons reject the long tail; the client strips
  /// the ids and retries once, exactly the DeadlineMs downgrade dance.
  uint64_t TraceId = 0;
  /// The client's root span id under TraceId (informational; the daemon
  /// currently echoes it into nothing but future parenting may use it).
  uint64_t SpanId = 0;
};

std::string encodeRequest(const Request &R);
bool decodeRequest(const std::string &Payload, Request &R, std::string &Err);

/// Builds the service-side view of a request: GenOptions from the options
/// document and RequestOptions from the override fields. Fails (with
/// \p Err) on malformed options, unknown strategy names, or out-of-range
/// overrides.
bool requestToServiceArgs(const Request &R, GenOptions &Options,
                          service::RequestOptions &Req, std::string &Err);

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
  /// Server-timing breakdown (a serializeRequestTiming document), present
  /// only when the request set WantTiming and the daemon understands it.
  /// Encoded as a trailing field only when non-empty: responses without it
  /// are byte-identical to the pre-timing format, so old clients decode
  /// new daemons and new clients decode old daemons (absence simply means
  /// "no breakdown").
  std::string TimingText;
  /// The daemon's span list for this request (server clock timestamps),
  /// shipped so the client can merge one cross-process Chrome trace.
  /// Encoded after TimingText and only when TimingText is also present --
  /// the daemon attaches spans only for requests that sent both
  /// WantTiming and a trace id, and a trace id is precisely what old
  /// clients never send, so they never see this field.
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
// parse errors to their own error model -- without parsing prose. The
// payload stays human-readable, and messages from pre-code daemons (no
// recognized token prefix) decode with Code unset.
//===----------------------------------------------------------------------===//

std::string encodeErrorPayload(service::Errc Code, const std::string &Msg);
void decodeErrorPayload(const std::string &Payload,
                        std::optional<service::Errc> &Code, std::string &Msg);

} // namespace net
} // namespace slingen

#endif // SLINGEN_NET_PROTOCOL_H
