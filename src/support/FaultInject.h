//===- support/FaultInject.h - named fault points for chaos testing -------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named fault points compiled into the normal
/// build. A hook site asks `fault::shouldFire("point")`; armed points fire
/// (optionally a bounded number of times), disarmed points cost one relaxed
/// atomic load -- the registry lock is only ever taken while at least one
/// fault is armed, so production binaries pay nothing.
///
/// Points are armed programmatically (tests) or from the environment:
///
///   SLINGEN_FAULTS="drop-connection:1,slow-generate:0:300"
///
/// Comma-separated `name[:count[:ms]]` specs -- `count` 0 (or omitted)
/// means "every time until disarmed", otherwise the point auto-disarms
/// after firing `count` times; `ms` is a point-specific parameter (stall /
/// sleep duration) read with `paramMs()`.
///
/// The points wired through the serving stack:
///
///   drop-connection   Wire writeFrame: shut down the socket mid-exchange
///   stall-read        Wire readFrame: sleep `ms` before reading
///   torn-write        KernelCache storeToDisk: publish a truncated .c
///   eio-on-store      KernelCache storeToDisk: fail as if the disk errored
///   slow-generate     KernelService produce: sleep `ms` before generating
///   corrupt-ir        service verifyBeforeCompile: verify a copy of the
///                     function with a broken register file
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SUPPORT_FAULTINJECT_H
#define SLINGEN_SUPPORT_FAULTINJECT_H

#include <string>

namespace slingen {
namespace fault {

/// True when any fault point is armed. The disarmed fast path for every
/// hook site; one relaxed atomic load.
bool anyArmed();

/// True when \p Point is armed and should fire now. Decrements a bounded
/// point's remaining count (auto-disarming at zero). Never fires while
/// nothing is armed.
bool shouldFire(const char *Point);

/// The `ms` parameter of \p Point (0 when unset or not armed). Read it
/// *before* shouldFire() when the point is count-bounded.
int paramMs(const char *Point);

/// Arms \p Point: fires \p Count times (0 = until disarmed) with
/// parameter \p Ms.
void arm(const std::string &Point, int Count = 0, int Ms = 0);

/// Disarms \p Point (no-op when not armed).
void disarm(const std::string &Point);

/// Disarms everything (test teardown).
void reset();

/// Arms every spec in `SLINGEN_FAULTS` (called once automatically on
/// first registry use; exposed for tests that set the variable late).
void armFromEnv();

} // namespace fault
} // namespace slingen

#endif // SLINGEN_SUPPORT_FAULTINJECT_H
