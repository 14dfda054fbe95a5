//===- slingen/BatchStrategy.h - batched iteration strategies --------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched codegen strategy enum, standalone so the cache/runtime tier
/// (service/KernelCache.h) can name it without depending on the full
/// generator API. The emission functions it selects between live in
/// slingen/SLinGen.h.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SLINGEN_BATCHSTRATEGY_H
#define SLINGEN_SLINGEN_BATCHSTRATEGY_H

#include <optional>
#include <string>

namespace slingen {

/// How a `<name>_batch(int count, ...)` entry point iterates its instances.
enum class BatchStrategy {
  ScalarLoop, ///< loop over instances, one single-instance call each
  /// One vector lane per instance, reading the batch ABI directly: the
  /// widened kernel's loads gather lane-strided instance data and its
  /// stores scatter results back, so no layout transposes (and no scratch
  /// blocks) bracket the block kernel.
  InstanceParallelFused,
  Auto, ///< service picks: measured when possible, else modeled
};

/// Stable short names ("loop", "fused", "auto") for flags and .meta files.
const char *batchStrategyName(BatchStrategy S);
/// Inverse of batchStrategyName; returns std::nullopt on unknown names.
std::optional<BatchStrategy> batchStrategyByName(const std::string &Name);

} // namespace slingen

#endif // SLINGEN_SLINGEN_BATCHSTRATEGY_H
