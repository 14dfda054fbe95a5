//===- support/File.h - small file helpers --------------------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-file reading and publication temporaries, shared by the JIT
/// (compiler logs, published objects) and the kernel cache disk tier
/// (persisted sources and metadata).
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SUPPORT_FILE_H
#define SLINGEN_SUPPORT_FILE_H

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace slingen {

/// The suffix of one writer's temporary beside a file it publishes by
/// rename: `.tmp<pid>_<n>`, distinct across processes and across writers
/// within a process (two services on one cache directory may publish the
/// same entry at once). Never ends in `.c`, `.so` or `.meta`, so disk-tier
/// scans skip in-flight temporaries.
inline std::string tempSuffix() {
  static std::atomic<unsigned> Seq{0};
  return ".tmp" + std::to_string(getpid()) + "_" +
         std::to_string(Seq.fetch_add(1, std::memory_order_relaxed));
}

/// Reads all of \p Path; \p Ok (when provided) reports whether the file
/// could be opened (an unreadable file yields an empty string).
inline std::string readFile(const std::string &Path, bool *Ok = nullptr) {
  std::ifstream In(Path);
  if (Ok)
    *Ok = static_cast<bool>(In);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace slingen

#endif // SLINGEN_SUPPORT_FILE_H
