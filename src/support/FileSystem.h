//===- FileSystem.h - file IO helpers --------------------------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small filesystem helpers backing the persistent code cache: atomic-enough
/// binary reads/writes, directory listing, and cleanup. All functions report
/// failure through their return value rather than aborting, because cache
/// storage problems are recoverable (the JIT simply recompiles).
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_FILESYSTEM_H
#define PROTEUS_SUPPORT_FILESYSTEM_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace proteus {
namespace fs {

/// Reads the entire file at \p Path; returns std::nullopt when it is missing,
/// is a directory or cannot be read.
std::optional<std::vector<uint8_t>> readFile(const std::string &Path);

/// Reads at most the first \p MaxBytes bytes of the file at \p Path (fewer
/// when it is shorter); std::nullopt when it is missing or unreadable.
std::optional<std::vector<uint8_t>> readFileHead(const std::string &Path,
                                                 size_t MaxBytes);

/// Writes \p Data to \p Path, replacing any existing file. Returns false on
/// IO failure.
bool writeFile(const std::string &Path, const std::vector<uint8_t> &Data);

/// Crash-safe replacement of \p Path: writes \p Data to a unique sibling
/// temporary file (\p Path + ".tmp-<pid>-<n>") and renames it over \p Path.
/// A crash mid-write leaves either the previous file or a stale .tmp-*
/// sibling, never a truncated \p Path. Returns false on IO failure.
bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Data);

/// Process-unique token ("<pid>-<counter>") used to build collision-free
/// temporary names (shared by writeFileAtomic and makeTempDirectory).
std::string uniqueNameToken();

/// Atomically creates \p Path with \p Data only if no file exists there yet
/// (O_CREAT|O_EXCL semantics — the cross-process mutual-exclusion primitive
/// behind the fleet cache's compile-claim lock files). Returns false when
/// the file already exists or on IO failure.
bool createFileExclusive(const std::string &Path,
                         const std::vector<uint8_t> &Data);

/// Returns true if a regular file exists at \p Path.
bool exists(const std::string &Path);

/// Creates \p Path (and parents) as a directory; returns false on failure.
bool createDirectories(const std::string &Path);

/// Removes the file at \p Path if present; returns true if it no longer
/// exists afterwards.
bool removeFile(const std::string &Path);

/// Lists regular files directly inside \p Dir (names, not full paths).
std::vector<std::string> listFiles(const std::string &Dir);

/// A directory entry with size and a monotonically comparable write time.
struct FileInfo {
  std::string Name;
  uint64_t Bytes = 0;
  int64_t WriteTimeNs = 0;
};

/// Lists regular files with sizes and write times (for LRU eviction of the
/// persistent code cache).
std::vector<FileInfo> listFilesWithInfo(const std::string &Dir);

/// Updates the write time of \p Path to "now" (LRU touch on cache hits).
void touchFile(const std::string &Path);

/// Creates a fresh unique temporary directory and returns its path.
std::string makeTempDirectory(const std::string &Prefix);

/// Removes \p Path recursively (files and subdirectories). A missing path
/// counts as success.
bool removeTree(const std::string &Path);

/// Nanoseconds elapsed since \p Path was last written, or std::nullopt if
/// it does not exist. Drives stale compile-claim detection: a lock file
/// older than the steal threshold belongs to a crashed owner.
std::optional<int64_t> fileAgeNs(const std::string &Path);

} // namespace fs
} // namespace proteus

#endif // PROTEUS_SUPPORT_FILESYSTEM_H
