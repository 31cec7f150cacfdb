//===- FileSystem.cpp - file IO helpers -----------------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/FileSystem.h"

#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

namespace stdfs = std::filesystem;
using namespace proteus;

std::optional<std::vector<uint8_t>> fs::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  // libstdc++'s stream buffer throws on a failed read (EISDIR for a
  // directory, EIO), whatever the stream's exception mask.
  try {
    std::vector<uint8_t> Data((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
    if (In.bad())
      return std::nullopt;
    return Data;
  } catch (const std::ios_base::failure &) {
    return std::nullopt;
  }
}

std::optional<std::vector<uint8_t>> fs::readFileHead(const std::string &Path,
                                                     size_t MaxBytes) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return std::nullopt;
  std::vector<uint8_t> Head(MaxBytes);
  ssize_t N = ::pread(Fd, Head.data(), MaxBytes, 0);
  ::close(Fd);
  if (N < 0)
    return std::nullopt; // EISDIR for a directory, EIO
  Head.resize(static_cast<size_t>(N));
  return Head;
}

bool fs::writeFile(const std::string &Path, const std::vector<uint8_t> &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out.write(reinterpret_cast<const char *>(Data.data()),
            static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(Out);
}

std::string fs::uniqueNameToken() {
  static std::atomic<uint64_t> Counter{0};
  return std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1));
}

bool fs::createFileExclusive(const std::string &Path,
                             const std::vector<uint8_t> &Data) {
  int Fd = ::open(Path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (Fd < 0)
    return false;
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N <= 0) {
      ::close(Fd);
      ::unlink(Path.c_str());
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  ::close(Fd);
  return true;
}

bool fs::writeFileAtomic(const std::string &Path,
                         const std::vector<uint8_t> &Data) {
  std::string Tmp = Path + ".tmp-" + uniqueNameToken();
  bool Written = [&] {
    trace::Span Sp("fs.write_temp", "fs");
    return writeFile(Tmp, Data);
  }();
  if (!Written) {
    removeFile(Tmp);
    return false;
  }
  std::error_code EC;
  {
    // Over an existing file the rename also pays the filesystem's flush
    // of the replaced file (EXPERIMENTS "Cache write").
    trace::Span Sp("fs.rename", "fs");
    stdfs::rename(Tmp, Path, EC);
  }
  if (EC) {
    removeFile(Tmp);
    return false;
  }
  return true;
}

bool fs::exists(const std::string &Path) {
  std::error_code EC;
  return stdfs::is_regular_file(Path, EC);
}

bool fs::createDirectories(const std::string &Path) {
  std::error_code EC;
  stdfs::create_directories(Path, EC);
  return !EC || stdfs::is_directory(Path, EC);
}

bool fs::removeFile(const std::string &Path) {
  std::error_code EC;
  stdfs::remove(Path, EC);
  return !stdfs::exists(Path, EC);
}

std::vector<std::string> fs::listFiles(const std::string &Dir) {
  std::vector<std::string> Names;
  std::error_code EC;
  for (const auto &Entry : stdfs::directory_iterator(Dir, EC)) {
    if (Entry.is_regular_file(EC))
      Names.push_back(Entry.path().filename().string());
  }
  return Names;
}

std::vector<fs::FileInfo> fs::listFilesWithInfo(const std::string &Dir) {
  std::vector<FileInfo> Out;
  std::error_code EC;
  for (const auto &Entry : stdfs::directory_iterator(Dir, EC)) {
    if (!Entry.is_regular_file(EC))
      continue;
    FileInfo Info;
    Info.Name = Entry.path().filename().string();
    Info.Bytes = Entry.file_size(EC);
    auto T = Entry.last_write_time(EC);
    Info.WriteTimeNs = static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            T.time_since_epoch())
            .count());
    Out.push_back(std::move(Info));
  }
  return Out;
}

void fs::touchFile(const std::string &Path) {
  std::error_code EC;
  stdfs::last_write_time(Path, stdfs::file_time_type::clock::now(), EC);
}

std::optional<int64_t> fs::fileAgeNs(const std::string &Path) {
  std::error_code EC;
  auto T = stdfs::last_write_time(Path, EC);
  if (EC)
    return std::nullopt;
  auto Now = stdfs::file_time_type::clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Now - T).count();
}

bool fs::removeTree(const std::string &Path) {
  std::error_code EC;
  stdfs::remove_all(Path, EC);
  return !stdfs::exists(Path, EC);
}

std::string fs::makeTempDirectory(const std::string &Prefix) {
  std::error_code EC;
  stdfs::path Base = stdfs::temp_directory_path(EC);
  if (EC)
    Base = ".";
  for (;;) {
    stdfs::path Candidate = Base / (Prefix + "-" + uniqueNameToken());
    if (stdfs::create_directories(Candidate, EC) && !EC)
      return Candidate.string();
  }
}
