//===- Protocol.cpp - fleet cache wire protocol ---------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "fleet/Protocol.h"

#include "support/BinaryStream.h"

#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace proteus;
using namespace proteus::fleet;

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

std::vector<uint8_t> wire::encodeRequest(const Request &R) {
  ByteWriter W;
  W.writeU8(static_cast<uint8_t>(R.Kind));
  switch (R.Kind) {
  case Op::Ping:
  case Op::Clear:
  case Op::Stats:
    break;
  case Op::Lookup:
  case Op::Remove:
    W.writeU8(static_cast<uint8_t>(R.Blob));
    W.writeU64(R.Key);
    break;
  case Op::Publish:
    W.writeU8(static_cast<uint8_t>(R.Blob));
    W.writeU64(R.Key);
    W.writeBytes(R.Bytes);
    break;
  case Op::Acquire:
  case Op::Release:
    W.writeU64(R.Key);
    break;
  case Op::Batch:
    W.writeU32(static_cast<uint32_t>(R.BatchKeys.size()));
    for (const auto &[Kind, Key] : R.BatchKeys) {
      W.writeU8(Kind);
      W.writeU64(Key);
    }
    break;
  }
  return W.take();
}

std::optional<wire::Request>
wire::decodeRequest(const std::vector<uint8_t> &Payload) {
  ByteReader Rd(Payload);
  Request R;
  uint8_t OpByte = Rd.readU8();
  if (!Rd.ok() || OpByte < static_cast<uint8_t>(Op::Ping) ||
      OpByte > static_cast<uint8_t>(Op::Batch))
    return std::nullopt;
  R.Kind = static_cast<Op>(OpByte);
  switch (R.Kind) {
  case Op::Ping:
  case Op::Clear:
  case Op::Stats:
    break;
  case Op::Lookup:
  case Op::Remove: {
    uint8_t B = Rd.readU8();
    if (B > static_cast<uint8_t>(BlobKind::Tune))
      return std::nullopt;
    R.Blob = static_cast<BlobKind>(B);
    R.Key = Rd.readU64();
    break;
  }
  case Op::Publish: {
    uint8_t B = Rd.readU8();
    if (B > static_cast<uint8_t>(BlobKind::Tune))
      return std::nullopt;
    R.Blob = static_cast<BlobKind>(B);
    R.Key = Rd.readU64();
    R.Bytes = Rd.readBytes();
    break;
  }
  case Op::Acquire:
  case Op::Release:
    R.Key = Rd.readU64();
    break;
  case Op::Batch: {
    // Each entry takes 9 bytes, so a count the payload cannot hold is
    // rejected before it sizes anything.
    uint32_t N = Rd.readU32();
    if (!Rd.ok() || N > Rd.remaining() / 9)
      return std::nullopt;
    R.BatchKeys.reserve(N);
    for (uint32_t I = 0; I != N; ++I) {
      uint8_t B = Rd.readU8();
      uint64_t K = Rd.readU64();
      if (B > static_cast<uint8_t>(BlobKind::Tune))
        return std::nullopt;
      R.BatchKeys.emplace_back(B, K);
    }
    break;
  }
  }
  if (!Rd.ok() || Rd.remaining() != 0)
    return std::nullopt;
  return R;
}

std::vector<uint8_t> wire::encodeResponse(const Response &R) {
  ByteWriter W;
  W.writeU8(static_cast<uint8_t>(R.Code));
  if (R.Code == Status::Hit) {
    W.writeBytes(R.Bytes);
    return W.take();
  }
  if (R.Code == Status::Error) {
    W.writeString(R.Message);
    return W.take();
  }
  if (R.Code == Status::Ok && !R.Stats.empty()) {
    W.writeU8(1); // stats body present
    W.writeU32(static_cast<uint32_t>(R.Stats.size()));
    for (const auto &[Name, Value] : R.Stats) {
      W.writeString(Name);
      W.writeU64(Value);
    }
    return W.take();
  }
  if (R.Code == Status::Ok && !R.BatchResults.empty()) {
    W.writeU8(2); // batch body present
    W.writeU32(static_cast<uint32_t>(R.BatchResults.size()));
    for (const auto &[S, Bytes] : R.BatchResults) {
      W.writeU8(static_cast<uint8_t>(S));
      if (S == Status::Hit)
        W.writeBytes(Bytes);
    }
    return W.take();
  }
  if (R.Code == Status::Ok)
    W.writeU8(0); // empty Ok
  return W.take();
}

std::optional<wire::Response>
wire::decodeResponse(const std::vector<uint8_t> &Payload) {
  ByteReader Rd(Payload);
  Response R;
  uint8_t StatusByte = Rd.readU8();
  if (!Rd.ok() || StatusByte > static_cast<uint8_t>(Status::Error))
    return std::nullopt;
  R.Code = static_cast<Status>(StatusByte);
  switch (R.Code) {
  case Status::Hit:
    R.Bytes = Rd.readBytes();
    break;
  case Status::Error:
    R.Message = Rd.readString();
    break;
  case Status::Ok: {
    uint8_t Body = Rd.readU8();
    if (Body == 1) {
      uint32_t N = Rd.readU32(); // entries of at least 12 bytes
      if (!Rd.ok() || N > Rd.remaining() / 12)
        return std::nullopt;
      for (uint32_t I = 0; I != N; ++I) {
        std::string Name = Rd.readString();
        uint64_t Value = Rd.readU64();
        R.Stats.emplace_back(std::move(Name), Value);
      }
    } else if (Body == 2) {
      uint32_t N = Rd.readU32(); // entries of at least 1 byte
      if (!Rd.ok() || N > Rd.remaining())
        return std::nullopt;
      for (uint32_t I = 0; I != N; ++I) {
        uint8_t S = Rd.readU8();
        if (S > static_cast<uint8_t>(Status::Error))
          return std::nullopt;
        std::vector<uint8_t> Bytes;
        if (static_cast<Status>(S) == Status::Hit)
          Bytes = Rd.readBytes();
        R.BatchResults.emplace_back(static_cast<Status>(S), std::move(Bytes));
      }
    } else if (Body != 0) {
      return std::nullopt;
    }
    break;
  }
  case Status::Miss:
  case Status::Owner:
  case Status::InFlight:
    break;
  }
  if (!Rd.ok() || Rd.remaining() != 0)
    return std::nullopt;
  return R;
}

//===----------------------------------------------------------------------===//
// Unix-domain socket transport
//===----------------------------------------------------------------------===//

namespace {

bool fillSockAddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.size() + 1 > sizeof(Addr.sun_path))
    return false; // path too long for sun_path
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

bool writeAll(int Fd, const uint8_t *Data, size_t Size) {
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::send(Fd, Data + Off, Size - Off, MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool readAll(int Fd, uint8_t *Data, size_t Size) {
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::recv(Fd, Data + Off, Size - Off, 0);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

int net::listenUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  ::unlink(Path.c_str()); // stale socket from a previous daemon run
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int net::connectUnix(const std::string &Path, unsigned TimeoutMs) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  timeval Tv;
  Tv.tv_sec = TimeoutMs / 1000;
  Tv.tv_usec = (TimeoutMs % 1000) * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool net::writeFrame(int Fd, const std::vector<uint8_t> &Payload) {
  if (Payload.size() > wire::MaxFrameBytes)
    return false;
  uint8_t Len[4];
  uint32_t N = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Len[I] = static_cast<uint8_t>(N >> (8 * I));
  return writeAll(Fd, Len, sizeof(Len)) &&
         (Payload.empty() || writeAll(Fd, Payload.data(), Payload.size()));
}

std::optional<std::vector<uint8_t>> net::readFrame(int Fd) {
  uint8_t Len[4];
  if (!readAll(Fd, Len, sizeof(Len)))
    return std::nullopt;
  uint32_t N = 0;
  for (int I = 0; I < 4; ++I)
    N |= static_cast<uint32_t>(Len[I]) << (8 * I);
  if (N > wire::MaxFrameBytes)
    return std::nullopt;
  std::vector<uint8_t> Payload(N);
  if (N && !readAll(Fd, Payload.data(), N))
    return std::nullopt;
  return Payload;
}

void net::closeFd(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}
