//===- RemoteBackend.cpp - shared cache service client --------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "fleet/RemoteBackend.h"

#include "support/Metrics.h"

using namespace proteus;
using namespace proteus::fleet;

namespace {

metrics::Counter &fleetCounter(const char *Name) {
  return metrics::processRegistry().counter(Name);
}

} // namespace

RemoteCacheBackend::RemoteCacheBackend(RemoteBackendOptions OptionsIn)
    : Options(std::move(OptionsIn)) {}

RemoteCacheBackend::~RemoteCacheBackend() {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  dropConnectionLocked();
}

LocalDirBackend &RemoteCacheBackend::fallback() {
  // Lazily constructed: a healthy fleet never touches the local directory
  // from the client side (the daemon owns it).
  std::lock_guard<std::mutex> Lock(ConnMutex);
  if (!FallbackBackend)
    FallbackBackend = std::make_unique<LocalDirBackend>(Options.FallbackDir,
                                                        Options.Fallback);
  return *FallbackBackend;
}

bool RemoteCacheBackend::ensureConnectedLocked() {
  if (Fd >= 0)
    return true;
  if (DaemonDown.load(std::memory_order_relaxed))
    return false;
  Fd = net::connectUnix(Options.SocketPath, Options.TimeoutMs);
  if (Fd < 0) {
    DaemonDown.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void RemoteCacheBackend::dropConnectionLocked() {
  net::closeFd(Fd);
  Fd = -1;
}

std::optional<wire::Response> RemoteCacheBackend::rpc(const wire::Request &R) {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  if (!ensureConnectedLocked())
    return std::nullopt;
  if (!net::writeFrame(Fd, wire::encodeRequest(R))) {
    dropConnectionLocked();
    DaemonDown.store(true, std::memory_order_relaxed);
    return std::nullopt;
  }
  auto Payload = net::readFrame(Fd);
  if (!Payload) {
    dropConnectionLocked();
    DaemonDown.store(true, std::memory_order_relaxed);
    return std::nullopt;
  }
  auto Resp = wire::decodeResponse(*Payload);
  if (!Resp) {
    dropConnectionLocked();
    DaemonDown.store(true, std::memory_order_relaxed);
    return std::nullopt;
  }
  return Resp;
}

std::optional<Blob> RemoteCacheBackend::lookup(BlobKind Kind, uint64_t Key) {
  NLookups.fetch_add(1, std::memory_order_relaxed);
  metrics::ScopedTimer T(
      metrics::processRegistry().timer("fleetcache.lookup_seconds"));

  if (DaemonDown.load(std::memory_order_relaxed)) {
    NFallbackOps.fetch_add(1, std::memory_order_relaxed);
    fleetCounter("fleetcache.fallback_ops").add();
    auto B = fallback().lookup(Kind, Key);
    if (B) {
      NHits.fetch_add(1, std::memory_order_relaxed);
      fleetCounter("fleetcache.hits").add();
    } else {
      NMisses.fetch_add(1, std::memory_order_relaxed);
      fleetCounter("fleetcache.misses").add();
    }
    return B;
  }

  // Group-commit: queue the lookup; the first waiter becomes the flusher
  // and carries everyone queued behind it in one Batch round-trip.
  auto P = std::make_shared<PendingLookup>();
  P->Kind = Kind;
  P->Key = Key;
  bool IAmFlusher;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Pending.push_back(P);
    IAmFlusher = !FlusherActive;
    if (IAmFlusher)
      FlusherActive = true;
  }

  if (IAmFlusher) {
    for (;;) {
      std::vector<std::shared_ptr<PendingLookup>> Window;
      {
        std::lock_guard<std::mutex> Lock(QueueMutex);
        if (Pending.empty()) {
          FlusherActive = false;
          break;
        }
        Window.assign(Pending.begin(), Pending.end());
        Pending.clear();
      }

      wire::Request Req;
      Req.Kind = wire::Op::Batch;
      Req.BatchKeys.reserve(Window.size());
      for (const auto &W : Window)
        Req.BatchKeys.emplace_back(static_cast<uint8_t>(W->Kind), W->Key);
      if (Window.size() > 1) {
        NBatchedLookups.fetch_add(1, std::memory_order_relaxed);
        fleetCounter("fleetcache.batched_lookups").add();
      }

      auto Resp = rpc(Req);
      {
        std::lock_guard<std::mutex> Lock(QueueMutex);
        for (size_t I = 0; I != Window.size(); ++I) {
          PendingLookup &W = *Window[I];
          if (Resp && Resp->Code == wire::Status::Ok &&
              I < Resp->BatchResults.size() &&
              Resp->BatchResults[I].first == wire::Status::Hit) {
            W.Hit = true;
            W.Bytes = std::move(Resp->BatchResults[I].second);
          }
          W.Done = true;
        }
      }
      QueueCv.notify_all();
      if (!Resp)
        break; // transport died; DaemonDown is set, stop flushing
    }
    // If the transport died with requests still queued, fail them so their
    // threads retry on the fallback instead of blocking forever.
    if (DaemonDown.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      FlusherActive = false;
      for (const auto &W : Pending)
        W->Done = true;
      Pending.clear();
      QueueCv.notify_all();
    }
  } else {
    std::unique_lock<std::mutex> Lock(QueueMutex);
    QueueCv.wait(Lock, [&] { return P->Done; });
  }

  if (!P->Done || (!P->Hit && DaemonDown.load(std::memory_order_relaxed))) {
    // The daemon vanished under this lookup: answer from the fallback.
    NFallbackOps.fetch_add(1, std::memory_order_relaxed);
    fleetCounter("fleetcache.fallback_ops").add();
    auto B = fallback().lookup(Kind, Key);
    if (B) {
      NHits.fetch_add(1, std::memory_order_relaxed);
      fleetCounter("fleetcache.hits").add();
    } else {
      NMisses.fetch_add(1, std::memory_order_relaxed);
      fleetCounter("fleetcache.misses").add();
    }
    return B;
  }

  if (P->Hit) {
    NHits.fetch_add(1, std::memory_order_relaxed);
    fleetCounter("fleetcache.hits").add();
    Blob B;
    B.Bytes = std::move(P->Bytes);
    B.Remote = true;
    return B;
  }
  NMisses.fetch_add(1, std::memory_order_relaxed);
  fleetCounter("fleetcache.misses").add();
  return std::nullopt;
}

bool RemoteCacheBackend::publish(BlobKind Kind, uint64_t Key,
                                 const std::vector<uint8_t> &Bytes) {
  NPublishes.fetch_add(1, std::memory_order_relaxed);
  NPublishBytes.fetch_add(Bytes.size(), std::memory_order_relaxed);
  fleetCounter("fleetcache.publish_bytes").add(Bytes.size());
  if (!DaemonDown.load(std::memory_order_relaxed)) {
    wire::Request Req;
    Req.Kind = wire::Op::Publish;
    Req.Blob = Kind;
    Req.Key = Key;
    Req.Bytes = Bytes;
    auto Resp = rpc(Req);
    if (Resp)
      return Resp->Code == wire::Status::Ok;
  }
  NFallbackOps.fetch_add(1, std::memory_order_relaxed);
  fleetCounter("fleetcache.fallback_ops").add();
  return fallback().publish(Kind, Key, Bytes);
}

bool RemoteCacheBackend::remove(BlobKind Kind, uint64_t Key) {
  if (!DaemonDown.load(std::memory_order_relaxed)) {
    wire::Request Req;
    Req.Kind = wire::Op::Remove;
    Req.Blob = Kind;
    Req.Key = Key;
    auto Resp = rpc(Req);
    if (Resp)
      return Resp->Code == wire::Status::Ok;
  }
  NFallbackOps.fetch_add(1, std::memory_order_relaxed);
  return fallback().remove(Kind, Key);
}

void RemoteCacheBackend::clear() {
  if (!DaemonDown.load(std::memory_order_relaxed)) {
    wire::Request Req;
    Req.Kind = wire::Op::Clear;
    if (rpc(Req))
      return;
  }
  NFallbackOps.fetch_add(1, std::memory_order_relaxed);
  fallback().clear();
}

uint64_t RemoteCacheBackend::totalBytes() {
  if (!DaemonDown.load(std::memory_order_relaxed)) {
    wire::Request Req;
    Req.Kind = wire::Op::Stats;
    auto Resp = rpc(Req);
    if (Resp && Resp->Code == wire::Status::Ok)
      for (const auto &[Name, Value] : Resp->Stats)
        if (Name == "total_bytes")
          return Value;
  }
  NFallbackOps.fetch_add(1, std::memory_order_relaxed);
  return fallback().totalBytes();
}

CompileClaim RemoteCacheBackend::beginCompile(uint64_t Key) {
  if (!DaemonDown.load(std::memory_order_relaxed)) {
    wire::Request Req;
    Req.Kind = wire::Op::Acquire;
    Req.Key = Key;
    auto Resp = rpc(Req);
    if (Resp) {
      if (Resp->Code == wire::Status::Owner)
        return CompileClaim::Owner;
      NDedupHits.fetch_add(1, std::memory_order_relaxed);
      fleetCounter("fleetcache.remote_dedup").add();
      return CompileClaim::InFlightElsewhere;
    }
  }
  NFallbackOps.fetch_add(1, std::memory_order_relaxed);
  fleetCounter("fleetcache.fallback_ops").add();
  CompileClaim C = fallback().beginCompile(Key);
  if (C == CompileClaim::InFlightElsewhere)
    fleetCounter("fleetcache.remote_dedup").add();
  return C;
}

void RemoteCacheBackend::endCompile(uint64_t Key) {
  if (!DaemonDown.load(std::memory_order_relaxed)) {
    wire::Request Req;
    Req.Kind = wire::Op::Release;
    Req.Key = Key;
    if (rpc(Req))
      return;
  }
  fallback().endCompile(Key);
}

BackendStats RemoteCacheBackend::stats() const {
  BackendStats S;
  S.Lookups = NLookups.load(std::memory_order_relaxed);
  S.Hits = NHits.load(std::memory_order_relaxed);
  S.Misses = NMisses.load(std::memory_order_relaxed);
  S.Publishes = NPublishes.load(std::memory_order_relaxed);
  S.PublishBytes = NPublishBytes.load(std::memory_order_relaxed);
  S.DedupHits = NDedupHits.load(std::memory_order_relaxed);
  S.FallbackOps = NFallbackOps.load(std::memory_order_relaxed);
  S.BatchedLookups = NBatchedLookups.load(std::memory_order_relaxed);
  return S;
}

std::vector<std::pair<std::string, uint64_t>>
RemoteCacheBackend::remoteStats() {
  if (DaemonDown.load(std::memory_order_relaxed))
    return {};
  wire::Request Req;
  Req.Kind = wire::Op::Stats;
  auto Resp = rpc(Req);
  if (!Resp || Resp->Code != wire::Status::Ok)
    return {};
  return Resp->Stats;
}
