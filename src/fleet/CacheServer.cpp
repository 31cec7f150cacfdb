//===- CacheServer.cpp - shared cache service -----------------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "fleet/CacheServer.h"

#include "fleet/Protocol.h"
#include "support/ThreadPool.h"

#include <condition_variable>

#include <sys/socket.h>
#include <unistd.h>

using namespace proteus;
using namespace proteus::fleet;

CacheServer::CacheServer(CacheServerOptions OptionsIn)
    : Options(std::move(OptionsIn)) {
  LocalBackendOptions BO;
  BO.BudgetBytes = Options.BudgetBytes;
  BO.Policy = Options.Policy;
  Backend = std::make_unique<LocalDirBackend>(Options.Dir, BO);
  Pool = std::make_unique<ThreadPool>(Options.Workers);
}

std::unique_ptr<CacheServer> CacheServer::start(CacheServerOptions Options) {
  std::unique_ptr<CacheServer> S(new CacheServer(std::move(Options)));
  S->ListenFd = net::listenUnix(S->Options.SocketPath);
  if (S->ListenFd < 0)
    return nullptr;
  S->AcceptThread = std::thread([Srv = S.get()] { Srv->acceptLoop(); });
  return S;
}

CacheServer::~CacheServer() { stop(); }

void CacheServer::stop() {
  if (Stopping.exchange(true))
    return;
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int Fd : ConnFds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  if (AcceptThread.joinable())
    AcceptThread.join();
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  net::closeFd(ListenFd);
  ListenFd = -1;
  ::unlink(Options.SocketPath.c_str());
  Pool->shutdown();
}

void CacheServer::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (Stopping.load())
        return;
      if (errno == EINTR)
        continue;
      return;
    }
    if (Stopping.load()) {
      ::close(Fd);
      return;
    }
    NConnections.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(ConnMutex);
    ConnFds.push_back(Fd);
    ConnThreads.emplace_back([this, Fd] { serveConnection(Fd); });
  }
}

void CacheServer::releaseClaimsOf(uint64_t ConnId) {
  std::vector<uint64_t> Owned;
  {
    std::lock_guard<std::mutex> Lock(ClaimMutex);
    for (auto It = Claims.begin(); It != Claims.end();) {
      if (It->second == ConnId) {
        Owned.push_back(It->first);
        It = Claims.erase(It);
      } else {
        ++It;
      }
    }
  }
  // Drop the on-disk half of each claim too, so lock-file-only processes
  // sharing the directory stop seeing the dead client as in-flight.
  for (uint64_t Key : Owned)
    Backend->endCompile(Key);
}

void CacheServer::serveConnection(int Fd) {
  const uint64_t ConnId = NextConnId.fetch_add(1, std::memory_order_relaxed);
  while (!Stopping.load()) {
    auto Payload = net::readFrame(Fd);
    if (!Payload)
      break; // client disconnected (or sent garbage framing)
    NRequests.fetch_add(1, std::memory_order_relaxed);

    wire::Response Resp;
    auto Req = wire::decodeRequest(*Payload);
    if (!Req) {
      Resp.Code = wire::Status::Error;
      Resp.Message = "malformed request";
      if (!net::writeFrame(Fd, wire::encodeResponse(Resp)))
        break;
      continue;
    }

    switch (Req->Kind) {
    case wire::Op::Ping:
      Resp.Code = wire::Status::Ok;
      break;

    case wire::Op::Lookup: {
      auto Blob = Backend->lookup(Req->Blob, Req->Key);
      if (Blob) {
        Resp.Code = wire::Status::Hit;
        Resp.Bytes = std::move(Blob->Bytes);
      } else {
        Resp.Code = wire::Status::Miss;
      }
      break;
    }

    case wire::Op::Publish: {
      bool Ok = Backend->publish(Req->Blob, Req->Key, Req->Bytes);
      Resp.Code = Ok ? wire::Status::Ok : wire::Status::Error;
      if (!Ok)
        Resp.Message = "publish failed";
      // An owner's publish completes its compile: release the claim so
      // waiters' next lookup-and-acquire round sees the entry, not the
      // in-flight marker.
      if (Ok && Req->Blob == BlobKind::Code) {
        bool Owned = false;
        {
          std::lock_guard<std::mutex> Lock(ClaimMutex);
          auto It = Claims.find(Req->Key);
          if (It != Claims.end() && It->second == ConnId) {
            Claims.erase(It);
            Owned = true;
          }
        }
        if (Owned)
          Backend->endCompile(Req->Key);
      }
      break;
    }

    case wire::Op::Acquire: {
      std::unique_lock<std::mutex> Lock(ClaimMutex);
      auto It = Claims.find(Req->Key);
      if (It != Claims.end()) {
        Resp.Code = It->second == ConnId ? wire::Status::Owner
                                         : wire::Status::InFlight;
        break;
      }
      // Take the on-disk lock as well: processes running without the
      // daemon on the same directory honor the same claim.
      Lock.unlock();
      CompileClaim C = Backend->beginCompile(Req->Key);
      Lock.lock();
      if (C == CompileClaim::Owner && !Claims.count(Req->Key)) {
        Claims[Req->Key] = ConnId;
        Resp.Code = wire::Status::Owner;
      } else {
        if (C == CompileClaim::Owner)
          Backend->endCompile(Req->Key); // raced another connection
        Resp.Code = wire::Status::InFlight;
      }
      break;
    }

    case wire::Op::Release: {
      bool Owned = false;
      {
        std::lock_guard<std::mutex> Lock(ClaimMutex);
        auto It = Claims.find(Req->Key);
        if (It != Claims.end() && It->second == ConnId) {
          Claims.erase(It);
          Owned = true;
        }
      }
      if (Owned)
        Backend->endCompile(Req->Key);
      Resp.Code = wire::Status::Ok;
      break;
    }

    case wire::Op::Remove:
      Resp.Code = Backend->remove(Req->Blob, Req->Key) ? wire::Status::Ok
                                                       : wire::Status::Error;
      break;

    case wire::Op::Clear:
      Backend->clear();
      Resp.Code = wire::Status::Ok;
      break;

    case wire::Op::Stats: {
      BackendStats S = Backend->stats();
      Resp.Code = wire::Status::Ok;
      Resp.Stats = {
          {"lookups", S.Lookups},
          {"hits", S.Hits},
          {"misses", S.Misses},
          {"publishes", S.Publishes},
          {"publish_bytes", S.PublishBytes},
          {"evictions", S.Evictions},
          {"dedup_hits", S.DedupHits},
          {"connections", connectionsAccepted()},
          {"requests", requestsServed()},
          {"total_bytes", Backend->totalBytes()},
      };
      break;
    }

    case wire::Op::Batch: {
      // Fan the sub-lookups across the shared pool; answers keep request
      // order because the response frame is assembled after the last one.
      const size_t N = Req->BatchKeys.size();
      NRequests.fetch_add(N, std::memory_order_relaxed);
      std::vector<std::pair<wire::Status, std::vector<uint8_t>>> Results(N);
      std::mutex DoneMutex;
      std::condition_variable DoneCv;
      size_t Pending = N;
      for (size_t I = 0; I != N; ++I) {
        auto Work = [&, I] {
          auto [KindByte, Key] = Req->BatchKeys[I];
          auto Blob = Backend->lookup(static_cast<BlobKind>(KindByte), Key);
          if (Blob)
            Results[I] = {wire::Status::Hit, std::move(Blob->Bytes)};
          else
            Results[I] = {wire::Status::Miss, {}};
          std::lock_guard<std::mutex> Lock(DoneMutex);
          if (--Pending == 0)
            DoneCv.notify_one();
        };
        if (!Pool->enqueue(Work))
          Work(); // pool is shutting down — serve inline
      }
      {
        std::unique_lock<std::mutex> Lock(DoneMutex);
        DoneCv.wait(Lock, [&] { return Pending == 0; });
      }
      Resp.Code = wire::Status::Ok;
      Resp.BatchResults = std::move(Results);
      break;
    }
    }

    if (!net::writeFrame(Fd, wire::encodeResponse(Resp)))
      break;
  }
  releaseClaimsOf(ConnId);
  net::closeFd(Fd);
}
