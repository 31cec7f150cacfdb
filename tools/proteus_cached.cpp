//===- proteus_cached.cpp - shared JIT cache daemon -----------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The node-level shared cache service: every JIT process on a node points
// PROTEUS_CACHE_REMOTE=on / PROTEUS_CACHE_SOCKET at one of these and gets a
// shared, budget-evicted code cache with fleet-wide compile dedup
// and batched lookups.
//
//   proteus-cached --socket=/run/proteus/cached.sock --dir=/var/cache/proteus
//                  [--budget=BYTES] [--workers=4]
//                  [--policy=lru|lfu]
//
// --policy=lfu evicts the entries with the lowest hit count, read from each
// entry's frame (fleet/Entry.h), exactly as a daemon-less process over the
// same directory does; ties and --policy=lru go oldest-first.
//
// Runs until SIGINT/SIGTERM, then prints a stats summary and exits 0.
//
//===----------------------------------------------------------------------===//

#include "fleet/CacheServer.h"
#include "support/Env.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace proteus;

namespace {

std::atomic<bool> StopRequested{false};

void onSignal(int) { StopRequested.store(true); }

int usage(const char *Argv0) {
  std::string_view Policies = env::info(env::Knob::CachePolicy).Spellings;
  std::fprintf(stderr,
               "usage: %s --socket=PATH --dir=PATH [--budget=BYTES] "
               "[--workers=N] [--policy=%.*s]\n",
               Argv0, static_cast<int>(Policies.size()), Policies.data());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  fleet::CacheServerOptions Options;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto valueOf = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    uint64_t V;
    if (const char *S = valueOf("--socket=")) {
      Options.SocketPath = S;
    } else if (const char *S = valueOf("--dir=")) {
      Options.Dir = S;
    } else if (const char *S = valueOf("--budget=")) {
      if (!env::parseDecimal(S, V))
        return usage(Argv[0]);
      Options.BudgetBytes = V;
    } else if (const char *S = valueOf("--workers=")) {
      if (!env::parseDecimal(S, V) || V < 1 || V > 256)
        return usage(Argv[0]);
      Options.Workers = static_cast<unsigned>(V);
    } else if (const char *S = valueOf("--policy=")) {
      // Same spellings, in enum order, as PROTEUS_CACHE_POLICY.
      int Index = env::spellingIndex(env::Knob::CachePolicy, S);
      if (Index < 0)
        return usage(Argv[0]);
      Options.Policy = static_cast<fleet::EvictPolicy>(Index);
    } else {
      return usage(Argv[0]);
    }
  }
  if (Options.SocketPath.empty() || Options.Dir.empty())
    return usage(Argv[0]);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  auto Server = fleet::CacheServer::start(Options);
  if (!Server) {
    std::fprintf(stderr, "proteus-cached: cannot listen on %s\n",
                 Options.SocketPath.c_str());
    return 1;
  }
  std::fprintf(stderr, "proteus-cached: serving %s on %s%s\n",
               Options.Dir.c_str(), Options.SocketPath.c_str(),
               Options.BudgetBytes
                   ? (" (budget=" + std::to_string(Options.BudgetBytes) + ")")
                         .c_str()
                   : "");

  while (!StopRequested.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  fleet::BackendStats S = Server->backend().stats();
  std::fprintf(stderr,
               "proteus-cached: exiting — connections=%llu requests=%llu "
               "hits=%llu misses=%llu publishes=%llu publish_bytes=%llu "
               "evictions=%llu dedup_hits=%llu\n",
               static_cast<unsigned long long>(Server->connectionsAccepted()),
               static_cast<unsigned long long>(Server->requestsServed()),
               static_cast<unsigned long long>(S.Hits),
               static_cast<unsigned long long>(S.Misses),
               static_cast<unsigned long long>(S.Publishes),
               static_cast<unsigned long long>(S.PublishBytes),
               static_cast<unsigned long long>(S.Evictions),
               static_cast<unsigned long long>(S.DedupHits));
  Server->stop();
  return 0;
}
