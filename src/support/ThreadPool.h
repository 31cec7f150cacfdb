//===- ThreadPool.h - reusable fixed-size worker pool -----------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool: the JIT's background promotions
/// (jit/CompileService.h) and the cache daemon's lookup fan-out. Tasks are
/// plain std::function thunks run in FIFO order; the pool guarantees that
/// every enqueued task runs exactly once, that shutdown() drains the queue
/// before joining (no compile result is ever lost), and that waitIdle()
/// returns only when the queue is empty and no worker is executing a task —
/// the property JitRuntime::drain() relies on before reading final
/// statistics.
///
/// When a trace session is active (support/Trace.h) the pool emits
/// "pool.queue_depth" and "pool.active_workers" counter series plus one
/// "pool.task" span per executed task, which is how worker occupancy shows
/// up in chrome://tracing.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_SUPPORT_THREADPOOL_H
#define PROTEUS_SUPPORT_THREADPOOL_H

#include "support/Trace.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace proteus {

class ThreadPool {
public:
  /// Spawns \p Workers threads (at least one).
  explicit ThreadPool(unsigned Workers) {
    if (Workers == 0)
      Workers = 1;
    WorkerCount = Workers;
    Threads.reserve(Workers);
    for (unsigned I = 0; I != Workers; ++I)
      Threads.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() { shutdown(); }

  /// Schedules \p Task. Tasks enqueued after shutdown() began are rejected
  /// (returns false) — callers must not rely on fire-and-forget during
  /// teardown.
  bool enqueue(std::function<void()> Task) {
    {
      std::lock_guard<std::mutex> L(M);
      if (Stopping)
        return false;
      Queue.push_back(std::move(Task));
      ++Enqueued;
      trace::counterValue("pool.queue_depth", double(Queue.size()));
    }
    WorkCv.notify_one();
    return true;
  }

  /// Blocks until the queue is empty and every worker is idle. Tasks that
  /// enqueue follow-up tasks are waited for transitively.
  void waitIdle() {
    std::unique_lock<std::mutex> L(M);
    IdleCv.wait(L, [this] { return Queue.empty() && Active == 0; });
  }

  /// Drains the queue, then joins all workers. Idempotent.
  void shutdown() {
    {
      std::lock_guard<std::mutex> L(M);
      if (Stopping)
        return;
      Stopping = true;
    }
    WorkCv.notify_all();
    for (std::thread &T : Threads)
      T.join();
    Threads.clear();
  }

  unsigned workerCount() const { return WorkerCount; }

  uint64_t tasksEnqueued() const {
    std::lock_guard<std::mutex> L(M);
    return Enqueued;
  }

  uint64_t tasksCompleted() const {
    std::lock_guard<std::mutex> L(M);
    return Completed;
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> L(M);
        WorkCv.wait(L, [this] { return Stopping || !Queue.empty(); });
        if (Queue.empty())
          return; // stopping and fully drained
        Task = std::move(Queue.front());
        Queue.pop_front();
        ++Active;
        trace::counterValue("pool.queue_depth", double(Queue.size()));
        trace::counterValue("pool.active_workers", double(Active));
      }
      {
        trace::Span S("pool.task", "pool");
        Task();
      }
      {
        std::lock_guard<std::mutex> L(M);
        --Active;
        ++Completed;
        trace::counterValue("pool.active_workers", double(Active));
        if (Queue.empty() && Active == 0)
          IdleCv.notify_all();
      }
    }
  }

  mutable std::mutex M;
  std::condition_variable WorkCv;
  std::condition_variable IdleCv;
  std::deque<std::function<void()>> Queue;
  std::vector<std::thread> Threads;
  unsigned WorkerCount = 0;
  unsigned Active = 0;
  uint64_t Enqueued = 0;
  uint64_t Completed = 0;
  bool Stopping = false;
};

} // namespace proteus

#endif // PROTEUS_SUPPORT_THREADPOOL_H
