// Work-stealing thread pool — the execution substrate for the concurrent
// client fleet (DESIGN.md §10).
//
// Each worker owns a deque: it pushes and pops at the back (LIFO, cache-
// warm), and idle workers steal from the front of a victim's deque (FIFO,
// oldest task — the classic work-stealing discipline). Tasks submitted
// from a worker thread land on that worker's own deque, so a chunked
// self-resubmitting task (the fleet's per-client op stream) tends to stay
// on the thread that already has the client's state in cache; tasks
// submitted from outside are sprayed round-robin.
//
// Exceptions thrown by tasks are captured; the first one is rethrown from
// wait() (subsequent ones are dropped, their tasks still count as done).
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace lht::exec {

class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (at least 1).
  explicit WorkStealingPool(size_t threads);
  /// Waits for all submitted work, then joins the workers. Pending
  /// exceptions are swallowed here — call wait() first if you care.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueues a task. Callable from any thread, including from inside a
  /// running task (self-resubmission is the fleet's main pattern).
  void submit(Task task);

  /// Blocks until every submitted task (including ones submitted by
  /// running tasks) has finished. Rethrows the first task exception, if
  /// any (the exception slot is cleared, so the pool remains usable).
  void wait();

  [[nodiscard]] size_t threadCount() const { return workers_.size(); }
  /// Tasks executed by a worker that did not own their deque.
  [[nodiscard]] common::u64 stealCount() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<Task> deque;  // owner: back; thieves: front
  };

  void workerLoop(size_t self);
  /// Pops from own back, else steals from a victim's front. Null when
  /// every deque is empty.
  Task findTask(size_t self);
  /// Notifies `cv` (one waiter, or all) after passing through
  /// controlMutex_, so the notify cannot be lost between a waiter's
  /// predicate check and its sleep.
  void notifyUnderControl(std::condition_variable& cv, bool all);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex controlMutex_;              // guards cv waits + exception_
  std::condition_variable workCv_;       // "a task was submitted"
  std::condition_variable idleCv_;       // "pending_ may have hit zero"
  std::exception_ptr exception_;

  std::atomic<size_t> pending_{0};  // submitted, not yet finished
  std::atomic<size_t> queued_{0};   // sitting in a deque right now
  std::atomic<bool> stop_{false};
  std::atomic<common::u64> steals_{0};
  std::atomic<size_t> nextQueue_{0};  // round-robin for external submits
};

}  // namespace lht::exec
