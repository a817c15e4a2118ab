#include "exec/thread_pool.h"

#include <atomic>
#include <utility>

namespace lht::exec {

namespace {
// Index of the worker running on this thread, SIZE_MAX off-pool. Lets
// submit() route a worker's own submissions back onto its own deque.
thread_local size_t tlsWorkerIndex = static_cast<size_t>(-1);
}  // namespace

WorkStealingPool::WorkStealingPool(size_t threads) {
  const size_t n = threads == 0 ? 1 : threads;
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) queues_.push_back(std::make_unique<Worker>());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  try {
    wait();
  } catch (...) {
    // Destructor cannot propagate; callers who care call wait() first.
  }
  stop_.store(true, std::memory_order_release);
  notifyUnderControl(workCv_, /*all=*/true);
  for (auto& t : workers_) t.join();
}

void WorkStealingPool::submit(Task task) {
  size_t target = tlsWorkerIndex;
  if (target >= queues_.size()) {
    target = nextQueue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->deque.push_back(std::move(task));
  }
  notifyUnderControl(workCv_, /*all=*/false);
}

void WorkStealingPool::notifyUnderControl(std::condition_variable& cv,
                                          bool all) {
  // The waiters' predicates read atomics that change without the lock, so
  // only the lock orders this notify after a waiter's check-then-sleep.
  { std::lock_guard<std::mutex> lock(controlMutex_); }
  if (all) {
    cv.notify_all();
  } else {
    cv.notify_one();
  }
}

WorkStealingPool::Task WorkStealingPool::findTask(size_t self) {
  {
    Worker& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      Task t = std::move(own.deque.back());
      own.deque.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return t;
    }
  }
  for (size_t i = 1; i < queues_.size(); ++i) {
    Worker& victim = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.deque.empty()) {
      Task t = std::move(victim.deque.front());
      victim.deque.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  return nullptr;
}

void WorkStealingPool::workerLoop(size_t self) {
  tlsWorkerIndex = self;
  for (;;) {
    Task task = findTask(self);
    if (task == nullptr) {
      std::unique_lock<std::mutex> lock(controlMutex_);
      workCv_.wait(lock, [&] {
        if (stop_.load(std::memory_order_acquire)) return true;
        // Wake only for tasks actually sitting in a deque (pending_ also
        // counts tasks mid-execution, which would make idle workers spin).
        // A submit may have raced the empty scan above; re-probing here
        // under the control lock closes that window. The deque mutexes
        // are never held here, so the lock order is control -> deque only.
        return queued_.load(std::memory_order_acquire) > 0;
      });
      if (stop_.load(std::memory_order_acquire)) return;
      continue;  // contend for the task
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(controlMutex_);
      if (exception_ == nullptr) exception_ = std::current_exception();
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      notifyUnderControl(idleCv_, /*all=*/true);
    }
  }
}

void WorkStealingPool::wait() {
  std::unique_lock<std::mutex> lock(controlMutex_);
  idleCv_.wait(lock,
               [&] { return pending_.load(std::memory_order_acquire) == 0; });
  if (exception_ != nullptr) {
    std::exception_ptr e = std::exchange(exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace lht::exec
