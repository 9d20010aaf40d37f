// worker_pool.hpp — the engine's one fork/join executor.
//
// ChannelFarm and FleetSupervisor both advance a list of channels per step
// on a fixed set of worker threads. run(n, body) publishes one batch under a
// mutex and bumps a generation counter; the workers race down an atomic
// cursor calling body(item, worker), and the last one out wakes the caller.
// Bodies run with no lock held. With one worker there are no threads at all:
// run() loops on the calling thread, which doubles as the reference
// configuration the determinism tests compare against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ascp::engine {

class WorkerPool {
 public:
  using Body = std::function<void(std::size_t item, unsigned worker)>;

  /// `workers` <= 1 runs every batch inline on the calling thread.
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of distinct `worker` indices body() can see (>= 1).
  unsigned workers() const {
    return threads_.empty() ? 1u : static_cast<unsigned>(threads_.size());
  }

  /// Call body(i, w) once for every i in [0, n), w < workers(), and return
  /// when all calls have finished. An exception thrown by a body on a worker
  /// thread is rethrown here after the batch completes (the first one wins).
  void run(std::size_t n, const Body& body);

 private:
  void worker_loop(unsigned worker);

  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< guarded by m_
  std::size_t active_ = 0;        ///< workers still in this batch; guarded by m_
  bool stop_ = false;             ///< guarded by m_
  std::exception_ptr error_;      ///< first body exception; guarded by m_
  const Body* body_ = nullptr;    ///< published under m_, read after the wait
  std::size_t n_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::vector<std::thread> threads_;
};

}  // namespace ascp::engine
