#include "platform/engine/worker_pool.hpp"

namespace ascp::engine {

WorkerPool::WorkerPool(unsigned workers) {
  if (workers <= 1) return;
  threads_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads_.emplace_back([this, w] { worker_loop(w); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkerPool::run(std::size_t n, const Body& body) {
  if (threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    body_ = &body;
    n_ = n;
    error_ = nullptr;
    cursor_.store(0, std::memory_order_relaxed);
    active_ = threads_.size();
    ++generation_;
  }
  cv_work_.notify_all();

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [this] { return active_ == 0; });
    body_ = nullptr;
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

void WorkerPool::worker_loop(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const Body* body;
    std::size_t n;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      n = n_;
    }

    std::exception_ptr error;
    std::size_t i;
    while ((i = cursor_.fetch_add(1, std::memory_order_relaxed)) < n) {
      try {
        (*body)(i, worker);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }

    {
      std::lock_guard<std::mutex> lk(m_);
      if (error && !error_) error_ = error;
      if (--active_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace ascp::engine
