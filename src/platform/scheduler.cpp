#include "platform/scheduler.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/profile.hpp"

namespace ascp::platform {

void Scheduler::every(long divider, Task task, std::string name) {
  every(divider, 0, std::move(task), std::move(name));
}

void Scheduler::every(long divider, long phase, Task task, std::string name) {
  if (divider < 1) throw std::invalid_argument("scheduler divider must be >= 1");
  if (phase < 0 || phase >= divider)
    throw std::invalid_argument("scheduler phase must be in [0, divider)");
  Entry e{divider, phase, first_due(divider, phase), std::move(task), std::move(name), -1, 1, 0};
  if (profiler_) {
    e.profile_id = profiler_->register_task(e.name, divider, phase);
    e.sample_stride = entry_stride(e);
  }
  entries_.push_back(std::move(e));
}

long Scheduler::first_due(long divider, long phase) const {
  const long r = ticks_ % divider;
  return ticks_ - r + phase + (r > phase ? divider : 0);
}

void Scheduler::set_ticks(long ticks) {
  if (ticks < 0) throw std::invalid_argument("scheduler ticks must be >= 0");
  ticks_ = ticks;
  for (Entry& e : entries_) e.next_due = first_due(e.divider, e.phase);
}

long Scheduler::entry_stride(const Entry& e) const {
  const long requested = profiler_ ? profiler_->sample_stride() : 1;
  if (requested > 0) return requested;
  // Auto: sample each task at ~kAutoSampleHz in simulated time, so the two
  // host clock reads per timed firing stay negligible even at MHz base rates.
  const double fire_hz = base_rate_ / static_cast<double>(e.divider);
  const long stride = static_cast<long>(fire_hz / obs::TaskProfiler::kAutoSampleHz);
  return stride < 1 ? 1 : stride;
}

void Scheduler::set_profiler(obs::TaskProfiler* profiler) {
  profiler_ = profiler;
  for (Entry& e : entries_) {
    e.profile_id = profiler_ ? profiler_->register_task(e.name, e.divider, e.phase) : -1;
    e.sample_stride = profiler_ ? entry_stride(e) : 1;
    e.fired = 0;
  }
  if (profiler_) profiler_->set_base_rate(base_rate_);
}

std::vector<Scheduler::TaskInfo> Scheduler::tasks() const {
  std::vector<TaskInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back({e.name, e.divider, e.phase});
  return out;
}

void Scheduler::tick() {
  if (profiler_) {
    using clock = std::chrono::steady_clock;
    for (Entry& e : entries_) {
      if (e.next_due != ticks_) continue;
      e.next_due += e.divider;
      if (e.fired++ % e.sample_stride == 0) {
        const auto t0 = clock::now();
        e.task();
        const double wall = std::chrono::duration<double>(clock::now() - t0).count();
        profiler_->record(e.profile_id, ticks_, wall,
                          static_cast<double>(e.sample_stride));
      } else {
        e.task();
        profiler_->count(e.profile_id);
      }
    }
  } else {
    for (Entry& e : entries_) {
      if (e.next_due != ticks_) continue;
      e.next_due += e.divider;
      e.task();
    }
  }
  ++ticks_;
}

void Scheduler::run_ticks(long n) {
  for (long i = 0; i < n; ++i) tick();
}

void Scheduler::run_seconds(double seconds) {
  run_ticks(static_cast<long>(seconds * base_rate_ + 0.5));
}

}  // namespace ascp::platform
