// channel_farm.hpp — parallel multi-channel simulation engine.
//
// Runs N independent ConditioningChannels across a fixed pool of worker
// threads: the scale-out layer that turns the single-device simulator into a
// characterization farm (Monte Carlo seed sweeps, mixed platform/baseline
// fleets, per-channel fault campaigns).
//
// Determinism: each channel's seed is forked from the farm's root seed by
// channel index, every channel is advanced by exactly one worker per
// advance() call, and channels share no mutable state — so the per-channel
// output streams are byte-identical whether the farm runs on 1 thread or 64.
// Result collection is lock-free: each channel appends to its own
// preallocated output vector; the pool synchronizes only on the work-queue
// cursor (one atomic fetch_add per channel per advance).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/engine/conditioning_channel.hpp"
#include "platform/engine/worker_pool.hpp"

namespace ascp::engine {

struct FarmConfig {
  /// Root of the per-channel seed tree: channel i is powered on with
  /// Rng(root_seed).fork(i + 1).next_u64(), so one number reproduces the
  /// whole farm and channels stay decorrelated.
  std::uint64_t root_seed = 1;
  /// When false, each spec's own `seed` is kept instead of being forked from
  /// root_seed — the conformance fuzzer needs farm-run channels to reproduce
  /// the exact stream of a solo run of the same scenario.
  bool reseed_channels = true;
  /// Worker threads; 0 selects std::thread::hardware_concurrency(). The pool
  /// is created once at construction and reused by every advance() call.
  unsigned threads = 1;
  /// Optional farm-level metric registry (non-owning). Workers record
  /// per-channel progress into their thread's shard lock-free; because every
  /// recorded quantity is a commutative sum (counters, histogram buckets),
  /// the merged snapshot is identical for any thread count and any
  /// channel→worker assignment.
  obs::MetricRegistry* shared_metrics = nullptr;
};

class ChannelFarm {
 public:
  /// Builds one channel per spec. Each spec's `seed` field is overwritten
  /// with the farm-derived stream for its index (see FarmConfig::root_seed).
  ChannelFarm(std::vector<ChannelConfig> specs, const FarmConfig& cfg);

  ChannelFarm(const ChannelFarm&) = delete;
  ChannelFarm& operator=(const ChannelFarm&) = delete;

  /// Advance every channel by `seconds` of simulated base time. Blocks until
  /// all channels have caught up. Repeated calls accumulate, with decimation
  /// phase carrying across calls per channel.
  void advance(double seconds);

  std::size_t size() const { return channels_.size(); }
  unsigned threads() const { return threads_; }
  ConditioningChannel& channel(std::size_t i) { return *channels_[i]; }
  const ConditioningChannel& channel(std::size_t i) const { return *channels_[i]; }

  /// Total decimated output samples across all channels so far.
  std::size_t total_samples() const;

  // ---- exception containment ----------------------------------------------
  // A channel that throws mid-advance() is marked failed and skipped by
  // every later advance; the exception never crosses a worker thread
  // boundary, so the pool and the sibling channels are unaffected. The
  // failed channel's partial state is considered poisoned — a supervisor
  // layer (FleetSupervisor) decides whether to rebuild it.
  bool channel_failed(std::size_t i) const {
    return slots_[i]->failed.load(std::memory_order_acquire);
  }
  /// The captured exception message ("" while the channel is healthy).
  std::string channel_error(std::size_t i) const {
    return channel_failed(i) ? slots_[i]->error : std::string();
  }
  std::size_t failed_channels() const;
  /// Clear a channel's failed mark after replacing/repairing it in place.
  void clear_channel_failure(std::size_t i) {
    slots_[i]->error.clear();
    slots_[i]->failed.store(false, std::memory_order_release);
  }

 private:
  // One worker owns a channel for the duration of an advance, so `error` is
  // written by exactly one thread before the release-store on `failed`;
  // cross-thread readers pair it with the acquire-load above.
  struct Slot {
    std::atomic<bool> failed{false};
    std::string error;
  };

  void advance_channel(std::size_t i, double seconds);

  std::vector<std::unique_ptr<ConditioningChannel>> channels_;
  std::vector<std::unique_ptr<Slot>> slots_;
  unsigned threads_ = 1;

  obs::MetricRegistry* metrics_ = nullptr;
  obs::MetricRegistry::Id m_advances_ = 0, m_samples_ = 0, m_exceptions_ = 0;
  obs::MetricRegistry::Id h_ticks_ = 0;

  // Declared last: its threads call advance_channel(), which reads the
  // members above, so it is destroyed (and joined) first.
  WorkerPool pool_;
};

}  // namespace ascp::engine
