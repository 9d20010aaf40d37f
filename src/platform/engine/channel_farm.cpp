#include "platform/engine/channel_farm.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/rng.hpp"

namespace ascp::engine {

// A worker per channel is the useful maximum; a single worker is the calling
// thread (no pool at all).
ChannelFarm::ChannelFarm(std::vector<ChannelConfig> specs, const FarmConfig& cfg)
    : threads_(cfg.threads != 0 ? cfg.threads
                                : std::max(1u, std::thread::hardware_concurrency())),
      pool_(static_cast<unsigned>(std::min<std::size_t>(threads_, specs.size()))) {
  metrics_ = cfg.shared_metrics;
  if (metrics_) {
    m_advances_ = metrics_->counter("farm.channel_advances");
    m_samples_ = metrics_->counter("farm.output_samples");
    m_exceptions_ = metrics_->counter("farm.channel_exceptions");
    h_ticks_ = metrics_->histogram("farm.advance_ticks");
  }
  Rng root(cfg.root_seed);
  channels_.reserve(specs.size());
  slots_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (cfg.reseed_channels)
      specs[i].seed = root.fork(static_cast<std::uint64_t>(i) + 1).next_u64();
    channels_.push_back(std::make_unique<ConditioningChannel>(specs[i]));
    slots_.push_back(std::make_unique<Slot>());
  }
}

void ChannelFarm::advance_channel(std::size_t i, double seconds) {
  Slot& slot = *slots_[i];
  if (slot.failed.load(std::memory_order_acquire)) return;
  ConditioningChannel& ch = *channels_[i];
  // Each channel converts the common wall of simulated time to its own base
  // ticks (farms may mix base rates), exactly as a solo run would.
  const long ticks = std::llround(seconds * ch.base_rate_hz());
  const std::uint64_t before = ch.total_outputs();
  try {
    ch.advance(ticks);
  } catch (const std::exception& e) {
    // Contain the failure to this channel: the worker thread survives, the
    // siblings never notice, and the channel is skipped from here on.
    slot.error = e.what();
    slot.failed.store(true, std::memory_order_release);
    if (metrics_) metrics_->add(m_exceptions_);
    return;
  } catch (...) {
    slot.error = "unknown exception";
    slot.failed.store(true, std::memory_order_release);
    if (metrics_) metrics_->add(m_exceptions_);
    return;
  }
  if (metrics_) {
    // Sharded, commutative records only: the merged totals are independent
    // of which worker ran which channel. total_outputs() rather than queue
    // size: a bounded queue can shrink across an advance.
    metrics_->add(m_advances_);
    metrics_->add(m_samples_, static_cast<double>(ch.total_outputs() - before));
    metrics_->observe(h_ticks_, static_cast<double>(ticks));
  }
}

void ChannelFarm::advance(double seconds) {
  pool_.run(channels_.size(),
            [this, seconds](std::size_t i, unsigned) { advance_channel(i, seconds); });
}

std::size_t ChannelFarm::total_samples() const {
  std::size_t n = 0;
  for (const auto& ch : channels_) n += ch->outputs().size();
  return n;
}

std::size_t ChannelFarm::failed_channels() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (channel_failed(i)) ++n;
  return n;
}

}  // namespace ascp::engine
