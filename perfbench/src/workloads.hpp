// workloads.hpp — the benchmark's three seeded workloads and the rig that
// drives one of them through the engine's public API.
//
// Every workload is a closed loop: one caller advances the whole farm or
// fleet by one 5 ms simulated tick and waits for it before the next. The
// seed only shapes the generated ChannelConfigs; the program never sees it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "platform/engine/channel_farm.hpp"
#include "platform/engine/fleet.hpp"

namespace pb {

enum class WorkloadId { FullSweep, IdealMix, FleetStream };
bool parse_workload(const std::string& name, WorkloadId* out);

constexpr double kBaseRateHz = 1.92e6;  ///< every channel kind's analog tick rate
constexpr double kTickSeconds = 0.005;  ///< one closed-loop advance (a fleet tick)
constexpr long kBaseTicksPerTick = 9600;
constexpr long kBootTicks = 50;         ///< 0.25 s boot window: PLL lock + AGC settle
constexpr long kBaseTicksPerSample = 1024;  ///< 1.92 MHz / 1.875 kHz output rate
constexpr long kCheckpointInterval = 4;     ///< fleet ticks between checkpoints

/// One generated channel: the config the program receives plus what the
/// benchmark needs to check and attribute it.
struct ChannelPlan {
  ascp::engine::ChannelConfig cfg;
  std::string cls;        ///< attribution class (kind + sense mode / firmware)
  bool open_loop = false; ///< sense chain set open-loop via the configure hook
  double null_v = 2.5;    ///< the kind's nominal output null [V]
  double sens_v_per_dps = 5e-3;
};

struct WorkloadSpec {
  std::string name;
  bool fleet = false;
  std::uint64_t root_seed = 1;
  std::vector<ChannelPlan> channels;
};
WorkloadSpec make_workload(WorkloadId id, std::uint64_t seed);

/// Per-channel output bookkeeping fed in sample order: count, and the rate
/// error over a fixed post-boot window (so rate_err_dps does not depend on
/// how many ticks a run managed).
struct OutputStats {
  std::uint64_t seen = 0;
  double err_sum = 0.0;
  double err_sq = 0.0;
  std::uint64_t err_n = 0;
};

/// The system under test: a ChannelFarm or a FleetSupervisor built from the
/// workload's configs, with 2 workers.
class Rig {
 public:
  static constexpr unsigned kWorkers = 2;

  /// `flight_recorders` only applies to fleet workloads.
  Rig(const WorkloadSpec& spec, bool flight_recorders, Tracer& tracer);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void boot();  ///< advance through the boot window
  void tick();  ///< advance one 5 ms tick (blocks until every channel is done)

  std::size_t size() const;
  ascp::engine::ConditioningChannel& channel(std::size_t i);
  long ticks() const { return ticks_; }
  bool booted_in_one_call() const { return !fleet_; }
  ascp::engine::FleetSupervisor* fleet() { return fleet_.get(); }

  /// Failed channel×tick operations so far (threw, shed, quarantined,
  /// dropped output or a sample count off the output rate). Call once per
  /// tick, after it.
  std::uint64_t check_tick();
  /// Feed farm outputs into the stats (fleet outputs arrive via the consumer).
  void collect_outputs();
  const std::vector<OutputStats>& output_stats() const { return stats_; }
  /// Wall seconds spent inside the fleet consumer during the last tick.
  double last_drain_s() const { return last_drain_s_; }

 private:
  void consume(std::size_t i, const std::vector<double>& batch);

  const WorkloadSpec& spec_;
  Tracer& tracer_;
  std::unique_ptr<ascp::engine::ChannelFarm> farm_;
  std::unique_ptr<ascp::engine::FleetSupervisor> fleet_;
  long ticks_ = 0;
  std::vector<OutputStats> stats_;
  long fleet_incidents_ = 0;  ///< shed + exception + stall count already charged
  double drain_begin_ = -1.0, drain_end_ = 0.0, last_drain_s_ = 0.0;
};

/// First post-boot sample index of the rate-error window, and its length.
constexpr std::uint64_t kErrFirstSample = 480;
constexpr std::uint64_t kErrSamples = 3750;  ///< 2 s of output
/// Ticks after boot a run always makes, so the error window is complete.
constexpr long kMinSteadyTicks = 420;

/// Re-run channel `cfg` solo on the calling thread through the same advance
/// sequence as rig channel (boot as one call or as ticks, then `ticks`
/// ticks) and return its output hash and sample count.
struct SoloResult {
  std::uint64_t hash = 0;
  std::uint64_t samples = 0;
};
SoloResult run_solo(const ascp::engine::ChannelConfig& cfg, bool boot_in_one_call,
                    long total_ticks);

}  // namespace pb
