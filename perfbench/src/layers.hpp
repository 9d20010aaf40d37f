// layers.hpp — outside-in layer attribution for the traced run.
//
// For each attribution class of a workload (one representative channel per
// kind / sense mode / firmware), a twin of the rig's channel — same config,
// same derived seed, so the same signals — is advanced through boot with a
// capturing Probe on the Stimulus, PostMems, PostAfe and PostAdc taps. The
// captured stretch is then replayed through standalone GyroMems, ChargeAmp,
// AcquisitionChannel, Dac, DriveLoop, SenseChain, SafetySupervisor and 8051
// instances built from the channel's config, timing each layer's calls. The
// rows are ns per base tick per channel (calls per tick × cost per call),
// class-weighted over the workload, so they add up against ns_per_tick.
#pragma once

#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace pb {

struct LayerReport {
  std::vector<Metric> metrics;  ///< per-layer rows (names as in BENCHMARK.json)
  double layer_sum_ns = 0.0;    ///< Σ of the rows that add up to ns_per_tick
};

/// Replays every class of `spec`, taking configs (with their derived seeds)
/// from the booted rig. Single-threaded; call outside the timed region.
LayerReport replay_layers(const WorkloadSpec& spec, Rig& rig, Tracer& tracer);

}  // namespace pb
