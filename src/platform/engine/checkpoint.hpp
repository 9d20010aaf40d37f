// checkpoint.hpp — versioned, CRC-framed container for channel checkpoints.
//
// A checkpoint is the serialized dynamic state of one ConditioningChannel
// (produced by StateArchive), wrapped in a small self-describing frame so a
// reader can reject garbage *before* interpreting any of it:
//
//   offset  size  field
//   0       8     magic "ASCPCKPT"
//   8       4     format version (u32 LE)
//   12      4     channel kind (u32 LE, engine::ChannelKind)
//   16      8     payload length (u64 LE)
//   24      4     CRC-32 of the payload (u32 LE, reflected 0xEDB88320)
//   28      n     payload (StateArchive stream)
//
// unwrap() distinguishes the two failure classes the chaos harness injects:
// truncation (frame or payload shorter than declared) and corruption (CRC
// mismatch), both reported as StateError with distinct messages.
//
// Versioning rules (shared with the `.strace` stimulus-trace container, see
// sensor/stimulus_source.hpp): any payload-layout change bumps the format
// version, readers reject versions they do not know, and there is no
// cross-version migration — a checkpoint is a point-in-time artifact of one
// build, not an interchange format. History:
//   v1  PR 6 original layout
//   v2  CHAN section gains the stimulus-source summary (kind u32 + cursor
//       i64 at payload offsets 20/24) and the embedded source state
//   v3  Rng state is the xoshiro256++ words only (the ziggurat normal
//       generator keeps no cached deviate); a v2 image would resume a
//       Box–Muller stream this build no longer draws, so it is refused
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/state_archive.hpp"

namespace ascp::engine {

constexpr std::uint32_t kCheckpointVersion = 3;
constexpr std::size_t kCheckpointHeaderSize = 28;

/// Parsed frame header (checkpoint_tool's inspect view).
struct CheckpointInfo {
  std::uint32_t version = 0;
  std::uint32_t kind = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t crc = 0;
  bool crc_ok = false;
};

/// Frame a StateArchive payload into a checkpoint image.
std::vector<std::uint8_t> wrap_checkpoint(std::uint32_t kind,
                                          const std::vector<std::uint8_t>& payload);

/// Validate the frame and return the payload. Throws StateError on bad
/// magic, unsupported version, truncation or CRC mismatch.
std::vector<std::uint8_t> unwrap_checkpoint(const std::vector<std::uint8_t>& image,
                                            std::uint32_t* kind_out = nullptr);

/// Throws StateError("checkpoint version N unsupported") unless `version`
/// is kCheckpointVersion.
void require_checkpoint_version(std::uint32_t version);

/// Parse the header without throwing (inspect path): returns false only when
/// the image is too short to hold a header or the magic is wrong.
bool inspect_checkpoint(const std::vector<std::uint8_t>& image, CheckpointInfo* info);

}  // namespace ascp::engine
