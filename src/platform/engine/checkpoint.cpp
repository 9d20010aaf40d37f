#include "platform/engine/checkpoint.hpp"

#include <cstring>

namespace ascp::engine {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'C', 'P', 'C', 'K', 'P', 'T'};

void put_u32(std::vector<std::uint8_t>& v, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& v, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return x;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return x;
}

}  // namespace

std::vector<std::uint8_t> wrap_checkpoint(std::uint32_t kind,
                                          const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> image;
  image.reserve(kCheckpointHeaderSize + payload.size());
  image.insert(image.end(), kMagic, kMagic + sizeof kMagic);
  put_u32(image, kCheckpointVersion);
  put_u32(image, kind);
  put_u64(image, payload.size());
  put_u32(image, crc32(payload.data(), payload.size()));
  image.insert(image.end(), payload.begin(), payload.end());
  return image;
}

void require_checkpoint_version(std::uint32_t version) {
  if (version != kCheckpointVersion)
    throw StateError("checkpoint version " + std::to_string(version) + " unsupported");
}

bool inspect_checkpoint(const std::vector<std::uint8_t>& image, CheckpointInfo* info) {
  if (image.size() < kCheckpointHeaderSize) return false;
  if (std::memcmp(image.data(), kMagic, sizeof kMagic) != 0) return false;
  CheckpointInfo out;
  out.version = get_u32(image.data() + 8);
  out.kind = get_u32(image.data() + 12);
  out.payload_len = get_u64(image.data() + 16);
  out.crc = get_u32(image.data() + 24);
  out.crc_ok = image.size() >= kCheckpointHeaderSize + out.payload_len &&
               crc32(image.data() + kCheckpointHeaderSize,
                     static_cast<std::size_t>(out.payload_len)) == out.crc;
  if (info) *info = out;
  return true;
}

std::vector<std::uint8_t> unwrap_checkpoint(const std::vector<std::uint8_t>& image,
                                            std::uint32_t* kind_out) {
  if (image.size() < kCheckpointHeaderSize) throw StateError("checkpoint truncated: no header");
  if (std::memcmp(image.data(), kMagic, sizeof kMagic) != 0)
    throw StateError("checkpoint bad magic");
  require_checkpoint_version(get_u32(image.data() + 8));
  const std::uint64_t payload_len = get_u64(image.data() + 16);
  if (image.size() < kCheckpointHeaderSize + payload_len)
    throw StateError("checkpoint truncated: payload shorter than declared");
  const std::uint32_t want = get_u32(image.data() + 24);
  const std::uint32_t got =
      crc32(image.data() + kCheckpointHeaderSize, static_cast<std::size_t>(payload_len));
  if (want != got) throw StateError("checkpoint CRC mismatch: payload corrupted");
  if (kind_out) *kind_out = get_u32(image.data() + 12);
  return std::vector<std::uint8_t>(image.begin() + kCheckpointHeaderSize,
                                   image.begin() + static_cast<std::ptrdiff_t>(
                                                       kCheckpointHeaderSize + payload_len));
}

}  // namespace ascp::engine
