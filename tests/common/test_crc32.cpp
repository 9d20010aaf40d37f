// CRC-32 used by every framed container (checkpoint, .strace, .blackbox).
// Files written by older builds must keep verifying, so the table-driven
// implementation is pinned to the standard check value and to a bitwise
// reference over arbitrary data.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/state_archive.hpp"

namespace ascp {
namespace {

std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, StandardCheckValue) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof check), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, MatchesBitwiseReferenceOnRandomData) {
  Rng rng(0xC2C32);
  std::vector<std::uint8_t> buf(4099);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (const std::size_t len : {std::size_t{1}, std::size_t{7}, std::size_t{256}, buf.size()})
    EXPECT_EQ(crc32(buf.data(), len), crc32_bitwise(buf.data(), len)) << "len " << len;
}

}  // namespace
}  // namespace ascp
