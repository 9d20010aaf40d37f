// Cache-controller tests: hit/miss accounting, write-through semantics, and
// firmware-level access through the SFR bus.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mcu/assembler.hpp"
#include "mcu/cache_ctrl.hpp"

namespace ascp::mcu {
namespace {

TEST(CacheCtrl, OwnsItsFiveSfrs) {
  CacheController cc;
  EXPECT_TRUE(cc.owns(0xA1));
  EXPECT_TRUE(cc.owns(0xA5));
  EXPECT_FALSE(cc.owns(0xA0));  // P2
  EXPECT_FALSE(cc.owns(0xA6));
}

TEST(CacheCtrl, ReadsLoadedData) {
  CacheController cc;
  cc.load(0x000010, {1, 2, 3, 4});
  cc.write(0xA1, 0);     // bank
  cc.write(0xA2, 0x00);  // addr hi
  cc.write(0xA3, 0x10);  // addr lo
  EXPECT_EQ(cc.read(0xA4), 1);
  EXPECT_EQ(cc.read(0xA4), 2);  // post-increment
  EXPECT_EQ(cc.read(0xA4), 3);
  EXPECT_EQ(cc.read(0xA4), 4);
}

TEST(CacheCtrl, FirstAccessMissesThenHits) {
  CacheController cc;
  cc.load(0, {9, 9, 9, 9});
  cc.write(0xA2, 0);
  cc.write(0xA3, 0);
  cc.read(0xA4);
  EXPECT_EQ(cc.misses(), 1);
  EXPECT_EQ(cc.hits(), 0);
  EXPECT_EQ(cc.read(0xA5), 1);  // CSTAT: last access missed
  // Next 15 bytes are in the same line: all hits.
  for (int i = 0; i < 15; ++i) cc.read(0xA4);
  EXPECT_EQ(cc.hits(), 15);
  EXPECT_EQ(cc.misses(), 1);
  EXPECT_EQ(cc.read(0xA5), 0);
}

TEST(CacheCtrl, ConflictingLinesEvict) {
  CacheController cc;  // 16 lines × 16 B = 256 B of cache
  // Two addresses 4 KB apart map to the same line (index = line_addr % 16).
  auto access = [&](std::uint32_t addr) {
    cc.write(0xA1, static_cast<std::uint8_t>(addr >> 16));
    cc.write(0xA2, static_cast<std::uint8_t>(addr >> 8));
    cc.write(0xA3, static_cast<std::uint8_t>(addr));
    return cc.read(0xA4);
  };
  access(0x0000);
  access(0x0100);  // same index, different tag: evicts
  cc.reset_stats();
  access(0x0000);  // must miss again
  EXPECT_EQ(cc.misses(), 1);
}

TEST(CacheCtrl, WriteThroughReachesExternal) {
  CacheController cc;
  cc.write(0xA2, 0x01);
  cc.write(0xA3, 0x00);
  cc.write(0xA4, 0x77);  // CDATA write
  EXPECT_EQ(cc.peek(0x0100), 0x77);
  // And a read through the (now cached) line sees the same value.
  cc.write(0xA2, 0x01);
  cc.write(0xA3, 0x00);
  EXPECT_EQ(cc.read(0xA4), 0x77);
}

TEST(CacheCtrl, LoadInvalidatesCachedLines) {
  CacheController cc;
  cc.load(0, {1});
  cc.write(0xA2, 0);
  cc.write(0xA3, 0);
  EXPECT_EQ(cc.read(0xA4), 1);
  cc.load(0, {2});  // host reprograms the external RAM
  cc.write(0xA2, 0);
  cc.write(0xA3, 0);
  EXPECT_EQ(cc.read(0xA4), 2);  // stale line must not survive
}

TEST(CacheCtrl, BankExtendsBeyond64K) {
  CacheController cc;  // 128 KB backing store
  cc.load(0x10000, {0xCD});
  cc.write(0xA1, 0x01);  // bank 1
  cc.write(0xA2, 0x00);
  cc.write(0xA3, 0x00);
  EXPECT_EQ(cc.read(0xA4), 0xCD);
}

TEST(CacheCtrl, PostIncrementCarriesAcrossBytes) {
  CacheController cc;
  cc.load(0x0000FF, {0x11, 0x22});
  cc.write(0xA1, 0);
  cc.write(0xA2, 0x00);
  cc.write(0xA3, 0xFF);
  EXPECT_EQ(cc.read(0xA4), 0x11);
  // Address rolled to 0x0100.
  EXPECT_EQ(cc.read(0xA2), 0x01);
  EXPECT_EQ(cc.read(0xA3), 0x00);
  EXPECT_EQ(cc.read(0xA4), 0x22);
}

TEST(CacheCtrl, StallCyclesTrackMisses) {
  CacheConfig cfg;
  cfg.miss_penalty_cycles = 34;
  CacheController cc(cfg);
  cc.write(0xA3, 0x00);
  cc.read(0xA4);
  cc.write(0xA3, 0x40);  // different line
  cc.read(0xA4);
  EXPECT_EQ(cc.stall_cycles(), 2 * 34);
}

TEST(CacheCtrl, FirmwareStreamsThroughCache) {
  // The paper's use case: the CPU fetches data from the big external RAM
  // through the cache window — here an 8051 program sums 16 bytes.
  Core8051 core;
  CacheController cc;
  core.attach_sfr_device(&cc);
  std::vector<std::uint8_t> table(16);
  for (int i = 0; i < 16; ++i) table[i] = static_cast<std::uint8_t>(i + 1);  // sum = 136
  cc.load(0x2000, table);

  Assembler as;
  as.define("CBANK", 0xA1);
  as.define("CAHI", 0xA2);
  as.define("CALO", 0xA3);
  as.define("CDATA", 0xA4);
  core.load_program(as.assemble(R"(
        MOV CBANK,#0
        MOV CAHI,#20h
        MOV CALO,#0
        MOV R2,#16
        CLR A
        MOV R3,#0
loop:   MOV R4,A
        MOV A,CDATA
        ADD A,R4
        DJNZ R2,loop
        MOV 30h,A
        done: SJMP done
  )").image);
  long used = 0;
  while (!core.halted() && used < 100000) used += core.step();
  EXPECT_EQ(core.iram(0x30), 136);
  EXPECT_EQ(cc.misses(), 1);   // one line fill
  EXPECT_EQ(cc.hits(), 15);
}

std::vector<std::uint8_t> saved(CacheController& cc) {
  StateArchive ar = StateArchive::saver();
  cc.serialize_state(ar);
  return ar.take();
}

TEST(CacheCtrl, UntouchedExternalSavesAsErasedBuffer) {
  // The backing store is allocated on first use; until then it reads as
  // erased and saves the same bytes as an allocated all-0xFF buffer.
  CacheController fresh, touched;
  touched.load(0, {0xFF});
  EXPECT_EQ(fresh.peek(0x1234), 0xFF);
  const auto image = saved(fresh);
  EXPECT_EQ(image, saved(touched));
  const std::size_t n = fresh.config().external_bytes;
  ASSERT_GT(image.size(), 8 + n);
  std::uint64_t len = 0;
  for (int i = 7; i >= 0; --i) len = len << 8 | image[static_cast<std::size_t>(i)];
  EXPECT_EQ(len, n);
  EXPECT_TRUE(std::all_of(image.begin() + 8, image.begin() + 8 + static_cast<long>(n),
                          [](std::uint8_t b) { return b == 0xFF; }));
}

TEST(CacheCtrl, StateRoundTripKeepsWrittenBytes) {
  CacheController a;
  a.write(0xA1, 0x01);  // CBANK
  a.write(0xA2, 0x23);  // CAHI
  a.write(0xA3, 0x45);  // CALO
  a.write(0xA4, 0x5A);  // CDATA (write-through)
  const auto image = saved(a);
  CacheController b;
  StateArchive ld = StateArchive::loader(image);
  b.serialize_state(ld);
  EXPECT_TRUE(ld.exhausted());
  EXPECT_EQ(b.peek(0x012345), 0x5A);
  EXPECT_EQ(b.peek(0x012346), 0xFF);
  EXPECT_EQ(saved(b), image);

  // An erased image restores into an erased (unallocated) store.
  CacheController erased;
  const auto blank = saved(erased);
  StateArchive ld2 = StateArchive::loader(blank);
  b.serialize_state(ld2);
  EXPECT_EQ(b.peek(0x012345), 0xFF);
  EXPECT_EQ(saved(b), blank);
}

}  // namespace
}  // namespace ascp::mcu
