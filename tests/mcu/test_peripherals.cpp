// Bridge-bus peripherals: bus mapping, SPI + EEPROM, timer, watchdog, SRAM
// trace controller.
#include <gtest/gtest.h>

#include "mcu/bus.hpp"
#include "mcu/spi.hpp"
#include "mcu/sram_ctrl.hpp"
#include "mcu/timer16.hpp"
#include "mcu/watchdog.hpp"

namespace ascp::mcu {
namespace {

TEST(BridgedBus, RamReadWrite) {
  BridgedBus bus(256);
  bus.write(0x10, 0xAB);
  EXPECT_EQ(bus.read(0x10), 0xAB);
}

TEST(BridgedBus, OpenBusReadsFf) {
  BridgedBus bus(16);
  EXPECT_EQ(bus.read(0x4000), 0xFF);
}

TEST(BridgedBus, WordRegisterCommitsOnHighByte) {
  Timer16 timer;
  BridgedBus bus(16);
  bus.map(&timer, 0x1000, 4, "timer");
  // Writing only the low byte must not commit.
  bus.write(0x1000, 0x34);
  EXPECT_EQ(timer.read_reg(0), 0);
  bus.write(0x1001, 0x12);
  EXPECT_EQ(timer.read_reg(0), 0x1234);
}

TEST(BridgedBus, WordReadAssemblesBytes) {
  Timer16 timer;
  timer.write_reg(1, 0xBEEF);
  BridgedBus bus(16);
  bus.map(&timer, 0x1000, 4, "timer");
  EXPECT_EQ(bus.read_word(0x1002), 0xBEEF);
}

TEST(BridgedBus, OverlappingWindowsRejected) {
  Timer16 a, b;
  BridgedBus bus(16);
  bus.map(&a, 0x1000, 4, "a");
  EXPECT_THROW(bus.map(&b, 0x1006, 4, "b"), std::invalid_argument);
  EXPECT_NO_THROW(bus.map(&b, 0x1008, 4, "b"));
}

TEST(BridgedBus, WindowOverRamRejected) {
  Timer16 t;
  BridgedBus bus(4096);
  EXPECT_THROW(bus.map(&t, 0x100, 4, "t"), std::invalid_argument);
}

TEST(Timer16, CountsDownAndExpires) {
  Timer16 t;
  t.write_reg(0, 100);  // count
  t.write_reg(2, 1);    // run
  t.tick(99);
  EXPECT_FALSE(t.expired());
  t.tick(2);
  EXPECT_TRUE(t.expired());
}

TEST(Timer16, AutoReloadKeepsRunning) {
  Timer16 t;
  t.write_reg(0, 10);
  t.write_reg(1, 10);  // reload
  t.write_reg(2, 1);
  t.tick(50);
  EXPECT_TRUE(t.expired());
  EXPECT_EQ(t.read_reg(2), 1);  // still running
}

TEST(Timer16, OneShotStopsWithoutReload) {
  Timer16 t;
  t.write_reg(0, 5);
  t.write_reg(2, 1);
  t.tick(100);
  EXPECT_TRUE(t.expired());
  EXPECT_EQ(t.read_reg(2), 0);  // stopped
}

TEST(Timer16, ClearExpiredFlag) {
  Timer16 t;
  t.write_reg(0, 1);
  t.write_reg(2, 1);
  t.tick(5);
  ASSERT_TRUE(t.expired());
  t.write_reg(2, 2);  // clear-expired
  EXPECT_FALSE(t.expired());
}

TEST(Watchdog, BitesWhenNotKicked) {
  int bites = 0;
  Watchdog wd([&] { ++bites; });
  wd.write_reg(1, 1000);  // period
  wd.write_reg(2, 1);     // enable
  wd.tick(999);
  EXPECT_EQ(bites, 0);
  wd.tick(2);
  EXPECT_EQ(bites, 1);
  EXPECT_TRUE(wd.bitten());
}

TEST(Watchdog, KickRestartsCountdown) {
  int bites = 0;
  Watchdog wd([&] { ++bites; });
  wd.write_reg(1, 1000);
  wd.write_reg(2, 1);
  for (int i = 0; i < 10; ++i) {
    wd.tick(900);
    wd.write_reg(0, Watchdog::kKickWord);
  }
  EXPECT_EQ(bites, 0);
}

TEST(Watchdog, WrongKickWordIgnored) {
  int bites = 0;
  Watchdog wd([&] { ++bites; });
  wd.write_reg(1, 100);
  wd.write_reg(2, 1);
  wd.tick(90);
  wd.write_reg(0, 0x1234);  // not the magic word
  wd.tick(20);
  EXPECT_EQ(bites, 1);
}

TEST(Watchdog, DisabledDoesNotBite) {
  int bites = 0;
  Watchdog wd([&] { ++bites; });
  wd.write_reg(1, 10);
  wd.tick(1000);
  EXPECT_EQ(bites, 0);
}

TEST(Watchdog, StatusStickyAcrossKick) {
  // Restarted firmware must still be able to read *why* it rebooted: the
  // bite flag survives KICK writes and only a PERIOD rewrite clears it.
  Watchdog wd;
  wd.write_reg(1, 100);
  wd.write_reg(2, 1);
  wd.tick(101);
  ASSERT_TRUE(wd.bitten());
  ASSERT_EQ(wd.read_reg(3), 1);

  wd.write_reg(0, Watchdog::kKickWord);  // kick after the bite
  EXPECT_EQ(wd.read_reg(3), 1) << "bite flag must survive KICK";
  wd.write_reg(2, 1);  // re-enable without reconfiguring
  EXPECT_EQ(wd.read_reg(3), 1) << "bite flag must survive CTRL re-enable";

  wd.write_reg(1, 100);  // the deliberate reconfigure step
  EXPECT_EQ(wd.read_reg(3), 0);
  EXPECT_FALSE(wd.bitten());
}

TEST(Watchdog, CountdownFrozenWhileBitten) {
  int bites = 0;
  Watchdog wd([&] { ++bites; });
  wd.write_reg(1, 50);
  wd.write_reg(2, 1);
  wd.tick(51);
  ASSERT_EQ(bites, 1);
  // Even re-enabled, a bitten watchdog must not fire a second reset pulse
  // until the PERIOD rewrite acknowledges the first.
  wd.write_reg(2, 1);
  wd.tick(1000);
  EXPECT_EQ(bites, 1);

  wd.write_reg(1, 50);
  wd.write_reg(2, 1);
  wd.tick(51);
  EXPECT_EQ(bites, 2);  // armed again after the acknowledge
}

TEST(SpiMaster, TransferExchangesByte) {
  struct Loopback : SpiSlave {
    void select(bool) override {}
    std::uint8_t transfer(std::uint8_t mosi) override {
      return static_cast<std::uint8_t>(mosi ^ 0xFF);
    }
  } slave;
  SpiMaster spi;
  spi.connect(&slave);
  spi.write_reg(SpiMaster::kRegCtrl, 1);  // CS
  spi.write_reg(SpiMaster::kRegData, 0x5A);
  EXPECT_EQ(spi.read_reg(SpiMaster::kRegStatus), 1);
  EXPECT_EQ(spi.read_reg(SpiMaster::kRegData), 0xA5);
  EXPECT_EQ(spi.read_reg(SpiMaster::kRegStatus), 0);  // cleared by read
}

TEST(SpiMaster, NoSlaveReadsFf) {
  SpiMaster spi;
  spi.write_reg(SpiMaster::kRegCtrl, 1);
  spi.write_reg(SpiMaster::kRegData, 0x77);
  EXPECT_EQ(spi.read_reg(SpiMaster::kRegData), 0xFF);
}

TEST(SpiEeprom, ReadProgrammedData) {
  SpiEeprom ee(1024);
  ee.program(0x10, {1, 2, 3});
  ee.select(true);
  ee.transfer(0x03);  // READ
  ee.transfer(0x00);
  ee.transfer(0x10);
  EXPECT_EQ(ee.transfer(0xFF), 1);
  EXPECT_EQ(ee.transfer(0xFF), 2);
  EXPECT_EQ(ee.transfer(0xFF), 3);
  ee.select(false);
}

TEST(SpiEeprom, WriteRequiresWren) {
  SpiEeprom ee(1024);
  // WRITE without WREN: ignored.
  ee.select(true);
  ee.transfer(0x02);
  ee.transfer(0x00);
  ee.transfer(0x00);
  ee.transfer(0x42);
  ee.select(false);
  EXPECT_EQ(ee.peek(0), 0xFF);
  // WREN then WRITE: lands.
  ee.select(true);
  ee.transfer(0x06);
  ee.select(false);
  ee.select(true);
  ee.transfer(0x02);
  ee.transfer(0x00);
  ee.transfer(0x00);
  ee.transfer(0x42);
  ee.select(false);
  EXPECT_EQ(ee.peek(0), 0x42);
}

TEST(SpiEeprom, RdsrReportsWel) {
  SpiEeprom ee(256);
  ee.select(true);
  EXPECT_EQ(ee.transfer(0x05), 0x00);
  ee.select(false);
  ee.select(true);
  ee.transfer(0x06);  // WREN
  ee.select(false);
  ee.select(true);
  EXPECT_EQ(ee.transfer(0x05), 0x02);
  ee.select(false);
}

TEST(SramCtrl, CapturesOnlySelectedNode) {
  SramController sram;
  sram.write_reg(1, 3);     // NODE = 3
  sram.write_reg(0, 1 | 2); // reset + arm
  EXPECT_TRUE(sram.push(3, 100));
  EXPECT_FALSE(sram.push(5, 200));  // wrong node
  EXPECT_TRUE(sram.push(3, 101));
  EXPECT_EQ(sram.count(), 2u);
}

TEST(SramCtrl, DecimationKeepsEveryNth) {
  SramController sram;
  sram.write_reg(1, 0);
  sram.write_reg(2, 4);  // every 4th
  sram.write_reg(0, 3);
  for (int i = 0; i < 16; ++i) sram.push(0, static_cast<std::uint16_t>(i));
  EXPECT_EQ(sram.count(), 4u);
  const auto snap = sram.snapshot();
  EXPECT_EQ(snap[0], 0);
  EXPECT_EQ(snap[1], 4);
}

TEST(SramCtrl, ReadbackThroughDataRegister) {
  SramController sram;
  sram.write_reg(0, 3);
  sram.push(0, 0xAAAA);
  sram.push(0, 0xBBBB);
  sram.write_reg(4, 0);  // RDPTR = 0
  EXPECT_EQ(sram.read_reg(5), 0xAAAA);
  EXPECT_EQ(sram.read_reg(5), 0xBBBB);  // auto-increment
}

TEST(SramCtrl, DisarmsWhenFull) {
  SramController sram;
  sram.write_reg(0, 3);
  for (std::size_t i = 0; i <= SramController::kSamples; ++i)
    sram.push(0, static_cast<std::uint16_t>(i));
  EXPECT_TRUE(sram.full());
  EXPECT_FALSE(sram.armed());
  EXPECT_EQ(sram.count(), SramController::kSamples);
}

TEST(SramCtrl, NotArmedIgnoresPushes) {
  SramController sram;
  EXPECT_FALSE(sram.push(0, 1));
  EXPECT_EQ(sram.count(), 0u);
}

TEST(SramCtrl, UntouchedMemorySavesAsZeroWords) {
  // Capture memory is allocated on the first stored sample; an unallocated
  // one reads as zero and saves the same bytes as allocated zero words.
  auto saved = [](SramController& s) {
    StateArchive ar = StateArchive::saver();
    s.serialize_state(ar);
    return ar.take();
  };
  SramController fresh, zero;
  zero.write_reg(0, 3);
  ASSERT_TRUE(zero.push(0, 0));
  zero.write_reg(0, 2);  // reset the write pointer and disarm
  EXPECT_EQ(saved(fresh), saved(zero));
  EXPECT_EQ(fresh.read_reg(5), 0);

  SramController cap;
  cap.write_reg(0, 3);
  cap.push(0, 0x1234);
  const auto image = saved(cap);
  SramController back;
  StateArchive ld = StateArchive::loader(image);
  back.serialize_state(ld);
  EXPECT_EQ(back.snapshot(), std::vector<std::uint16_t>{0x1234});
  EXPECT_EQ(saved(back), image);
}

}  // namespace
}  // namespace ascp::mcu
