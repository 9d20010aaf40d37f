// wcet_validation — differential validation of the static WCET analyzer.
//
// The analyzer (analysis/timing_lint) claims: for every function it bounds,
// no execution on the ISS can retire more busy machine cycles than the
// static WCET. This bench earns that claim empirically: it drives every
// shipped firmware image through realistic workloads — the boot ROM over
// both its boot paths, the monitor ROM under host transactions, the
// diagnostic/telemetry monitors on the full conditioning platform, the
// RS-485 node on a 9-bit link, plus a replay of the conformance scenario
// corpus — while a profiler-based tracker measures the observed worst case
// per function (busy cycles only: spinning at `;@loop-wait` PCs, and
// everything called from them, is I/O wait and excluded on both sides).
//
//   static_WCET >= observed_max   for every (firmware, function) pair
//
// Any violation is an analyzer soundness bug and exits non-zero. Tightness
// ratios (static / observed) go to BENCH_wcet.json so regressions in either
// direction are visible over time.
//
//   wcet_validation [--smoke]     --smoke shortens the platform runs and
//                                 samples the scenario corpus (CI budget)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/firmware_corpus.hpp"
#include "analysis/timing_lint.hpp"
#include "conformance/oracle.hpp"
#include "conformance/scenario.hpp"
#include "core/gyro_system.hpp"
#include "mcu/assembler.hpp"
#include "mcu/bootrom.hpp"
#include "mcu/bus.hpp"
#include "mcu/cache_ctrl.hpp"
#include "mcu/core8051.hpp"
#include "mcu/isa.hpp"
#include "mcu/monitor_rom.hpp"
#include "mcu/spi.hpp"
#include "mcu/uart.hpp"
#include "obs/mcu_profile.hpp"
#include "platform/engine/conditioning_channel.hpp"

using namespace ascp;

namespace {

analysis::TimingOptions timing_options(const platform::BridgeMap& map) {
  analysis::TimingOptions t;
  const mcu::CacheConfig cache;
  t.cache_miss_penalty = static_cast<int>(cache.miss_penalty_cycles);
  t.cache_data_sfr = static_cast<std::uint8_t>(cache.sfr_base + 3);
  t.kick_addrs = {map.watchdog, static_cast<std::uint16_t>(map.watchdog + 1)};
  return t;
}

struct Observed {
  long max_cost = -1;
  long samples = 0;
  void note(long cost) {
    max_cost = std::max(max_cost, cost);
    ++samples;
  }
};

/// McuProfiler that reconstructs function costs from the retirement stream.
///
/// Cost convention matches the static analyzer: a routine costs everything
/// from the retirement after its CALL up to and including its RET; cycles
/// retired at wait PCs — or anywhere inside a call made from a wait PC —
/// are excluded. Main-loop rounds are busy deltas between consecutive
/// retirements of the loop header; the init path is the busy total at the
/// first header retirement after reset.
class FunctionTracker : public obs::McuProfiler {
 public:
  explicit FunctionTracker(const analysis::WcetResult& wcet) : wcet_(wcet) {}

  void record_exec(std::uint16_t pc, std::uint8_t opcode, int cycles,
                   std::uint64_t total_cycles) override {
    obs::McuProfiler::record_exec(pc, opcode, cycles, total_cycles);
    if (static_cast<long>(total_cycles) < last_total_) reset_tracking(true);
    if (last_total_ < 0) {
      // Fresh attach: only trust the init measurement when we saw the run
      // from (almost) the very first instruction.
      init_pending_ = total_cycles <= 4;
    }
    last_total_ = static_cast<long>(total_cycles);

    if (pending_call_) {
      pending_call_ = false;
      frames_.push_back({pc, busy_, pending_wait_});
      if (pending_wait_) ++wait_depth_;
    }

    const bool wait = wait_depth_ > 0 || wcet_.wait_pcs.count(pc) > 0;
    const bool header = wcet_.loop_headers.count(pc) > 0;
    if (header && init_pending_) {
      init_.note(busy_);
      init_pending_ = false;
    }
    if (!wait) busy_ += cycles;
    if (header) {
      if (const auto it = round_start_.find(pc); it != round_start_.end())
        rounds_[pc].note(busy_ - it->second);
      round_start_[pc] = busy_;
    }

    const mcu::Flow flow = mcu::op_info(opcode).flow;
    if (flow == mcu::Flow::Call) {
      pending_call_ = true;
      pending_wait_ = wait;
    } else if (flow == mcu::Flow::Ret && !frames_.empty()) {
      const Frame f = frames_.back();
      frames_.pop_back();
      if (f.wait_ctx)
        --wait_depth_;
      else
        functions_[f.entry].note(busy_ - f.busy_start);
    }
  }

  void record_isr_enter(std::uint16_t vector, std::uint64_t total_cycles) override {
    obs::McuProfiler::record_isr_enter(vector, total_cycles);
    pending_call_ = false;  // next retirement is the handler, not a callee
  }

  long busy() const { return busy_; }
  const std::map<std::uint16_t, Observed>& functions() const { return functions_; }
  const std::map<std::uint16_t, Observed>& rounds() const { return rounds_; }
  const Observed& init() const { return init_; }

 private:
  struct Frame {
    std::uint16_t entry;
    long busy_start;
    bool wait_ctx;
  };

  void reset_tracking(bool from_reset) {
    frames_.clear();
    round_start_.clear();
    wait_depth_ = 0;
    pending_call_ = false;
    busy_ = 0;
    init_pending_ = from_reset;
  }

  const analysis::WcetResult& wcet_;
  long last_total_ = -1;
  long busy_ = 0;
  int wait_depth_ = 0;
  bool pending_call_ = false;
  bool pending_wait_ = false;
  bool init_pending_ = false;
  std::vector<Frame> frames_;
  std::map<std::uint16_t, long> round_start_;  ///< header -> busy at last retirement
  std::map<std::uint16_t, Observed> functions_;
  std::map<std::uint16_t, Observed> rounds_;
  Observed init_;
};

struct Row {
  std::string firmware;
  std::string function;
  long static_cycles = 0;
  long observed_max = 0;
  long samples = 0;
};

struct Validator {
  std::map<std::string, analysis::WcetResult> wcet;  ///< firmware -> static
  std::vector<Row> rows;
  int failures = 0;

  const analysis::WcetResult& statics(const std::string& fw) const {
    return wcet.at(fw);
  }

  /// `want`: which function kind this measurement corresponds to. Needed
  /// because a whole-program main loop (watchdog_kicker) shares its entry PC
  /// between the TopLevel init path and the MainLoop round.
  void check_one(const std::string& fw, const char* kind, std::uint16_t entry,
                 const Observed& obs,
                 std::optional<analysis::FunctionWcet::Kind> want = {}) {
    if (obs.samples == 0) return;
    const analysis::WcetResult& w = wcet.at(fw);
    const analysis::FunctionWcet* f = nullptr;
    if (want)
      for (const auto& fn : w.functions)
        if (fn.entry == entry && fn.kind == *want) f = &fn;
    if (!f) f = w.find(entry);
    if (!f) {
      std::printf("FAIL %s: observed %s at 0x%04X the analyzer never modeled\n",
                  fw.c_str(), kind, entry);
      ++failures;
      return;
    }
    if (!f->bounded) {
      std::printf("FAIL %s/%s: executed but statically unbounded\n", fw.c_str(),
                  f->name.c_str());
      ++failures;
      return;
    }
    if (obs.max_cost > f->cycles) {
      std::printf("FAIL %s/%s: static WCET %ld < observed %ld (%ld sample(s))\n",
                  fw.c_str(), f->name.c_str(), f->cycles, obs.max_cost, obs.samples);
      ++failures;
    }
    rows.push_back({fw, f->name, f->cycles, obs.max_cost, obs.samples});
  }

  /// Compare everything a tracker measured against one firmware's statics.
  void check(const std::string& fw, const FunctionTracker& t) {
    using Kind = analysis::FunctionWcet::Kind;
    for (const auto& [entry, obs] : t.functions())
      check_one(fw, "routine", entry, obs, Kind::Routine);
    for (const auto& [entry, obs] : t.rounds())
      check_one(fw, "loop round", entry, obs, Kind::MainLoop);
    if (t.init().samples > 0)
      for (const auto& f : wcet.at(fw).functions)
        if (f.kind == Kind::TopLevel)
          check_one(fw, "init path", f.entry, t.init(), Kind::TopLevel);
  }
};

const analysis::FirmwareImage& corpus_image(const std::vector<analysis::FirmwareImage>& all,
                                            const char* name) {
  for (const auto& fw : all)
    if (fw.name == name) return fw;
  std::fprintf(stderr, "wcet_validation: no corpus image named %s\n", name);
  std::exit(2);
}

// ---- drives -----------------------------------------------------------------

/// Boot ROM, EEPROM path: program a valid image, run until control leaves
/// the ROM (LJMP PROGRAM), measure the whole path as the entry function.
void drive_bootrom_eeprom(Validator& v) {
  mcu::BootRomConfig cfg;
  mcu::Core8051 core;
  mcu::BridgedBus bus(4096);
  mcu::SpiMaster spi;
  mcu::SpiEeprom eeprom;
  bus.map(&spi, cfg.spi_base, 3, "spi");
  bus.map_program_ram(cfg.prog_base, 0x7F00, &core);
  spi.connect(&eeprom);
  core.set_xdata_bus(&bus);
  core.load_program(mcu::BootRom::image(cfg));

  mcu::Assembler as;
  const auto app = as.assemble("done: SJMP done").image;
  eeprom.program(0, mcu::BootRom::eeprom_image(app));

  FunctionTracker t(v.statics("bootrom"));
  core.set_profiler(&t);
  long guard = 20'000'000;
  while (core.pc() < cfg.prog_base && guard-- > 0) core.step();
  core.set_profiler(nullptr);

  Observed entry;
  entry.note(t.busy());
  for (const auto& f : v.statics("bootrom").functions)
    if (f.kind == analysis::FunctionWcet::Kind::TopLevel)
      v.check_one("bootrom", "boot path (eeprom)", f.entry, entry,
                  analysis::FunctionWcet::Kind::TopLevel);
  v.check("bootrom", t);
}

/// Boot ROM, UART path: no EEPROM magic, host downloads over the link
/// (including one NAK retry). The download spin is all wait context.
void drive_bootrom_uart(Validator& v) {
  mcu::BootRomConfig cfg;
  mcu::Core8051 core;
  mcu::BridgedBus bus(4096);
  mcu::SpiMaster spi;
  mcu::SpiEeprom eeprom;  // left blank: probe fails, ROM falls back to UART
  mcu::HostLink host;
  bus.map(&spi, cfg.spi_base, 3, "spi");
  bus.map_program_ram(cfg.prog_base, 0x7F00, &core);
  spi.connect(&eeprom);
  core.set_xdata_bus(&bus);
  host.attach(core);
  core.load_program(mcu::BootRom::image(cfg));

  FunctionTracker t(v.statics("bootrom"));
  core.set_profiler(&t);
  // A corrupt download first (bad checksum -> NAK -> resync), then a good one.
  mcu::Assembler as;
  const auto app = as.assemble("done: SJMP done").image;
  host.send(0xA5);
  host.send(0);
  host.send(1);
  host.send(0x80);  // one byte, checksum deliberately wrong
  host.send(0x55);
  host.send_download(app);
  long guard = 20'000'000;
  while (core.pc() < cfg.prog_base && guard-- > 0) {
    core.step();
    host.pump(core);
  }
  core.set_profiler(nullptr);
  Observed entry;
  entry.note(t.busy());
  for (const auto& f : v.statics("bootrom").functions)
    if (f.kind == analysis::FunctionWcet::Kind::TopLevel)
      v.check_one("bootrom", "boot path (uart)", f.entry, entry,
                  analysis::FunctionWcet::Kind::TopLevel);
  v.check("bootrom", t);
}

/// Monitor ROM under host transactions: ping, reads, writes, and an unknown
/// command (the '?' reply arm).
void drive_monitor_rom(Validator& v) {
  mcu::Core8051 core;
  mcu::BridgedBus bus(4096);
  mcu::HostLink link;
  core.set_xdata_bus(&bus);
  link.attach(core);
  core.load_program(mcu::MonitorRom::image());

  FunctionTracker t(v.statics("monitor_rom"));
  core.set_profiler(&t);
  mcu::MonitorHost host(core, link);
  bool ok = host.ping();
  ok = host.write_byte(0x0123, 0xA7) && ok;
  ok = host.read_byte(0x0123) == 0xA7 && ok;
  ok = host.write_word(0x0200, 0xBEEF) && ok;
  ok = host.read_word(0x0200) == 0xBEEF && ok;
  // Unknown command exercises the '?' reply arm.
  link.clear_received();
  link.send(0x5A);
  for (long i = 0; i < 200'000 && link.received().empty(); ++i) {
    core.step();
    link.pump(core);
  }
  ok = !link.received().empty() && link.received().front() == '?' && ok;
  core.set_profiler(nullptr);
  if (!ok) {
    std::printf("FAIL monitor_rom: host transactions failed under profiling\n");
    ++v.failures;
  }
  v.check("monitor_rom", t);
}

/// Diagnostic / telemetry monitors on the full platform: firmware runs in
/// per-sample slices while the conditioning pipeline produces real data.
void drive_platform_monitor(Validator& v, const char* name, double seconds) {
  auto cfg = core::default_gyro_system(core::Fidelity::Full);
  cfg.with_mcu = true;
  cfg.with_safety = true;
  core::GyroSystem gyro(cfg);
  const auto& map = gyro.platform().config().map;
  const mcu::AsmResult fw = std::strcmp(name, "diag_monitor") == 0
                                ? analysis::corpus::assemble_diag_monitor(map)
                                : analysis::corpus::assemble_telemetry_monitor(map);
  gyro.platform().load_firmware(fw.image);

  FunctionTracker t(v.statics(name));
  gyro.platform().cpu().set_profiler(&t);
  gyro.power_on(/*seed=*/7);
  gyro.run(sensor::Profile::constant(30.0), sensor::Profile::constant(25.0), seconds,
           nullptr);
  gyro.platform().cpu().set_profiler(nullptr);
  v.check(name, t);
}

/// Watchdog kicker: pure kick loop on a bare core (the kick stores miss the
/// bus — only the cycle stream matters here).
void drive_watchdog_kicker(Validator& v) {
  mcu::Core8051 core;
  mcu::BridgedBus bus(4096);
  core.set_xdata_bus(&bus);
  core.load_program(
      analysis::corpus::assemble_watchdog_kicker(platform::BridgeMap{}).image);
  FunctionTracker t(v.statics("watchdog_kicker"));
  core.set_profiler(&t);
  core.run_cycles(5000);
  core.set_profiler(nullptr);
  v.check("watchdog_kicker", t);
}

/// Greeting app at its ORG 8000h load address: two transmits, then parks.
void drive_greeting(Validator& v, const std::vector<analysis::FirmwareImage>& corpus) {
  const auto& fw = corpus_image(corpus, "greeting_app");
  mcu::Core8051 core;
  core.load_program(fw.image, fw.base);
  core.set_pc(fw.entry);
  FunctionTracker t(v.statics("greeting_app"));
  core.set_profiler(&t);
  core.run_cycles(20'000);  // two ~3200-cycle transmits + parked rounds
  core.set_profiler(nullptr);
  v.check("greeting_app", t);
}

/// RS-485 node: select it on a 9-bit address frame, query the rate word.
void drive_rs485(Validator& v, const std::vector<analysis::FirmwareImage>& corpus) {
  const auto& fw = corpus_image(corpus, "rs485_node");
  mcu::Core8051 core;
  mcu::BridgedBus bus(4096);
  core.set_xdata_bus(&bus);
  core.load_program(fw.image, fw.base);
  FunctionTracker t(v.statics("rs485_node"));
  core.set_profiler(&t);
  core.run_cycles(2000);           // reach the wait loop
  core.inject_rx9(0x10, true);     // our address
  core.run_cycles(2000);
  core.inject_rx9('Q', false);     // query -> two-byte reply
  core.run_cycles(20'000);
  core.inject_rx9(0x10, true);     // second transaction exercises re-arm
  core.run_cycles(2000);
  core.inject_rx9('X', false);     // unknown command arm
  core.run_cycles(20'000);
  core.set_profiler(nullptr);
  v.check("rs485_node", t);
}

/// Conformance-corpus replay: every scenario that loads shipped firmware
/// runs with a tracker attached; ISS-class scenarios additionally get host
/// transactions so the monitor actually serves commands.
void drive_corpus_replay(Validator& v, bool smoke) {
#ifndef ASCP_CORPUS_DIR
  std::printf("note: built without ASCP_CORPUS_DIR — corpus replay skipped\n");
  (void)v;
  (void)smoke;
#else
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator(ASCP_CORPUS_DIR))
    if (e.path().extension() == ".scenario") paths.push_back(e.path());
  std::sort(paths.begin(), paths.end());

  int replayed = 0;
  for (const auto& p : paths) {
    const conformance::Scenario s = conformance::load_scenario(p.string());
    const bool iss = s.cls == conformance::ScenarioClass::Iss;
    bool hang = false;
    for (const auto& f : s.faults)
      if (f.kind == conformance::FaultKind::FirmwareHang) hang = true;
    if (!iss && !hang) continue;  // no shipped firmware under test
    const char* fw_name = iss ? "monitor_rom" : "watchdog_kicker";
    if (smoke && replayed >= 2) break;
    ++replayed;

    engine::ChannelConfig cc = conformance::channel_config(s);
    engine::ConditioningChannel ch(cc);
    core::GyroSystem* gyro = ch.gyro();
    if (!gyro) continue;
    FunctionTracker t(v.statics(fw_name));
    gyro->platform().cpu().set_profiler(&t);
    ch.advance(smoke ? 40'000 : 200'000);
    if (iss) {
      mcu::MonitorHost host(gyro->platform().cpu(), gyro->platform().host());
      if (!host.ping()) {
        std::printf("FAIL corpus %s: monitor did not answer ping\n",
                    p.filename().string().c_str());
        ++v.failures;
      }
      host.read_word(gyro->platform().config().map.regfile);
    }
    gyro->platform().cpu().set_profiler(nullptr);
    std::printf("replayed %-32s (%s)\n", p.filename().string().c_str(), fw_name);
    v.check(fw_name, t);
  }
  std::printf("corpus replay: %d scenario(s) exercised firmware\n", replayed);
#endif
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // Statics for the whole corpus, same model platform_lint proves.
  const platform::BridgeMap map{};
  const auto corpus = analysis::corpus::shipped_firmware(map);
  Validator v;
  int static_errors = 0;
  for (const auto& fw : corpus) {
    v.wcet.emplace(fw.name, analysis::analyze_wcet(fw, timing_options(map)));
    static_errors += v.wcet.at(fw.name).report.errors();
  }
  if (static_errors) {
    std::printf("FAIL: static analysis reports %d error(s) on the shipped corpus\n",
                static_errors);
    for (const auto& [name, w] : v.wcet)
      for (const auto& f : w.report.findings())
        if (f.severity == analysis::Severity::Error)
          std::printf("  %s\n", f.format().c_str());
    return 1;
  }

  drive_bootrom_eeprom(v);
  drive_bootrom_uart(v);
  drive_monitor_rom(v);
  // The telemetry monitor blocks on PLL+AGC lock (~0.25 s) before its first
  // round, so its run must outlast locking to observe any busy work.
  drive_platform_monitor(v, "diag_monitor", smoke ? 0.05 : 0.2);
  drive_platform_monitor(v, "telemetry_monitor", smoke ? 0.35 : 0.5);
  drive_watchdog_kicker(v);
  drive_greeting(v, corpus);
  drive_rs485(v, corpus);
  drive_corpus_replay(v, smoke);

  // Tightness table + BENCH JSON.
  std::printf("\n%-18s %-14s %10s %10s %8s %10s\n", "firmware", "function", "static",
              "observed", "samples", "tightness");
  for (const auto& r : v.rows) {
    const double tight =
        r.observed_max > 0 ? static_cast<double>(r.static_cycles) / r.observed_max : 0.0;
    std::printf("%-18s %-14s %10ld %10ld %8ld %10.2f\n", r.firmware.c_str(),
                r.function.c_str(), r.static_cycles, r.observed_max, r.samples, tight);
  }
  if (FILE* f = std::fopen("BENCH_wcet.json", "w")) {
    std::fprintf(f, "{\n  \"failures\": %d,\n  \"functions\": [\n", v.failures);
    for (std::size_t i = 0; i < v.rows.size(); ++i) {
      const Row& r = v.rows[i];
      const double tight =
          r.observed_max > 0 ? static_cast<double>(r.static_cycles) / r.observed_max : 0.0;
      std::fprintf(f,
                   "    {\"firmware\": \"%s\", \"function\": \"%s\", \"static\": %ld, "
                   "\"observed_max\": %ld, \"samples\": %ld, \"tightness\": %.3f}%s\n",
                   r.firmware.c_str(), r.function.c_str(), r.static_cycles,
                   r.observed_max, r.samples, tight, i + 1 < v.rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_wcet.json (%zu function(s), %d failure(s))\n",
                v.rows.size(), v.failures);
  }

  if (v.failures) {
    std::printf("wcet_validation: %d soundness failure(s)\n", v.failures);
    return 1;
  }
  std::printf("wcet_validation: static bounds hold for every observed function\n");
  return 0;
}
