// disassembler.hpp — MCS-51 decoder and disassembler (inverse of Assembler).
//
// decode() walks a code image the way the silicon would, driven by the ISA
// table (mcu/isa.hpp): length, operand bytes, control-flow kind and the
// resolved branch target. The firmware and timing analyzers build their CFG
// from it; text() and disassemble_range() turn decoded instructions back
// into assembler-ready source, and every line re-assembles to the exact
// bytes it was decoded from (the conformance fuzzer's assemble →
// disassemble → assemble round-trip). Branch targets print as absolute
// addresses, bits as BYTE.N, the reserved opcode 0xA5 as a DB directive.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "mcu/isa.hpp"

namespace ascp::mcu {

struct Insn {
  std::uint16_t addr = 0;
  std::uint8_t bytes[3] = {0, 0, 0};  ///< opcode + operand bytes
  int length = 1;                     ///< 1..3
  Flow flow = Flow::Seq;
  std::uint16_t target = 0;  ///< valid for Jump/CondJump/Call
  bool truncated = false;    ///< instruction runs past the end of the image

  std::uint8_t opcode() const { return bytes[0]; }
  const OpInfo& info() const { return op_info(bytes[0]); }
  /// Assembler-ready form, e.g. "MOV DPTR, #0x4002" or "JNB 0x98.0, 0x0012".
  std::string text() const;

  /// Direct address the instruction writes (MOV dir,… / INC dir / POP …).
  std::optional<std::uint8_t> direct_written() const;
  /// Bit address the instruction writes (SETB/CLR/CPL bit, MOV bit,C, JBC).
  std::optional<std::uint8_t> bit_written() const;
  /// Does a direct operand (read or written) name `dir`? Bit operands are
  /// not direct accesses.
  bool accesses_direct(std::uint8_t dir) const;
  /// Does the instruction write register Rn through an Rn operand?
  bool writes_rn(int n) const;
};

/// Decode the instruction at absolute address `addr` from `code`, which is
/// loaded at address `base`. Bytes past the end of `code` read as 0 and set
/// `truncated`.
Insn decode(std::span<const std::uint8_t> code, std::uint16_t base, std::uint16_t addr);

/// Disassemble [begin, end) into re-assemblable source, one instruction per
/// line, starting with an ORG directive. An instruction straddling `end` is
/// flushed as DB lines so the output always covers exactly [begin, end).
std::string disassemble_range(std::span<const std::uint8_t> code, std::uint16_t begin,
                              std::uint16_t end);

}  // namespace ascp::mcu
