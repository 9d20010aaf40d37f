// isa.hpp — the MCS-51 instruction set as one table.
//
// Every component that knows the opcode map reads it from here: the ISS
// charges machine cycles from it, the disassembler decodes lengths, operands
// and control flow from it, the static analyzers take cycle costs and
// operand accesses from it, and the assembler encodes by looking up
// (mnemonic, operand formats). The table has 256 entries; 0xA5, the one
// undefined opcode, has an empty mnemonic and executes as a 1-cycle NOP.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace ascp::mcu {

/// Control-flow effect of one instruction.
enum class Flow : std::uint8_t {
  Seq,           ///< falls through only
  Jump,          ///< unconditional, resolved target (LJMP/AJMP/SJMP)
  CondJump,      ///< resolved target + fall-through
  Call,          ///< resolved target + fall-through (returns)
  Ret,           ///< RET
  Reti,          ///< RETI
  IndirectJump,  ///< JMP @A+DPTR — target not statically resolved
};

/// Operand formats as written in assembler source.
enum class Opnd : std::uint8_t {
  None,
  A, AB, C, Dptr, AtDptr, AtADptr, AtAPc,  ///< fixed tokens
  Rn, AtRi,                                ///< register index in the opcode's low bits
  Dir, Bit, NotBit,                        ///< direct byte, bit address, /bit
  Imm, Imm16,                              ///< #data, #data16
  Rel, Addr11, Addr16,                     ///< branch targets
};

/// Data access of a direct, bit or Rn operand (bit set).
enum Access : std::uint8_t { kRead = 1, kWrite = 2 };

struct Operand {
  Opnd fmt = Opnd::None;
  std::uint8_t access = 0;  ///< Access bits
  std::uint8_t slot = 0;    ///< first encoded byte (0: implicit in the opcode)
};

struct OpInfo {
  std::string_view mnemonic;        ///< empty for the reserved opcode 0xA5
  std::array<Operand, 3> operands;  ///< text order; unused entries are Opnd::None
  std::uint8_t count = 0;           ///< operands in use
  std::uint8_t length = 1;          ///< encoded bytes, 1..3
  std::uint8_t cycles = 1;          ///< machine cycles (12 clocks each)
  Flow flow = Flow::Seq;
};

extern const std::array<OpInfo, 256> kIsa;

inline const OpInfo& op_info(std::uint8_t opcode) { return kIsa[opcode]; }

}  // namespace ascp::mcu
