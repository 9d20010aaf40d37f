#include "mcu/isa.hpp"

namespace ascp::mcu {
namespace {

constexpr std::uint8_t R = kRead, W = kWrite, RW = kRead | kWrite;

constexpr Operand A{Opnd::A}, AB{Opnd::AB}, C{Opnd::C}, DPTR{Opnd::Dptr},
    AT_DPTR{Opnd::AtDptr}, AT_A_DPTR{Opnd::AtADptr}, AT_A_PC{Opnd::AtAPc}, RI{Opnd::AtRi},
    IMM{Opnd::Imm}, IMM16{Opnd::Imm16}, REL{Opnd::Rel}, ADDR11{Opnd::Addr11},
    ADDR16{Opnd::Addr16};
constexpr Operand rn(std::uint8_t access) { return {Opnd::Rn, access}; }
constexpr Operand dir(std::uint8_t access, std::uint8_t slot = 0) {
  return {Opnd::Dir, access, slot};
}
constexpr Operand bit(std::uint8_t access) { return {Opnd::Bit, access}; }
constexpr Operand notbit() { return {Opnd::NotBit, R}; }

/// One row per instruction form. An Rn operand expands the row to the 8
/// opcodes op..op+7, @Ri to op..op+1, and addr11 to the 8 page opcodes
/// op + 0x20·k. Encoded operands take bytes 1, 2 in text order unless a
/// slot is given (MOV dir,dir encodes the source first).
struct Row {
  std::uint8_t op;
  std::string_view mnemonic;
  std::array<Operand, 3> operands;
  std::uint8_t cycles;
  Flow flow = Flow::Seq;
};

constexpr Row kRows[] = {
    {0x00, "NOP", {}, 1},
    {0x01, "AJMP", {ADDR11}, 2, Flow::Jump},
    {0x02, "LJMP", {ADDR16}, 2, Flow::Jump},
    {0x03, "RR", {A}, 1},
    {0x04, "INC", {A}, 1},
    {0x05, "INC", {dir(RW)}, 1},
    {0x06, "INC", {RI}, 1},
    {0x08, "INC", {rn(RW)}, 1},
    {0x10, "JBC", {bit(RW), REL}, 2, Flow::CondJump},
    {0x11, "ACALL", {ADDR11}, 2, Flow::Call},
    {0x12, "LCALL", {ADDR16}, 2, Flow::Call},
    {0x13, "RRC", {A}, 1},
    {0x14, "DEC", {A}, 1},
    {0x15, "DEC", {dir(RW)}, 1},
    {0x16, "DEC", {RI}, 1},
    {0x18, "DEC", {rn(RW)}, 1},
    {0x20, "JB", {bit(R), REL}, 2, Flow::CondJump},
    {0x22, "RET", {}, 2, Flow::Ret},
    {0x23, "RL", {A}, 1},
    {0x24, "ADD", {A, IMM}, 1},
    {0x25, "ADD", {A, dir(R)}, 1},
    {0x26, "ADD", {A, RI}, 1},
    {0x28, "ADD", {A, rn(R)}, 1},
    {0x30, "JNB", {bit(R), REL}, 2, Flow::CondJump},
    {0x32, "RETI", {}, 2, Flow::Reti},
    {0x33, "RLC", {A}, 1},
    {0x34, "ADDC", {A, IMM}, 1},
    {0x35, "ADDC", {A, dir(R)}, 1},
    {0x36, "ADDC", {A, RI}, 1},
    {0x38, "ADDC", {A, rn(R)}, 1},
    {0x40, "JC", {REL}, 2, Flow::CondJump},
    {0x42, "ORL", {dir(RW), A}, 1},
    {0x43, "ORL", {dir(RW), IMM}, 2},
    {0x44, "ORL", {A, IMM}, 1},
    {0x45, "ORL", {A, dir(R)}, 1},
    {0x46, "ORL", {A, RI}, 1},
    {0x48, "ORL", {A, rn(R)}, 1},
    {0x50, "JNC", {REL}, 2, Flow::CondJump},
    {0x52, "ANL", {dir(RW), A}, 1},
    {0x53, "ANL", {dir(RW), IMM}, 2},
    {0x54, "ANL", {A, IMM}, 1},
    {0x55, "ANL", {A, dir(R)}, 1},
    {0x56, "ANL", {A, RI}, 1},
    {0x58, "ANL", {A, rn(R)}, 1},
    {0x60, "JZ", {REL}, 2, Flow::CondJump},
    {0x62, "XRL", {dir(RW), A}, 1},
    {0x63, "XRL", {dir(RW), IMM}, 2},
    {0x64, "XRL", {A, IMM}, 1},
    {0x65, "XRL", {A, dir(R)}, 1},
    {0x66, "XRL", {A, RI}, 1},
    {0x68, "XRL", {A, rn(R)}, 1},
    {0x70, "JNZ", {REL}, 2, Flow::CondJump},
    {0x72, "ORL", {C, bit(R)}, 2},
    {0x73, "JMP", {AT_A_DPTR}, 2, Flow::IndirectJump},
    {0x74, "MOV", {A, IMM}, 1},
    {0x75, "MOV", {dir(W), IMM}, 2},
    {0x76, "MOV", {RI, IMM}, 1},
    {0x78, "MOV", {rn(W), IMM}, 1},
    {0x80, "SJMP", {REL}, 2, Flow::Jump},
    {0x82, "ANL", {C, bit(R)}, 2},
    {0x83, "MOVC", {A, AT_A_PC}, 2},
    {0x84, "DIV", {AB}, 4},
    {0x85, "MOV", {dir(W, 2), dir(R, 1)}, 2},
    {0x86, "MOV", {dir(W), RI}, 2},
    {0x88, "MOV", {dir(W), rn(R)}, 2},
    {0x90, "MOV", {DPTR, IMM16}, 2},
    {0x92, "MOV", {bit(W), C}, 2},
    {0x93, "MOVC", {A, AT_A_DPTR}, 2},
    {0x94, "SUBB", {A, IMM}, 1},
    {0x95, "SUBB", {A, dir(R)}, 1},
    {0x96, "SUBB", {A, RI}, 1},
    {0x98, "SUBB", {A, rn(R)}, 1},
    {0xA0, "ORL", {C, notbit()}, 2},
    {0xA2, "MOV", {C, bit(R)}, 1},
    {0xA3, "INC", {DPTR}, 2},
    {0xA4, "MUL", {AB}, 4},
    {0xA5, "", {}, 1},  // reserved
    {0xA6, "MOV", {RI, dir(R)}, 2},
    {0xA8, "MOV", {rn(W), dir(R)}, 2},
    {0xB0, "ANL", {C, notbit()}, 2},
    {0xB2, "CPL", {bit(RW)}, 1},
    {0xB3, "CPL", {C}, 1},
    {0xB4, "CJNE", {A, IMM, REL}, 2, Flow::CondJump},
    {0xB5, "CJNE", {A, dir(R), REL}, 2, Flow::CondJump},
    {0xB6, "CJNE", {RI, IMM, REL}, 2, Flow::CondJump},
    {0xB8, "CJNE", {rn(R), IMM, REL}, 2, Flow::CondJump},
    {0xC0, "PUSH", {dir(R)}, 2},
    {0xC2, "CLR", {bit(W)}, 1},
    {0xC3, "CLR", {C}, 1},
    {0xC4, "SWAP", {A}, 1},
    {0xC5, "XCH", {A, dir(RW)}, 1},
    {0xC6, "XCH", {A, RI}, 1},
    {0xC8, "XCH", {A, rn(RW)}, 1},
    {0xD0, "POP", {dir(W)}, 2},
    {0xD2, "SETB", {bit(W)}, 1},
    {0xD3, "SETB", {C}, 1},
    {0xD4, "DA", {A}, 1},
    {0xD5, "DJNZ", {dir(RW), REL}, 2, Flow::CondJump},
    {0xD6, "XCHD", {A, RI}, 1},
    {0xD8, "DJNZ", {rn(RW), REL}, 2, Flow::CondJump},
    {0xE0, "MOVX", {A, AT_DPTR}, 2},
    {0xE2, "MOVX", {A, RI}, 2},
    {0xE4, "CLR", {A}, 1},
    {0xE5, "MOV", {A, dir(R)}, 1},
    {0xE6, "MOV", {A, RI}, 1},
    {0xE8, "MOV", {A, rn(R)}, 1},
    {0xF0, "MOVX", {AT_DPTR, A}, 2},
    {0xF2, "MOVX", {RI, A}, 2},
    {0xF4, "CPL", {A}, 1},
    {0xF5, "MOV", {dir(W), A}, 1},
    {0xF6, "MOV", {RI, A}, 1},
    {0xF8, "MOV", {rn(W), A}, 1},
};

constexpr int encoded_bytes(Opnd f) {
  switch (f) {
    case Opnd::Dir: case Opnd::Bit: case Opnd::NotBit:
    case Opnd::Imm: case Opnd::Rel: case Opnd::Addr11:
      return 1;
    case Opnd::Imm16: case Opnd::Addr16:
      return 2;
    default:
      return 0;
  }
}

constexpr std::array<OpInfo, 256> build() {
  std::array<OpInfo, 256> table{};
  std::array<bool, 256> defined{};
  for (const Row& row : kRows) {
    OpInfo info{row.mnemonic, row.operands, 0, 1, row.cycles, row.flow};
    int copies = 1, stride = 1;
    for (Operand& o : info.operands) {
      if (o.fmt == Opnd::None) break;
      ++info.count;
      if (o.fmt == Opnd::Rn) copies = 8;
      if (o.fmt == Opnd::AtRi) copies = 2;
      if (o.fmt == Opnd::Addr11) {
        copies = 8;
        stride = 0x20;
      }
      if (encoded_bytes(o.fmt) > 0 && o.slot == 0) o.slot = info.length;
      info.length = static_cast<std::uint8_t>(info.length + encoded_bytes(o.fmt));
    }
    for (int k = 0; k < copies; ++k) {
      const int op = row.op + k * stride;
      if (defined[op]) throw "opcode defined twice";
      defined[op] = true;
      table[op] = info;
    }
  }
  for (const bool d : defined)
    if (!d) throw "opcode missing from the table";
  return table;
}

}  // namespace

constexpr std::array<OpInfo, 256> kIsa = build();

}  // namespace ascp::mcu
