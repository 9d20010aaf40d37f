#include "mcu/disassembler.hpp"

#include <cstdio>
#include <iterator>

namespace ascp::mcu {

namespace {

std::string hex8(std::uint8_t v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02X", v);
  return buf;
}

std::string hex16(std::uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%04X", v);
  return buf;
}

/// Bit space: 0x00-0x7F index IRAM 0x20-0x2F; 0x80-0xFF index the
/// bit-addressable SFRs (bit address & 0xF8 is the SFR).
std::string bit_text(std::uint8_t bit) {
  const auto byte = static_cast<std::uint8_t>(bit < 0x80 ? 0x20 + bit / 8 : bit & 0xF8);
  return hex8(byte) + "." + std::to_string(bit & 7);
}

/// Encoded byte of the instruction's first written operand of format `fmt`
/// (the opcode itself for Rn).
std::optional<std::uint8_t> written(const Insn& in, Opnd fmt) {
  const OpInfo& info = in.info();
  for (int i = 0; i < info.count; ++i)
    if (info.operands[i].fmt == fmt && (info.operands[i].access & kWrite))
      return in.bytes[info.operands[i].slot];
  return std::nullopt;
}

}  // namespace

Insn decode(std::span<const std::uint8_t> code, std::uint16_t base, std::uint16_t addr) {
  Insn in;
  in.addr = addr;
  const std::size_t off = static_cast<std::uint16_t>(addr - base);
  in.truncated = off >= code.size();
  if (!in.truncated) in.bytes[0] = code[off];
  const OpInfo& info = in.info();
  in.length = info.length;
  in.flow = info.flow;
  for (std::size_t i = 1; i < static_cast<std::size_t>(in.length) && i < std::size(in.bytes); ++i) {
    in.truncated = in.truncated || off + i >= code.size();
    if (!in.truncated) in.bytes[i] = code[off + i];
  }

  const auto next = static_cast<std::uint16_t>(addr + in.length);
  for (int i = 0; i < info.count; ++i) {
    const Operand& o = info.operands[i];
    const std::uint8_t b = in.bytes[o.slot];
    switch (o.fmt) {
      case Opnd::Rel:
        in.target = static_cast<std::uint16_t>(next + static_cast<std::int8_t>(b));
        break;
      case Opnd::Addr11:
        in.target = static_cast<std::uint16_t>((next & 0xF800) | ((in.opcode() & 0xE0) << 3) | b);
        break;
      case Opnd::Addr16:
        in.target = static_cast<std::uint16_t>(b << 8 | in.bytes[o.slot + 1]);
        break;
      default: break;
    }
  }
  return in;
}

std::string Insn::text() const {
  const OpInfo& entry = info();
  if (entry.mnemonic.empty()) return "DB " + hex8(opcode());
  std::string out(entry.mnemonic);
  for (int i = 0; i < entry.count; ++i) {
    const Operand& o = entry.operands[i];
    const std::uint8_t b = bytes[o.slot];
    out += i == 0 ? " " : ", ";
    switch (o.fmt) {
      case Opnd::None: break;
      case Opnd::A: out += "A"; break;
      case Opnd::AB: out += "AB"; break;
      case Opnd::C: out += "C"; break;
      case Opnd::Dptr: out += "DPTR"; break;
      case Opnd::AtDptr: out += "@DPTR"; break;
      case Opnd::AtADptr: out += "@A+DPTR"; break;
      case Opnd::AtAPc: out += "@A+PC"; break;
      case Opnd::Rn: out += 'R'; out += static_cast<char>('0' + (opcode() & 7)); break;
      case Opnd::AtRi: out += "@R"; out += static_cast<char>('0' + (opcode() & 1)); break;
      case Opnd::Dir: out += hex8(b); break;
      case Opnd::Bit: out += bit_text(b); break;
      case Opnd::NotBit: out += '/'; out += bit_text(b); break;
      case Opnd::Imm: out += '#'; out += hex8(b); break;
      case Opnd::Imm16:
        out += '#';
        out += hex16(static_cast<std::uint16_t>(b << 8 | bytes[o.slot + 1]));
        break;
      case Opnd::Rel: case Opnd::Addr11: case Opnd::Addr16: out += hex16(target); break;
    }
  }
  return out;
}

std::optional<std::uint8_t> Insn::direct_written() const { return written(*this, Opnd::Dir); }

std::optional<std::uint8_t> Insn::bit_written() const { return written(*this, Opnd::Bit); }

bool Insn::accesses_direct(std::uint8_t dir) const {
  const OpInfo& entry = info();
  for (int i = 0; i < entry.count; ++i)
    if (entry.operands[i].fmt == Opnd::Dir && bytes[entry.operands[i].slot] == dir) return true;
  return false;
}

bool Insn::writes_rn(int n) const {
  return written(*this, Opnd::Rn).has_value() && (opcode() & 7) == n;
}

std::string disassemble_range(std::span<const std::uint8_t> code, std::uint16_t begin,
                              std::uint16_t end) {
  std::string out = "ORG " + hex16(begin) + "\n";
  std::uint32_t addr = begin;
  while (addr < end) {
    const Insn insn = decode(code, 0, static_cast<std::uint16_t>(addr));
    if (addr + static_cast<std::uint32_t>(insn.length) > end) {
      // Trailing partial instruction (e.g. data appended to code): keep the
      // byte-for-byte contract by flushing what's left as data.
      for (; addr < end; ++addr)
        out += "DB " + hex8(addr < code.size() ? code[addr] : 0) + "\n";
      break;
    }
    out += insn.text() + "\n";
    addr += static_cast<std::uint32_t>(insn.length);
  }
  return out;
}

}  // namespace ascp::mcu
