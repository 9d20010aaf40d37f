#include "mcu/assembler.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <optional>

#include "mcu/isa.hpp"

namespace ascp::mcu {

namespace {

std::string upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

/// Case-fold an operand without touching character literals ('w' stays 'w').
std::string upper_outside_quotes(std::string_view s) {
  std::string out(s);
  bool in_char = false;
  for (char& c : out) {
    if (c == '\'') in_char = !in_char;
    if (!in_char) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return std::string(s.substr(begin, end - begin + 1));
}

/// Syntactic class of one source operand. Fixed tokens and register forms
/// are recognised as written, '#…' is immediate data and '/…' a complemented
/// bit; anything else is an expression whose meaning (direct byte, bit or
/// branch target) the matching table entry decides. Rn/@Ri set `reg`.
Opnd classify(const std::string& op, int& reg) {
  if (op == "A") return Opnd::A;
  if (op == "AB") return Opnd::AB;
  if (op == "C") return Opnd::C;
  if (op == "DPTR") return Opnd::Dptr;
  if (op == "@DPTR") return Opnd::AtDptr;
  if (op == "@A+DPTR") return Opnd::AtADptr;
  if (op == "@A+PC") return Opnd::AtAPc;
  if (op.size() == 2 && op[0] == 'R' && op[1] >= '0' && op[1] <= '7') {
    reg = op[1] - '0';
    return Opnd::Rn;
  }
  if (op.size() == 3 && op[0] == '@' && op[1] == 'R' && (op[2] == '0' || op[2] == '1')) {
    reg = op[2] - '0';
    return Opnd::AtRi;
  }
  if (!op.empty() && op[0] == '#') return Opnd::Imm;
  if (!op.empty() && op[0] == '/') return Opnd::NotBit;
  return Opnd::Dir;
}

bool fits(Opnd cls, Opnd fmt) {
  if (cls == fmt) return true;
  if (cls == Opnd::Imm) return fmt == Opnd::Imm16;
  return cls == Opnd::Dir && (fmt == Opnd::Bit || fmt == Opnd::Rel || fmt == Opnd::Addr11 ||
                              fmt == Opnd::Addr16);
}

/// Opcode of the table entry matching (mnemonic, operand classes), with the
/// Rn/@Ri register index folded in. Family members share one entry shape,
/// so the ascending scan stops at the family's base opcode.
std::uint8_t opcode_for(const std::string& m, const std::vector<std::string>& ops, int line) {
  std::array<Opnd, 3> cls{};
  int reg = 0;
  for (std::size_t i = 0; i < ops.size() && i < cls.size(); ++i) cls[i] = classify(ops[i], reg);
  bool known = false;
  for (int op = 0; op < 256; ++op) {
    const OpInfo& info = kIsa[static_cast<std::size_t>(op)];
    if (info.mnemonic != m) continue;
    known = true;
    if (info.count != ops.size()) continue;
    bool match = true;
    for (int i = 0; i < info.count; ++i) match = match && fits(cls[i], info.operands[i].fmt);
    if (match) return static_cast<std::uint8_t>(op + reg);
  }
  if (!known) throw AsmError(line, "unknown mnemonic '" + m + "'");
  std::string listed;
  for (const auto& op : ops) listed += (listed.empty() ? "" : ", ") + op;
  throw AsmError(line, "bad operands for " + m + ": '" + listed + "'");
}

}  // namespace

Assembler::Assembler() {
  // Standard SFR byte symbols.
  const std::pair<const char*, std::uint16_t> sfrs[] = {
      {"P0", 0x80},  {"SP", 0x81},   {"DPL", 0x82},  {"DPH", 0x83}, {"PCON", 0x87},
      {"TCON", 0x88}, {"TMOD", 0x89}, {"TL0", 0x8A}, {"TL1", 0x8B}, {"TH0", 0x8C},
      {"TH1", 0x8D}, {"P1", 0x90},   {"SCON", 0x98}, {"SBUF", 0x99}, {"P2", 0xA0},
      {"IE", 0xA8},  {"P3", 0xB0},   {"IP", 0xB8},   {"PSW", 0xD0}, {"ACC", 0xE0},
      {"B", 0xF0}};
  for (const auto& [name, value] : sfrs) symbols_[name] = value;

  // Standard bit symbols.
  const std::pair<const char*, std::uint8_t> bits[] = {
      {"IT0", 0x88}, {"IE0", 0x89}, {"IT1", 0x8A}, {"IE1", 0x8B},
      {"TR0", 0x8C}, {"TF0", 0x8D}, {"TR1", 0x8E}, {"TF1", 0x8F},
      {"RI", 0x98},  {"TI", 0x99},  {"RB8", 0x9A}, {"TB8", 0x9B},
      {"REN", 0x9C}, {"SM2", 0x9D}, {"SM1", 0x9E}, {"SM0", 0x9F},
      {"EX0", 0xA8}, {"ET0", 0xA9}, {"EX1", 0xAA}, {"ET1", 0xAB},
      {"ES", 0xAC},  {"EA", 0xAF},
      {"CY", 0xD7},  {"AC", 0xD6},  {"F0", 0xD5},  {"RS1", 0xD4},
      {"RS0", 0xD3}, {"OV", 0xD2}};
  for (const auto& [name, value] : bits) bit_symbols_[name] = value;
}

void Assembler::define(const std::string& name, std::uint16_t value) {
  symbols_[upper(name)] = value;
}

std::vector<Assembler::Line> Assembler::parse(std::string_view source) {
  std::vector<Line> lines;
  int number = 0;
  std::size_t pos = 0;
  while (pos <= source.size()) {
    const auto eol = source.find('\n', pos);
    std::string raw(source.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                                     : eol - pos));
    pos = eol == std::string_view::npos ? source.size() + 1 : eol + 1;
    ++number;

    // Strip comments (respecting character literals like #';'), keeping the
    // comment text so ;@loop-… annotations survive parsing.
    std::string text, comment;
    bool in_char = false;
    std::size_t cut = raw.size();
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      if (c == '\'') in_char = !in_char;
      if (c == ';' && !in_char) {
        cut = i;
        break;
      }
      text += c;
    }
    if (cut < raw.size()) comment = trim(raw.substr(cut + 1));
    text = trim(text);

    Line line;
    line.number = number;

    // Loop annotations: ";@loop-bound N" / ";@loop-wait". Anything else
    // beginning with "@loop-" is a typo the analyzer must not silently skip.
    // A second ';' ends the annotation and starts an ordinary comment.
    if (const auto annot_end = comment.find(';'); annot_end != std::string::npos)
      if (comment.rfind("@loop-", 0) == 0) comment = trim(comment.substr(0, annot_end));
    if (comment.rfind("@loop-", 0) == 0) {
      if (comment.rfind("@loop-wait", 0) == 0 &&
          trim(comment.substr(10)).empty()) {
        line.annot = 2;
      } else if (comment.rfind("@loop-bound", 0) == 0) {
        const std::string arg = trim(comment.substr(11));
        char* end = nullptr;
        const long n = std::strtol(arg.c_str(), &end, 10);
        if (arg.empty() || end == nullptr || *end != '\0' || n < 1)
          throw AsmError(number,
                         "malformed ;@loop-bound annotation: expected a positive "
                         "iteration count, got '" + arg + "'");
        line.annot = 1;
        line.annot_bound = n;
      } else {
        throw AsmError(number, "unknown loop annotation ';" + comment +
                                   "' (expected ;@loop-bound N or ;@loop-wait)");
      }
    }

    if (text.empty()) {
      if (line.annot != 0) lines.push_back(line);  // binds to the next insn
      continue;
    }

    // Labels (several may share one line: "ok: done: SJMP done").
    for (;;) {
      const auto colon = text.find(':');
      if (colon == std::string::npos) break;
      const std::string head = trim(text.substr(0, colon));
      // Only treat as a label if the head is a bare identifier.
      const bool ident = !head.empty() && std::all_of(head.begin(), head.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
      });
      if (!ident || std::isdigit(static_cast<unsigned char>(head[0]))) break;
      if (!line.label.empty()) {
        // Emit the previous label as its own empty line so both resolve.
        Line extra;
        extra.number = number;
        extra.label = line.label;
        lines.push_back(extra);
      }
      line.label = upper(head);
      text = trim(text.substr(colon + 1));
    }

    if (!text.empty()) {
      const auto space = text.find_first_of(" \t");
      line.mnemonic = upper(trim(text.substr(0, space)));
      if (space != std::string::npos) {
        std::string rest = trim(text.substr(space));
        // EQU appears after the symbol name: "FOO EQU 5".
        const std::string rest_u = upper(rest);
        if (rest_u.rfind("EQU ", 0) == 0 || rest_u == "EQU") {
          line.label = line.mnemonic;  // the "mnemonic" was actually the name
          line.mnemonic = "EQU";
          rest = trim(rest.substr(3));
        }
        // Split operands on commas (respecting char literals).
        std::string cur;
        bool in_char2 = false;
        for (char c : rest) {
          if (c == '\'') in_char2 = !in_char2;
          if (c == ',' && !in_char2) {
            line.operands.push_back(upper_outside_quotes(trim(cur)));
            cur.clear();
          } else {
            cur += c;
          }
        }
        if (!trim(cur).empty()) line.operands.push_back(upper_outside_quotes(trim(cur)));
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

std::uint16_t Assembler::eval(const std::string& expr, int line) const {
  // Sum of +/- separated terms; each term is a literal or symbol.
  std::size_t i = 0;
  long total = 0;
  int sign = 1;
  bool any = false;

  // Strict literal parse: the whole body must be consumed, so "12Q4" or
  // "0x12G" is a diagnostic instead of a silently truncated value.
  auto parse_literal = [&](const std::string& digits, int base,
                           const std::string& term) -> long {
    std::size_t used = 0;
    long v = 0;
    try {
      v = std::stol(digits, &used, base);
    } catch (const std::exception&) {
      throw AsmError(line, "malformed numeric literal '" + term + "'");
    }
    if (used != digits.size())
      throw AsmError(line, "malformed numeric literal '" + term + "' (stray '" +
                               digits.substr(used) + "')");
    return v;
  };

  auto parse_term = [&](std::size_t& idx) -> long {
    std::string term;
    while (idx < expr.size() && expr[idx] != '+' && expr[idx] != '-') term += expr[idx++];
    term = trim(term);
    if (term.empty()) throw AsmError(line, "empty term in expression '" + expr + "'");
    // Character literal.
    if (term.size() == 3 && term.front() == '\'' && term.back() == '\'')
      return static_cast<unsigned char>(term[1]);
    // Dollar = current address is handled by the caller (not supported here).
    // Hex 0x…
    if (term.size() >= 2 && term[0] == '0' && term[1] == 'X')
      return parse_literal(term.substr(2), 16, term);
    // Suffix forms: …H hex, …B binary (must start with a digit).
    if (std::isdigit(static_cast<unsigned char>(term[0]))) {
      if (term.back() == 'H') return parse_literal(term.substr(0, term.size() - 1), 16, term);
      if (term.back() == 'B' && term.find_first_not_of("01B") == std::string::npos)
        return parse_literal(term.substr(0, term.size() - 1), 2, term);
      return parse_literal(term, 10, term);
    }
    const auto it = symbols_.find(term);
    if (it == symbols_.end())
      throw AsmError(line, "undefined symbol '" + term + "' (no matching label, EQU or define)");
    return it->second;
  };

  while (i < expr.size()) {
    if (expr[i] == '+') {
      sign = 1;
      ++i;
      continue;
    }
    if (expr[i] == '-') {
      sign = -1;
      ++i;
      continue;
    }
    total += sign * parse_term(i);
    sign = 1;
    any = true;
  }
  if (!any) throw AsmError(line, "empty expression");
  return static_cast<std::uint16_t>(total & 0xFFFF);
}

std::uint8_t Assembler::eval8(const std::string& expr, int line) const {
  return static_cast<std::uint8_t>(eval(expr, line) & 0xFF);
}

std::uint8_t Assembler::eval_bit(const std::string& expr, int line) const {
  const auto it = bit_symbols_.find(expr);
  if (it != bit_symbols_.end()) return it->second;
  // Dotted syntax: BYTE.N
  const auto dot = expr.rfind('.');
  if (dot != std::string::npos) {
    const std::uint16_t byte = eval(expr.substr(0, dot), line);
    const std::string bitstr = expr.substr(dot + 1);
    if (bitstr.empty() || bitstr.find_first_not_of("0123456789") != std::string::npos)
      throw AsmError(line, "malformed bit index in '" + expr + "'");
    const int bit = bitstr.size() == 1 ? bitstr[0] - '0' : 8;  // multi-digit > 7
    if (bit > 7) throw AsmError(line, "bit index out of range in '" + expr + "'");
    if (byte >= 0x80) {
      if (byte % 8 != 0) throw AsmError(line, "SFR not bit-addressable: '" + expr + "'");
      return static_cast<std::uint8_t>(byte + bit);
    }
    if (byte < 0x20 || byte > 0x2F)
      throw AsmError(line, "iram byte not bit-addressable: '" + expr + "'");
    return static_cast<std::uint8_t>((byte - 0x20) * 8 + bit);
  }
  return static_cast<std::uint8_t>(eval(expr, line) & 0xFF);
}

void Assembler::encode(const Line& l, std::uint16_t addr, std::vector<std::uint8_t>& out) const {
  const int ln = l.number;
  const std::uint8_t opcode = opcode_for(l.mnemonic, l.operands, ln);
  const OpInfo& info = op_info(opcode);
  std::uint8_t b[3] = {opcode, 0, 0};
  const auto end_addr = static_cast<std::uint16_t>(addr + info.length);
  for (int i = 0; i < info.count; ++i) {
    const Operand& o = info.operands[i];
    const std::string& src = l.operands[static_cast<std::size_t>(i)];
    switch (o.fmt) {
      case Opnd::Dir: b[o.slot] = eval8(src, ln); break;
      case Opnd::Bit: b[o.slot] = eval_bit(src, ln); break;
      case Opnd::NotBit: b[o.slot] = eval_bit(trim(src.substr(1)), ln); break;
      case Opnd::Imm: b[o.slot] = eval8(src.substr(1), ln); break;
      case Opnd::Imm16:
      case Opnd::Addr16: {
        const std::uint16_t v = eval(o.fmt == Opnd::Imm16 ? src.substr(1) : src, ln);
        b[o.slot] = static_cast<std::uint8_t>(v >> 8);
        b[o.slot + 1] = static_cast<std::uint8_t>(v & 0xFF);
        break;
      }
      case Opnd::Rel: {
        // The PC wraps at 64 KiB, so distance is taken modulo 2^16.
        const int delta = static_cast<std::int16_t>(eval(src, ln) - end_addr);
        if (delta < -128 || delta > 127)
          throw AsmError(ln, "relative branch out of range (" + std::to_string(delta) + ")");
        b[o.slot] = static_cast<std::uint8_t>(delta & 0xFF);
        break;
      }
      case Opnd::Addr11: {
        const std::uint16_t t = eval(src, ln);
        if ((t & 0xF800) != (end_addr & 0xF800))
          throw AsmError(ln, l.mnemonic + " target outside the current 2K page");
        b[0] = static_cast<std::uint8_t>(b[0] | ((t >> 3) & 0xE0));
        b[o.slot] = static_cast<std::uint8_t>(t & 0xFF);
        break;
      }
      default: break;  // fixed tokens and Rn/@Ri live in the opcode
    }
  }
  out.assign(b, b + info.length);
}

AsmResult Assembler::assemble(std::string_view source) {
  const auto lines = parse(source);

  // Pass 1: resolve label addresses and EQUs; compute total extent.
  std::uint16_t addr = 0;
  std::uint16_t lowest = 0xFFFF, highest = 0;
  bool emitted = false;
  for (const Line& l : lines) {
    if (!l.label.empty() && l.mnemonic != "EQU") {
      if (symbols_.contains(l.label))
        throw AsmError(l.number, "duplicate symbol '" + l.label + "'");
      symbols_[l.label] = addr;
    }
    if (l.mnemonic.empty()) continue;
    if (l.mnemonic == "EQU") {
      if (l.operands.size() != 1) throw AsmError(l.number, "EQU needs one value");
      symbols_[l.label] = eval(l.operands[0], l.number);
      continue;
    }
    if (l.mnemonic == "ORG") {
      if (l.operands.size() != 1) throw AsmError(l.number, "ORG needs one value");
      addr = eval(l.operands[0], l.number);
      continue;
    }
    if (l.mnemonic == "END") break;
    int size = 0;
    if (l.mnemonic == "DB") size = static_cast<int>(l.operands.size());
    else if (l.mnemonic == "DW") size = static_cast<int>(l.operands.size()) * 2;
    else if (l.mnemonic == "DS") size = eval(l.operands.at(0), l.number);
    else size = op_info(opcode_for(l.mnemonic, l.operands, l.number)).length;
    lowest = std::min(lowest, addr);
    addr = static_cast<std::uint16_t>(addr + size);
    highest = std::max(highest, addr);
    emitted = true;
  }

  AsmResult result;
  if (!emitted) return result;
  result.entry = lowest;
  result.image.assign(highest, 0x00);

  // Pass 2: encode. Loop annotations bind to the instruction emitted on
  // their line, or (for comment-only lines) to the next emitted instruction.
  addr = 0;
  struct PendingAnnot {
    LoopAnnot annot;
    int line;
  };
  std::optional<PendingAnnot> pending;
  const auto take_annot = [&pending](const Line& l) {
    if (l.annot == 0) return;
    if (pending)
      throw AsmError(l.number, "loop annotation shadows the unbound one on line " +
                                   std::to_string(pending->line));
    pending = PendingAnnot{LoopAnnot{l.annot_bound, l.annot == 2}, l.number};
  };
  for (const Line& l : lines) {
    take_annot(l);
    if (l.mnemonic.empty() || l.mnemonic == "EQU") continue;
    if (l.mnemonic == "ORG") {
      addr = eval(l.operands[0], l.number);
      continue;
    }
    if (l.mnemonic == "END") break;
    if (pending && (l.mnemonic == "DB" || l.mnemonic == "DW" || l.mnemonic == "DS"))
      throw AsmError(pending->line,
                     "loop annotation must precede an instruction, not data");
    std::vector<std::uint8_t> bytes;
    if (l.mnemonic == "DB") {
      for (const auto& op : l.operands) bytes.push_back(eval8(op, l.number));
    } else if (l.mnemonic == "DW") {
      for (const auto& op : l.operands) {
        const auto v = eval(op, l.number);
        bytes.push_back(static_cast<std::uint8_t>(v >> 8));
        bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
      }
    } else if (l.mnemonic == "DS") {
      bytes.assign(eval(l.operands.at(0), l.number), 0x00);
    } else {
      encode(l, addr, bytes);
      if (pending) {
        result.loop_annots[addr] = pending->annot;
        pending.reset();
      }
    }
    std::copy(bytes.begin(), bytes.end(), result.image.begin() + addr);
    addr = static_cast<std::uint16_t>(addr + bytes.size());
  }
  if (pending)
    throw AsmError(pending->line, "loop annotation binds to no instruction");

  result.symbols = symbols_;
  return result;
}

}  // namespace ascp::mcu
