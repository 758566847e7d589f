// TSV import/export for K-relations.
//
// Token grammar (one tuple per line):
//   line    := '#' comment | WS* | token (WS+ token)* WS*
//   token   := 1*<any byte except space, tab, CR, LF>
//   WS      := space | tab | CR
// Tokens are whitespace-delimited, so a symbol containing whitespace
// cannot be represented; DumpTsv/DumpTsvChecked reject such symbols
// instead of emitting text that SplitLine would re-split into extra
// columns on reload. A token matching `-?[0-9]+` interns as the 64-bit
// integer it spells (out-of-range integer tokens are a load error, not an
// exception); every other token interns as a symbol. Lines that are empty
// or whose first byte is '#' are skipped, which is why a symbol may not
// begin with '#': it would round-trip into a comment. CR before LF is
// treated as whitespace, so CRLF files load like LF files.
//
// POPS relations carry the value in the last column; Boolean relations
// are key-only.
#ifndef DATALOGO_RELATION_IO_H_
#define DATALOGO_RELATION_IO_H_

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/check.h"
#include "src/core/status.h"
#include "src/relation/relation.h"
#include "src/semiring/boolean.h"

namespace datalogo {
namespace io_internal {

inline bool LooksLikeInt(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// Interns one key token read from line `lineno`: integer-looking tokens
/// as integers, everything else as symbols. Returns InvalidArgument
/// naming the line — instead of letting std::stoll throw through the
/// loaders, or storing a symbol DumpTsv cannot write back — when the
/// token spells an integer that does not fit int64_t or begins with '#'
/// (the comment marker of the grammar above).
inline Status InternToken(const std::string& tok, int lineno, Domain* dom,
                          ConstId* out) {
  if (!tok.empty() && tok[0] == '#') {
    return InvalidArgument("line " + std::to_string(lineno) +
                           ": key may not begin with '#': '" + tok + "'");
  }
  if (LooksLikeInt(tok)) {
    int64_t v = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      return InvalidArgument("line " + std::to_string(lineno) +
                             ": integer key out of 64-bit range '" + tok +
                             "'");
    }
    *out = dom->InternInt(v);
    return Status::Ok();
  }
  *out = dom->InternSymbol(tok);
  return Status::Ok();
}

/// InternToken for callers that report their own error.
inline bool TryInternToken(const std::string& tok, Domain* dom,
                           ConstId* out) {
  return InternToken(tok, 0, dom, out).ok();
}

inline std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// True iff `text` is re-readable as a single token of the grammar above
/// AND re-interns as the same symbol (not as an integer, a comment, or
/// nothing at all).
inline bool IsDumpableSymbol(const std::string& text) {
  if (text.empty() || text[0] == '#') return false;
  if (LooksLikeInt(text)) return false;
  for (char ch : text) {
    if (ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n') return false;
  }
  return true;
}

}  // namespace io_internal

/// Loads a POPS relation from TSV text: k key columns then one value
/// column, parsed by `parse_value(text, &value) -> bool`. Lines that are
/// empty or start with '#' are skipped. Repeated tuples accumulate via ⊕.
template <Pops P, typename ParseFn>
Status LoadTsv(const std::string& text, Domain* dom, Relation<P>* rel,
               ParseFn&& parse_value) {
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  Tuple t;  // reused across lines; Merge copies it into the relation
  t.reserve(rel->arity());
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> toks = io_internal::SplitLine(line);
    if (toks.empty()) continue;
    if (static_cast<int>(toks.size()) != rel->arity() + 1) {
      return InvalidArgument("line " + std::to_string(lineno) +
                             ": expected " + std::to_string(rel->arity()) +
                             " keys + 1 value, got " +
                             std::to_string(toks.size()) + " columns");
    }
    t.clear();
    for (int i = 0; i < rel->arity(); ++i) {
      ConstId id = 0;
      Status s = io_internal::InternToken(toks[i], lineno, dom, &id);
      if (!s.ok()) return s;
      t.push_back(id);
    }
    typename P::Value v;
    if (!parse_value(toks.back(), &v)) {
      return InvalidArgument("line " + std::to_string(lineno) +
                             ": cannot parse value '" + toks.back() + "'");
    }
    rel->Merge(t, v);
  }
  return Status::Ok();
}

/// Loads a Boolean relation: every column is a key, the value is true.
inline Status LoadTsvBool(const std::string& text, Domain* dom,
                          Relation<BoolS>* rel) {
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  Tuple t;  // reused across lines; Set copies it into the relation
  t.reserve(rel->arity());
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> toks = io_internal::SplitLine(line);
    if (toks.empty()) continue;
    if (static_cast<int>(toks.size()) != rel->arity()) {
      return InvalidArgument("line " + std::to_string(lineno) +
                             ": expected " + std::to_string(rel->arity()) +
                             " key columns");
    }
    t.clear();
    for (const std::string& tok : toks) {
      ConstId id = 0;
      Status s = io_internal::InternToken(tok, lineno, dom, &id);
      if (!s.ok()) return s;
      t.push_back(id);
    }
    rel->Set(t, true);
  }
  return Status::Ok();
}

/// Standard value parsers for the common carriers.
/// Doubles parse as strtod reads them (so every FormatDouble text loads
/// back bit-exactly). Overflow and underflow to zero are errors; a
/// subnormal result is a value.
inline bool ParseDoubleValue(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (errno == ERANGE && std::fpclassify(v) != FP_SUBNORMAL) return false;
  *out = v;
  return true;
}
inline bool ParseUintValue(const std::string& s, uint64_t* out) {
  if (!io_internal::LooksLikeInt(s) || s[0] == '-') return false;
  uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return false;
  *out = v;
  return true;
}
inline bool ParseBoolValue(const std::string& s, bool* out) {
  if (s == "1" || s == "true") {
    *out = true;
    return true;
  }
  if (s == "0" || s == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// Dumps a relation as sorted TSV (keys then value), reading cells
/// straight out of the columnar store in lexicographic row order. Fails
/// with InvalidArgument — instead of silently emitting text that LoadTsv
/// would re-split into the wrong columns — when a key renders as a
/// non-dumpable symbol (contains whitespace, is empty, starts with '#',
/// or spells an integer; see the token grammar above).
template <Pops P>
Status DumpTsvChecked(const Relation<P>& rel, const Domain& dom,
                      std::string* out) {
  std::ostringstream os;
  for (uint32_t row : rel.SortedLiveRows()) {
    for (int p = 0; p < rel.arity(); ++p) {
      ConstId id = rel.Cell(row, p);
      std::string text = dom.ToString(id);
      if (!dom.IsInt(id) && !io_internal::IsDumpableSymbol(text)) {
        return InvalidArgument(
            "symbol not representable as a TSV token: '" + text + "'");
      }
      if (p) os << "\t";
      os << text;
    }
    os << "\t" << P::ToString(rel.ValueAt(row)) << "\n";
  }
  *out = os.str();
  return Status::Ok();
}

/// DumpTsvChecked for callers that treat a non-dumpable symbol as a
/// programming error: fails the process loudly instead of corrupting the
/// round-trip. Use DumpTsvChecked to recover instead.
template <Pops P>
std::string DumpTsv(const Relation<P>& rel, const Domain& dom) {
  std::string out;
  Status s = DumpTsvChecked(rel, dom, &out);
  DLO_CHECK_MSG(s.ok(), "DumpTsv: symbol not representable as a TSV token");
  return out;
}

}  // namespace datalogo

#endif  // DATALOGO_RELATION_IO_H_
