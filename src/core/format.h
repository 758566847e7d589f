// Text form of the double-valued carriers (Trop+, max-plus, Viterbi,
// fuzzy, R, R+): what DumpTsv writes and LoadTsv reads back.
#ifndef DATALOGO_CORE_FORMAT_H_
#define DATALOGO_CORE_FORMAT_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace datalogo {

/// `%g` (six significant digits, exactly what `ostream << x` prints) when
/// strtod of that text gives back the same bits, else `%.17g`, which
/// always does. Values that already round-tripped keep their old text;
/// the rest (1234567, 0.1234567, subnormals, ...) stop losing digits.
inline std::string FormatDouble(double x) {
  char buf[32];
  int n = std::snprintf(buf, sizeof buf, "%g", x);
  const double back = std::strtod(buf, nullptr);
  if (std::memcmp(&back, &x, sizeof x) != 0) {
    n = std::snprintf(buf, sizeof buf, "%.17g", x);
  }
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace datalogo

#endif  // DATALOGO_CORE_FORMAT_H_
