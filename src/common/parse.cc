#include "common/parse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace tsj {

uint64_t ParsePositiveInt(const char* value, uint64_t max_value) {
  if (value == nullptr) return 0;
  const char* p = value;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '+') ++p;
  // A digit must come next: strtoull would itself skip whitespace and
  // accept a '-', wrapping "-1" into ~2^64.
  if (!std::isdigit(static_cast<unsigned char>(*p))) return 0;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(p, &end, 10);
  if (errno == ERANGE) return 0;
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (*end != '\0') return 0;  // trailing junk = unset
  if (parsed > max_value) return 0;
  return static_cast<uint64_t>(parsed);
}

bool ParseThreshold(const char* value, double* threshold) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0') return false;
  if (!(parsed >= 0.0 && parsed < 1.0)) return false;
  *threshold = parsed;
  return true;
}

}  // namespace tsj
