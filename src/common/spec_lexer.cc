#include "src/common/spec_lexer.h"

#include <charconv>
#include <cstring>
#include <limits>
#include <sstream>

namespace emu::lex {

std::vector<std::string> Tokenize(const std::string& entry) {
  std::vector<std::string> tokens;
  std::istringstream in(entry);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') {
      break;  // comment: rest of the entry is ignored
    }
    tokens.push_back(token);
  }
  return tokens;
}

bool ParseScaled(const std::string& text, std::initializer_list<Unit> units, u64& out) {
  const char* first = text.data();
  const char* last = first + text.size();
  u64 value = 0;
  // from_chars takes digits only for an unsigned type: no sign, no blanks,
  // and result_out_of_range instead of a wrapped value.
  const auto [end, error] = std::from_chars(first, last, value);
  if (error != std::errc() || end == first) {
    return false;
  }
  const std::string_view suffix(end, static_cast<usize>(last - end));
  u64 scale = 1;
  if (!suffix.empty()) {
    const Unit* unit = nullptr;
    for (const Unit& candidate : units) {
      if (candidate.suffix == suffix) {
        unit = &candidate;
      }
    }
    if (unit == nullptr) {
      return false;
    }
    scale = unit->scale;
  }
  if (value > std::numeric_limits<u64>::max() / scale) {
    return false;
  }
  out = value * scale;
  return true;
}

bool ParseU64(const std::string& text, u64& out) { return ParseScaled(text, {}, out); }

bool ParseTimePs(const std::string& text, u64& out) {
  return ParseScaled(text,
                     {{"ns", static_cast<u64>(kPicosPerNano)},
                      {"us", static_cast<u64>(kPicosPerMicro)},
                      {"ms", static_cast<u64>(kPicosPerMilli)},
                      {"s", static_cast<u64>(kPicosPerSecond)}},
                     out);
}

bool KeyValue(const std::string& token, const char* key, std::string& value) {
  const usize key_len = std::strlen(key);
  if (token.size() <= key_len + 1 || token.compare(0, key_len, key) != 0 ||
      token[key_len] != '=') {
    return false;
  }
  value = token.substr(key_len + 1);
  return true;
}

}  // namespace emu::lex
