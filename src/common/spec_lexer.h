// The lexer the text grammars share: fault plans (src/fault/fault_plan.h)
// and scenario specs (src/chain/scenario_spec.h) split entries into tokens,
// read `key=value` operands and parse unsigned numbers with unit suffixes
// through these functions, so the two grammars accept the same literals.
//
// Numbers are strict: decimal digits only, no sign, no blanks, and a value
// whose scaled result does not fit 64 bits is rejected, never wrapped.
#ifndef SRC_COMMON_SPEC_LEXER_H_
#define SRC_COMMON_SPEC_LEXER_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace emu::lex {

// Whitespace-separated tokens of one entry; a token starting with '#' ends
// it (the rest of the entry is a comment).
std::vector<std::string> Tokenize(const std::string& entry);

// A unit suffix and what one of it is worth.
struct Unit {
  std::string_view suffix;
  u64 scale = 1;
};

// Unsigned decimal with an optional suffix from `units` (none: the bare
// number); false on a sign, an unknown suffix or an overflowing product.
bool ParseScaled(const std::string& text, std::initializer_list<Unit> units, u64& out);

// Unsigned decimal, no suffix.
bool ParseU64(const std::string& text, u64& out);

// Picoseconds with an optional ns/us/ms/s suffix ("500us", "2ms"; plain
// integers are already ps): network-timeline values, where raw picosecond
// literals are unreadably long.
bool ParseTimePs(const std::string& text, u64& out);

// "key=value" accessor over an operand token; false when `token` does not
// start with `key` followed by '=' and a non-empty value.
bool KeyValue(const std::string& token, const char* key, std::string& value);

}  // namespace emu::lex

#endif  // SRC_COMMON_SPEC_LEXER_H_
