#include "token/codec.h"

#include "util/strings.h"

namespace multicast {
namespace token {

Result<std::string> FixedWidthDigits(int64_t v, int digits) {
  if (v < 0) {
    return Status::InvalidArgument(
        StrFormat("negative scaled value %lld", static_cast<long long>(v)));
  }
  if (digits < 1 || digits > 18) {
    return Status::InvalidArgument(StrFormat("bad digit width %d", digits));
  }
  // Right to left: digits of v, then the zero padding already in place.
  std::string s(static_cast<size_t>(digits), '0');
  int64_t rest = v;
  for (size_t i = s.size(); i > 0 && rest > 0; --i) {
    s[i - 1] = static_cast<char>('0' + rest % 10);
    rest /= 10;
  }
  if (rest > 0) {
    return Status::OutOfRange(
        StrFormat("value %lld does not fit in %d digits",
                  static_cast<long long>(v), digits));
  }
  return s;
}

Result<int64_t> ParseFixedWidthDigits(const std::string& s) {
  if (!IsAllDigits(s)) {
    return Status::InvalidArgument("'" + s + "' is not all digits");
  }
  int64_t v = 0;
  for (char c : s) {
    if (v > (INT64_MAX - 9) / 10) {
      return Status::OutOfRange("digit string overflows int64: " + s);
    }
    v = v * 10 + (c - '0');
  }
  return v;
}

Result<std::vector<TokenId>> Encode(const std::string& text,
                                    const Vocabulary& vocab) {
  std::vector<TokenId> ids;
  ids.reserve(text.size());
  for (char c : text) {
    MC_ASSIGN_OR_RETURN(TokenId id, vocab.IdOf(c));
    ids.push_back(id);
  }
  return ids;
}

Result<std::string> Decode(const std::vector<TokenId>& ids,
                           const Vocabulary& vocab) {
  std::string text;
  text.reserve(ids.size());
  const std::vector<char>& symbols = vocab.symbols();
  for (TokenId id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= symbols.size()) {
      return Status::InvalidArgument(
          StrFormat("token id %d outside vocabulary of size %zu", id,
                    symbols.size()));
    }
    text.push_back(symbols[static_cast<size_t>(id)]);
  }
  return text;
}

}  // namespace token
}  // namespace multicast
