#include "token/vocabulary.h"

#include "util/strings.h"

namespace multicast {
namespace token {

Vocabulary Vocabulary::Digits() {
  Vocabulary v;
  for (char c = '0'; c <= '9'; ++c) v.Add(c);
  v.Add(',');
  return v;
}

Result<Vocabulary> Vocabulary::SaxAlphabetic(int alphabet_size) {
  if (alphabet_size < 2 || alphabet_size > 26) {
    return Status::InvalidArgument(
        StrFormat("alphabetical SAX supports sizes 2..26, got %d",
                  alphabet_size));
  }
  Vocabulary v;
  for (int i = 0; i < alphabet_size; ++i) {
    v.Add(static_cast<char>('a' + i));
  }
  v.Add(',');
  return v;
}

Result<Vocabulary> Vocabulary::SaxDigital(int alphabet_size) {
  if (alphabet_size < 2 || alphabet_size > 10) {
    return Status::InvalidArgument(
        StrFormat("digital SAX supports sizes 2..10, got %d", alphabet_size));
  }
  Vocabulary v;
  for (int i = 0; i < alphabet_size; ++i) {
    v.Add(static_cast<char>('0' + i));
  }
  v.Add(',');
  return v;
}

TokenId Vocabulary::Add(char symbol) {
  const TokenId existing = Find(symbol);
  if (existing != kAbsent) return existing;
  const TokenId id = static_cast<TokenId>(symbols_.size());
  symbols_.push_back(symbol);
  ids_[static_cast<unsigned char>(symbol)] = id;
  return id;
}

Result<TokenId> Vocabulary::IdOf(char symbol) const {
  const TokenId id = Find(symbol);
  if (id == kAbsent) {
    return Status::NotFound(StrFormat("symbol '%c' not in vocabulary",
                                      symbol));
  }
  return id;
}

Result<char> Vocabulary::SymbolOf(TokenId id) const {
  if (id < 0 || static_cast<size_t>(id) >= symbols_.size()) {
    return Status::OutOfRange(StrFormat("token id %d out of range", id));
  }
  return symbols_[static_cast<size_t>(id)];
}

bool Vocabulary::Contains(char symbol) const {
  return Find(symbol) != kAbsent;
}

}  // namespace token
}  // namespace multicast
