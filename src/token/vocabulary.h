// Token vocabulary: the mapping between surface symbols and corpus ids.
//
// The paper's pipeline tokenizes each digit (or SAX symbol) and the comma
// separator individually, then "the tokens are replaced with their
// corresponding corpus id before being passed onto the model". The
// language model itself only ever sees TokenIds; the vocabulary also
// carries the *constraint set* — LLMTime restricts decoding to [0-9,],
// and the SAX variants restrict it to the active alphabet plus comma.

#ifndef MULTICAST_TOKEN_VOCABULARY_H_
#define MULTICAST_TOKEN_VOCABULARY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace multicast {
namespace token {

using TokenId = int32_t;

/// Bidirectional symbol <-> id map over single-character tokens.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Digits 0-9 plus the comma separator (LLMTime's constrained set).
  static Vocabulary Digits();

  /// First `alphabet_size` lowercase letters plus comma (alphabetical
  /// SAX). Sizes beyond 26 are unsupported.
  static Result<Vocabulary> SaxAlphabetic(int alphabet_size);

  /// Digits 0..alphabet_size-1 plus comma (digital SAX). The paper notes
  /// digital SAX caps at alphabet size 10 — enforced here.
  static Result<Vocabulary> SaxDigital(int alphabet_size);

  /// Adds a symbol; returns its id (existing id if already present).
  TokenId Add(char symbol);

  /// Id of `symbol`, or NotFound.
  Result<TokenId> IdOf(char symbol) const;

  /// Symbol of `id`, or OutOfRange.
  Result<char> SymbolOf(TokenId id) const;

  bool Contains(char symbol) const;

  size_t size() const { return symbols_.size(); }

  /// All symbols, in id order.
  const std::vector<char>& symbols() const { return symbols_; }

  /// Id of the comma separator, or NotFound when the vocabulary has none.
  Result<TokenId> CommaId() const { return IdOf(','); }

 private:
  static constexpr TokenId kAbsent = -1;

  /// Id of `symbol`, or kAbsent.
  TokenId Find(char symbol) const {
    return ids_[static_cast<unsigned char>(symbol)];
  }

  std::vector<char> symbols_;
  /// Id of every char, indexed by its unsigned char value.
  std::array<TokenId, 256> ids_ = [] {
    std::array<TokenId, 256> ids;
    ids.fill(kAbsent);
    return ids;
  }();
};

}  // namespace token
}  // namespace multicast

#endif  // MULTICAST_TOKEN_VOCABULARY_H_
