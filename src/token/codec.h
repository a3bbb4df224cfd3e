// Conversions between scaled integers, serialized text, and token ids.

#ifndef MULTICAST_TOKEN_CODEC_H_
#define MULTICAST_TOKEN_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "token/vocabulary.h"
#include "util/status.h"

namespace multicast {
namespace token {

/// Renders a scaled integer as exactly `digits` characters, zero-padded
/// ("7" with digits=3 -> "007"). The fixed width is what lets the
/// digit-interleaving multiplexer align digit positions across
/// dimensions. Errors when v needs more than `digits` characters or is
/// negative.
Result<std::string> FixedWidthDigits(int64_t v, int digits);

/// Parses a fixed-width digit string back to the integer.
Result<int64_t> ParseFixedWidthDigits(const std::string& s);

/// Encodes every character of `text` to its corpus id. Errors on symbols
/// missing from the vocabulary.
Result<std::vector<TokenId>> Encode(const std::string& text,
                                    const Vocabulary& vocab);

/// Decodes ids back to the surface string. Errors (InvalidArgument) on
/// an id outside the vocabulary.
Result<std::string> Decode(const std::vector<TokenId>& ids,
                           const Vocabulary& vocab);

}  // namespace token
}  // namespace multicast

#endif  // MULTICAST_TOKEN_CODEC_H_
