// Dimensional multiplexing (Sec. III-A): the paper's core contribution.
//
// A d-dimensional series, after per-dimension rescaling to fixed-width
// digit strings, is flattened into the single comma-separated token
// stream an LLM consumes. Three schemes are provided:
//
//   DI (digit-interleaving)  d1=17 d2=23 -> "1273"   (digits interleaved)
//   VI (value-interleaving)  d1=17 d2=23 -> "1723"   (values abutted)
//   VC (value-concatenation) d1=17 d2=23 -> "17,23"  (values as fields)
//
// Timestamps are separated by commas in every scheme. The schemes differ
// only in where each dimension's digits and the commas sit within one
// timestamp cycle, so that placement — the cycle layout — is the one
// per-scheme decision. Multiplex and Demultiplex walk it, and so do the
// forecaster's decoding grammar (which positions must hold the comma, as
// LLMTime restricts output to [0-9,]) and the anomaly extension's
// per-token attribution to dimensions. Demultiplexing is exact:
// Demultiplex(Multiplex(x)) == x.

#ifndef MULTICAST_MULTIPLEX_MULTIPLEXER_H_
#define MULTICAST_MULTIPLEX_MULTIPLEXER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace multicast {
namespace multiplex {

/// The three multiplexing schemes of the paper.
enum class MuxKind { kDigitInterleave, kValueInterleave, kValueConcat };

/// Short paper name of a scheme: "DI", "VI", "VC".
const char* MuxKindName(MuxKind kind);

/// Parses "DI"/"VI"/"VC" (case-insensitive).
Result<MuxKind> ParseMuxKind(const std::string& name);

/// Per-dimension fixed-width symbol strings: values[d][t] is the
/// serialized value of dimension d at timestamp t — b digit characters
/// in raw mode, one SAX symbol under quantization. All dimensions share
/// one length; the width of dimension d's strings must be constant
/// (widths[d]). Symbols must be alphanumeric (the comma is reserved as
/// the stream separator).
struct MuxInput {
  std::vector<std::vector<std::string>> values;

  size_t num_dims() const { return values.size(); }
  size_t num_timestamps() const {
    return values.empty() ? 0 : values[0].size();
  }
};

/// One position of a timestamp cycle: symbol `digit` of dimension `dim`,
/// or the comma separator when `dim` is -1.
struct CycleSlot {
  int dim = -1;
  int digit = 0;

  bool is_separator() const { return dim < 0; }
};

/// Every position of one timestamp in stream order, ending with the
/// comma that closes the timestamp. Its size is the timestamp's token
/// cost; the commas inside it split a timestamp into fields.
using CycleLayout = std::vector<CycleSlot>;

/// Flattens/unflattens multivariate symbol strings to/from one token
/// stream by walking the cycle layout of its kind. Stateless beyond the
/// kind, and thread-safe.
class Multiplexer {
 public:
  explicit Multiplexer(MuxKind kind) : kind_(kind) {}

  MuxKind kind() const { return kind_; }
  std::string name() const { return MuxKindName(kind_); }

  /// The cycle layout of this kind for per-dimension `widths`:
  ///   DI  digit j of every dimension before digit j+1 of any ("1273,")
  ///   VI  each dimension's whole value in turn               ("1723,")
  ///   VC  each value followed by its own comma               ("17,23,")
  /// DI is defined for uniform widths only (Multiplex and Demultiplex
  /// reject others); for mixed widths its layout skips a dimension once
  /// that dimension's digits run out. A width below 1 adds no slot.
  CycleLayout Layout(const std::vector<int>& widths) const;

  /// Serializes `input` to the 1-D text stream. `widths[d]` must match
  /// every values[d][t].size(). The stream has NO trailing comma.
  Result<std::string> Multiplex(const MuxInput& input,
                                const std::vector<int>& widths) const;

  /// Exact inverse of Multiplex, by one rule for every kind: a timestamp
  /// is the k comma-separated fields its layout holds (k = 1 for DI and
  /// VI, k = d for VC), and each whole group of k fields is validated
  /// before any of it is committed. When `allow_partial` is true (as
  /// for a token-budgeted LLM's output), a trailing partial group is
  /// dropped, and so is a malformed last whole group when no field
  /// follows it; any other malformed group is an error.
  Result<MuxInput> Demultiplex(const std::string& text,
                               const std::vector<int>& widths,
                               bool allow_partial) const;

  /// Tokens one timestamp occupies in the stream, including the
  /// separator comma(s) that follow its digits. Drives the token ledger
  /// and the generation budget for an h-step forecast.
  size_t TokensPerTimestamp(const std::vector<int>& widths) const {
    return Layout(widths).size();
  }

  /// True when position `pos` (0-based, within one timestamp cycle) must
  /// hold the comma separator rather than a digit.
  bool IsSeparatorPosition(size_t pos, const std::vector<int>& widths) const;

  /// Which dimension the symbol at cycle position `pos` serializes, or
  /// -1 at separator positions (and past the cycle).
  int DimensionAtPosition(size_t pos, const std::vector<int>& widths) const;

 private:
  MuxKind kind_;
};

/// True when `s` is a valid multiplexed value string: non-empty and all
/// alphanumeric (commas and whitespace are structural, never payload).
bool IsMuxSymbols(std::string_view s);

/// Instantiates the multiplexer for `kind`.
std::unique_ptr<Multiplexer> CreateMultiplexer(MuxKind kind);

}  // namespace multiplex
}  // namespace multicast

#endif  // MULTICAST_MULTIPLEX_MULTIPLEXER_H_
