#include "multiplex/multiplexer.h"

#include <algorithm>
#include <cctype>

#include "util/strings.h"

namespace multicast {
namespace multiplex {

namespace {

// Widths every kind needs: at least one dimension, each at least one
// symbol wide; DI further needs one shared width.
Status ValidateWidths(MuxKind kind, const std::vector<int>& widths) {
  if (widths.empty()) return Status::InvalidArgument("widths is empty");
  for (size_t d = 0; d < widths.size(); ++d) {
    if (widths[d] < 1) {
      return Status::InvalidArgument(
          StrFormat("width of dimension %zu must be >= 1", d));
    }
    if (kind == MuxKind::kDigitInterleave && widths[d] != widths[0]) {
      return Status::InvalidArgument(
          StrFormat("digit-interleaving requires a uniform digit width; "
                    "dimension %zu has width %d vs %d",
                    d, widths[d], widths[0]));
    }
  }
  return Status::OK();
}

// Consistent dimensions, lengths and symbol widths.
Status ValidateInput(const MuxInput& input, const std::vector<int>& widths) {
  if (input.values.empty()) {
    return Status::InvalidArgument("multiplex input has no dimensions");
  }
  if (widths.size() != input.values.size()) {
    return Status::InvalidArgument(
        StrFormat("widths has %zu entries for %zu dimensions", widths.size(),
                  input.values.size()));
  }
  size_t len = input.values[0].size();
  if (len == 0) {
    return Status::InvalidArgument("multiplex input has no timestamps");
  }
  for (size_t d = 0; d < input.values.size(); ++d) {
    if (input.values[d].size() != len) {
      return Status::InvalidArgument(
          StrFormat("dimension %zu has %zu timestamps, expected %zu", d,
                    input.values[d].size(), len));
    }
    for (size_t t = 0; t < len; ++t) {
      const std::string& s = input.values[d][t];
      if (static_cast<int>(s.size()) != widths[d]) {
        return Status::InvalidArgument(
            StrFormat("value at dim %zu time %zu has width %zu, expected %d",
                      d, t, s.size(), widths[d]));
      }
      if (!IsMuxSymbols(s)) {
        return Status::InvalidArgument(
            StrFormat("value at dim %zu time %zu is not alphanumeric: '%s'",
                      d, t, s.c_str()));
      }
    }
  }
  return Status::OK();
}

}  // namespace

const char* MuxKindName(MuxKind kind) {
  switch (kind) {
    case MuxKind::kDigitInterleave:
      return "DI";
    case MuxKind::kValueInterleave:
      return "VI";
    case MuxKind::kValueConcat:
      return "VC";
  }
  return "?";
}

Result<MuxKind> ParseMuxKind(const std::string& name) {
  std::string upper;
  for (char c : name) upper.push_back(static_cast<char>(std::toupper(c)));
  if (upper == "DI") return MuxKind::kDigitInterleave;
  if (upper == "VI") return MuxKind::kValueInterleave;
  if (upper == "VC") return MuxKind::kValueConcat;
  return Status::InvalidArgument("unknown multiplexer '" + name +
                                 "' (expected DI, VI or VC)");
}

CycleLayout Multiplexer::Layout(const std::vector<int>& widths) const {
  const int dims = static_cast<int>(widths.size());
  CycleLayout layout;
  if (kind_ == MuxKind::kDigitInterleave) {
    const int longest =
        widths.empty() ? 0 : *std::max_element(widths.begin(), widths.end());
    for (int j = 0; j < longest; ++j) {
      for (int d = 0; d < dims; ++d) {
        if (j < widths[d]) layout.push_back({d, j});
      }
    }
  } else {
    for (int d = 0; d < dims; ++d) {
      for (int j = 0; j < widths[d]; ++j) layout.push_back({d, j});
      if (kind_ == MuxKind::kValueConcat) layout.push_back({});
    }
  }
  if (kind_ != MuxKind::kValueConcat) layout.push_back({});
  return layout;
}

Result<std::string> Multiplexer::Multiplex(
    const MuxInput& input, const std::vector<int>& widths) const {
  MC_RETURN_IF_ERROR(ValidateWidths(kind_, widths));
  MC_RETURN_IF_ERROR(ValidateInput(input, widths));
  const CycleLayout layout = Layout(widths);
  const size_t n = input.num_timestamps();

  std::string out;
  out.reserve(n * layout.size());
  for (size_t t = 0; t < n; ++t) {
    for (const CycleSlot& slot : layout) {
      out.push_back(slot.is_separator()
                        ? ','
                        : input.values[static_cast<size_t>(slot.dim)][t]
                                      [static_cast<size_t>(slot.digit)]);
    }
  }
  out.pop_back();  // the stream has no trailing comma
  return out;
}

Result<MuxInput> Multiplexer::Demultiplex(const std::string& text,
                                          const std::vector<int>& widths,
                                          bool allow_partial) const {
  MC_RETURN_IF_ERROR(ValidateWidths(kind_, widths));
  const CycleLayout layout = Layout(widths);
  // Symbols per field of one timestamp; the layout's final comma closes
  // the last field.
  std::vector<size_t> field_lens(1, 0);
  for (size_t p = 0; p + 1 < layout.size(); ++p) {
    if (layout[p].is_separator()) {
      field_lens.push_back(0);
    } else {
      ++field_lens.back();
    }
  }
  const size_t k = field_lens.size();

  std::vector<std::string> fields = Split(text, ',');
  const size_t whole = fields.size() / k;
  const size_t leftover = fields.size() % k;
  if (leftover != 0 && !allow_partial) {
    return Status::InvalidArgument(
        StrFormat("%zu fields do not form whole timestamps of %zu fields",
                  fields.size(), k));
  }

  MuxInput out;
  out.values.resize(widths.size());
  for (size_t t = 0; t < whole; ++t) {
    const std::string* group = &fields[t * k];
    bool group_ok = true;
    for (size_t f = 0; f < k && group_ok; ++f) {
      group_ok = group[f].size() == field_lens[f] && IsMuxSymbols(group[f]);
    }
    if (!group_ok) {
      bool is_last = t + 1 == whole && leftover == 0;
      if (allow_partial && is_last) break;
      return Status::InvalidArgument(
          StrFormat("timestamp %zu has a malformed field", t));
    }
    for (size_t d = 0; d < widths.size(); ++d) {
      out.values[d].emplace_back(static_cast<size_t>(widths[d]), '0');
    }
    size_t f = 0;
    size_t i = 0;
    for (const CycleSlot& slot : layout) {
      if (slot.is_separator()) {
        ++f;
        i = 0;
        continue;
      }
      out.values[static_cast<size_t>(slot.dim)].back()
                [static_cast<size_t>(slot.digit)] = group[f][i++];
    }
  }
  if (out.num_timestamps() == 0) {
    return Status::InvalidArgument(
        StrFormat("no complete timestamp in %s stream", MuxKindName(kind_)));
  }
  return out;
}

bool Multiplexer::IsSeparatorPosition(size_t pos,
                                      const std::vector<int>& widths) const {
  const CycleLayout layout = Layout(widths);
  return pos < layout.size() && layout[pos].is_separator();
}

int Multiplexer::DimensionAtPosition(size_t pos,
                                     const std::vector<int>& widths) const {
  const CycleLayout layout = Layout(widths);
  return pos < layout.size() ? layout[pos].dim : -1;
}

bool IsMuxSymbols(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::unique_ptr<Multiplexer> CreateMultiplexer(MuxKind kind) {
  return std::make_unique<Multiplexer>(kind);
}

}  // namespace multiplex
}  // namespace multicast
