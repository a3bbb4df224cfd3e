// Test-only references for the three multiplexing schemes, as they stood
// when each scheme was its own class deriving from a virtual interface.
//
// Each reference re-derives its scheme's cycle in every method with the
// loops the paper's equations suggest (DI walks digit-major, VI appends
// whole values, VC writes one field per value), and each keeps its own
// demultiplexing rule. multiplex::Multiplexer instead reads one cycle
// layout and applies one demultiplexing rule to every kind; matching
// these references bit for bit shows the merge moved no output.

#ifndef MULTICAST_TESTS_REFERENCE_MULTIPLEXERS_H_
#define MULTICAST_TESTS_REFERENCE_MULTIPLEXERS_H_

#include <memory>
#include <string>
#include <vector>

#include "multiplex/multiplexer.h"
#include "util/status.h"
#include "util/strings.h"

namespace multicast {
namespace multiplex {

class ReferenceMultiplexer {
 public:
  virtual ~ReferenceMultiplexer() = default;

  virtual Result<std::string> Multiplex(
      const MuxInput& input, const std::vector<int>& widths) const = 0;
  virtual Result<MuxInput> Demultiplex(const std::string& text,
                                       const std::vector<int>& widths,
                                       bool allow_partial) const = 0;
  virtual size_t TokensPerTimestamp(const std::vector<int>& widths) const = 0;
  virtual bool IsSeparatorPosition(size_t pos,
                                   const std::vector<int>& widths) const = 0;
  virtual int DimensionAtPosition(size_t pos,
                                  const std::vector<int>& widths) const = 0;

 protected:
  static Status ValidateInput(const MuxInput& input,
                              const std::vector<int>& widths) {
    if (input.values.empty()) {
      return Status::InvalidArgument("multiplex input has no dimensions");
    }
    if (widths.size() != input.values.size()) {
      return Status::InvalidArgument("widths/dimensions mismatch");
    }
    size_t len = input.values[0].size();
    if (len == 0) {
      return Status::InvalidArgument("multiplex input has no timestamps");
    }
    for (size_t d = 0; d < input.values.size(); ++d) {
      if (widths[d] < 1) return Status::InvalidArgument("width < 1");
      if (input.values[d].size() != len) {
        return Status::InvalidArgument("ragged dimensions");
      }
      for (const std::string& s : input.values[d]) {
        if (static_cast<int>(s.size()) != widths[d]) {
          return Status::InvalidArgument("value width mismatch");
        }
        if (!IsMuxSymbols(s)) {
          return Status::InvalidArgument("value is not alphanumeric");
        }
      }
    }
    return Status::OK();
  }

  static size_t SumWidths(const std::vector<int>& widths) {
    size_t total = 0;
    for (int w : widths) total += static_cast<size_t>(w);
    return total;
  }
};

class ReferenceDigitInterleave final : public ReferenceMultiplexer {
 public:
  Result<std::string> Multiplex(const MuxInput& input,
                                const std::vector<int>& widths) const override {
    MC_RETURN_IF_ERROR(ValidateInput(input, widths));
    MC_RETURN_IF_ERROR(ValidateUniformWidths(widths));
    const size_t dims = input.num_dims();
    const size_t b = static_cast<size_t>(widths[0]);
    std::string out;
    for (size_t t = 0; t < input.num_timestamps(); ++t) {
      if (t > 0) out.push_back(',');
      for (size_t j = 0; j < b; ++j) {
        for (size_t d = 0; d < dims; ++d) {
          out.push_back(input.values[d][t][j]);
        }
      }
    }
    return out;
  }

  Result<MuxInput> Demultiplex(const std::string& text,
                               const std::vector<int>& widths,
                               bool allow_partial) const override {
    if (widths.empty()) return Status::InvalidArgument("widths is empty");
    MC_RETURN_IF_ERROR(ValidateUniformWidths(widths));
    const size_t dims = widths.size();
    const size_t b = static_cast<size_t>(widths[0]);
    const size_t field_len = dims * b;
    MuxInput out;
    out.values.resize(dims);
    std::vector<std::string> fields = Split(text, ',');
    for (size_t f = 0; f < fields.size(); ++f) {
      const std::string& field = fields[f];
      if (field.size() != field_len || !IsMuxSymbols(field)) {
        if (allow_partial && f + 1 == fields.size()) break;
        return Status::InvalidArgument("malformed DI field");
      }
      for (size_t d = 0; d < dims; ++d) {
        std::string value(b, '0');
        for (size_t j = 0; j < b; ++j) value[j] = field[j * dims + d];
        out.values[d].push_back(std::move(value));
      }
    }
    if (out.num_timestamps() == 0) {
      return Status::InvalidArgument("no complete timestamp in DI stream");
    }
    return out;
  }

  size_t TokensPerTimestamp(const std::vector<int>& widths) const override {
    return SumWidths(widths) + 1;
  }

  bool IsSeparatorPosition(size_t pos,
                           const std::vector<int>& widths) const override {
    return pos + 1 == TokensPerTimestamp(widths);
  }

  int DimensionAtPosition(size_t pos,
                          const std::vector<int>& widths) const override {
    if (IsSeparatorPosition(pos, widths)) return -1;
    return static_cast<int>(pos % widths.size());
  }

 private:
  static Status ValidateUniformWidths(const std::vector<int>& widths) {
    for (size_t d = 1; d < widths.size(); ++d) {
      if (widths[d] != widths[0]) {
        return Status::InvalidArgument("DI needs a uniform width");
      }
    }
    return Status::OK();
  }
};

class ReferenceValueInterleave final : public ReferenceMultiplexer {
 public:
  Result<std::string> Multiplex(const MuxInput& input,
                                const std::vector<int>& widths) const override {
    MC_RETURN_IF_ERROR(ValidateInput(input, widths));
    std::string out;
    for (size_t t = 0; t < input.num_timestamps(); ++t) {
      if (t > 0) out.push_back(',');
      for (size_t d = 0; d < input.num_dims(); ++d) {
        out.append(input.values[d][t]);
      }
    }
    return out;
  }

  Result<MuxInput> Demultiplex(const std::string& text,
                               const std::vector<int>& widths,
                               bool allow_partial) const override {
    if (widths.empty()) return Status::InvalidArgument("widths is empty");
    for (int w : widths) {
      if (w < 1) return Status::InvalidArgument("widths must be >= 1");
    }
    const size_t field_len = SumWidths(widths);
    MuxInput out;
    out.values.resize(widths.size());
    std::vector<std::string> fields = Split(text, ',');
    for (size_t f = 0; f < fields.size(); ++f) {
      const std::string& field = fields[f];
      if (field.size() != field_len || !IsMuxSymbols(field)) {
        if (allow_partial && f + 1 == fields.size()) break;
        return Status::InvalidArgument("malformed VI field");
      }
      size_t offset = 0;
      for (size_t d = 0; d < widths.size(); ++d) {
        out.values[d].push_back(
            field.substr(offset, static_cast<size_t>(widths[d])));
        offset += static_cast<size_t>(widths[d]);
      }
    }
    if (out.num_timestamps() == 0) {
      return Status::InvalidArgument("no complete timestamp in VI stream");
    }
    return out;
  }

  size_t TokensPerTimestamp(const std::vector<int>& widths) const override {
    return SumWidths(widths) + 1;
  }

  bool IsSeparatorPosition(size_t pos,
                           const std::vector<int>& widths) const override {
    return pos + 1 == TokensPerTimestamp(widths);
  }

  int DimensionAtPosition(size_t pos,
                          const std::vector<int>& widths) const override {
    if (IsSeparatorPosition(pos, widths)) return -1;
    size_t cursor = 0;
    for (size_t d = 0; d < widths.size(); ++d) {
      cursor += static_cast<size_t>(widths[d]);
      if (pos < cursor) return static_cast<int>(d);
    }
    return -1;
  }
};

class ReferenceValueConcat final : public ReferenceMultiplexer {
 public:
  Result<std::string> Multiplex(const MuxInput& input,
                                const std::vector<int>& widths) const override {
    MC_RETURN_IF_ERROR(ValidateInput(input, widths));
    std::string out;
    for (size_t t = 0; t < input.num_timestamps(); ++t) {
      for (size_t d = 0; d < input.num_dims(); ++d) {
        if (t > 0 || d > 0) out.push_back(',');
        out.append(input.values[d][t]);
      }
    }
    return out;
  }

  Result<MuxInput> Demultiplex(const std::string& text,
                               const std::vector<int>& widths,
                               bool allow_partial) const override {
    if (widths.empty()) return Status::InvalidArgument("widths is empty");
    const size_t dims = widths.size();
    std::vector<std::string> fields = Split(text, ',');
    const size_t whole = fields.size() / dims;
    const size_t leftover = fields.size() % dims;
    if (leftover != 0 && !allow_partial) {
      return Status::InvalidArgument("fields do not form whole timestamps");
    }
    MuxInput out;
    out.values.resize(dims);
    for (size_t t = 0; t < whole; ++t) {
      bool group_ok = true;
      for (size_t d = 0; d < dims; ++d) {
        const std::string& field = fields[t * dims + d];
        if (static_cast<int>(field.size()) != widths[d] ||
            !IsMuxSymbols(field)) {
          group_ok = false;
          break;
        }
      }
      if (!group_ok) {
        if (allow_partial && t + 1 == whole && leftover == 0) break;
        return Status::InvalidArgument("malformed VC timestamp");
      }
      for (size_t d = 0; d < dims; ++d) {
        out.values[d].push_back(fields[t * dims + d]);
      }
    }
    if (out.num_timestamps() == 0) {
      return Status::InvalidArgument("no complete timestamp in VC stream");
    }
    return out;
  }

  size_t TokensPerTimestamp(const std::vector<int>& widths) const override {
    return SumWidths(widths) + widths.size();
  }

  bool IsSeparatorPosition(size_t pos,
                           const std::vector<int>& widths) const override {
    size_t cursor = 0;
    for (int w : widths) {
      cursor += static_cast<size_t>(w);
      if (pos < cursor) return false;
      if (pos == cursor) return true;
      ++cursor;
    }
    return false;
  }

  int DimensionAtPosition(size_t pos,
                          const std::vector<int>& widths) const override {
    size_t cursor = 0;
    for (size_t d = 0; d < widths.size(); ++d) {
      cursor += static_cast<size_t>(widths[d]);
      if (pos < cursor) return static_cast<int>(d);
      if (pos == cursor) return -1;
      ++cursor;
    }
    return -1;
  }
};

inline std::unique_ptr<ReferenceMultiplexer> CreateReferenceMultiplexer(
    MuxKind kind) {
  switch (kind) {
    case MuxKind::kDigitInterleave:
      return std::make_unique<ReferenceDigitInterleave>();
    case MuxKind::kValueInterleave:
      return std::make_unique<ReferenceValueInterleave>();
    case MuxKind::kValueConcat:
      return std::make_unique<ReferenceValueConcat>();
  }
  return nullptr;
}

}  // namespace multiplex
}  // namespace multicast

#endif  // MULTICAST_TESTS_REFERENCE_MULTIPLEXERS_H_
