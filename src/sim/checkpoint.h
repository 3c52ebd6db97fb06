// Versioned, bit-exact checkpoint envelope (DESIGN.md §14).
//
// A checkpoint is a CRNCKPT1 blob: a fixed magic + format version followed
// by named sections, each carrying its own CRC-32. StateWriter builds the
// blob in memory (no file I/O here — the harness owns atomic persistence);
// StateReader validates the envelope and hands back typed reads.
//
// Integers are little-endian; doubles are bit-cast to u64, so every value
// round-trips bit-exactly — the foundation of the restore guarantee that a
// run checkpointed at event k and resumed produces the same trace/metrics
// digests as the uninterrupted run.
//
// Error handling follows the flight recorder's decode style, not
// exceptions (simulation callbacks must stay noexcept — the
// throw-in-callback lint): the reader latches the first failure, every
// subsequent read returns zero, and ok()/error() report an actionable
// message naming the section and the corruption. Adversarial input
// (truncated, bit-flipped, wrong magic, future version) must fail cleanly —
// never crash or read out of bounds; tests/sim/checkpoint_test.cc and the
// asan/ubsan corpus test pin that.
//
// Components participate by implementing a save/load pair
//   void SaveState(StateWriter& writer) const;
//   void LoadState(StateReader& reader);
// writing one section each (the Checkpointable protocol). Closures are
// never serialized: restore reconstructs components fresh in the original
// bind order, loads their numeric state, and re-registers pending events
// under their original sequence numbers.
#ifndef CRN_SIM_CHECKPOINT_H_
#define CRN_SIM_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace crn::sim {

// Format identity. Bump kCheckpointVersion on any incompatible layout
// change; readers reject every other version with an actionable message.
// Version 2 dropped the scheduler-backend byte from "sim.core".
inline constexpr char kCheckpointMagic[8] = {'C', 'R', 'N', 'C',
                                             'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 2;

// CRC-32 (IEEE 802.3 polynomial, reflected) over `data` — the per-section
// integrity check. Exposed for tests and for the harness journal.
std::uint32_t Crc32(std::string_view data);

// Accumulates named sections into one CRNCKPT1 blob. Usage:
//   StateWriter writer;
//   writer.BeginSection("sim.core");
//   writer.WriteU64(...); ...
//   writer.EndSection();
//   ... more sections ...
//   std::string blob = writer.Finish();
class StateWriter {
 public:
  StateWriter() = default;

  void BeginSection(std::string_view name);
  void EndSection();

  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  void WriteU8(std::uint8_t value);
  void WriteU16(std::uint16_t value);
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteI32(std::int32_t value) {
    WriteU32(static_cast<std::uint32_t>(value));
  }
  void WriteI64(std::int64_t value) {
    WriteU64(static_cast<std::uint64_t>(value));
  }
  // Bit-cast through u64: the double round-trips exactly.
  void WriteDouble(double value);
  // Length-prefixed (u32) byte string.
  void WriteString(std::string_view value);

  // Seals the envelope and returns the blob. The writer is spent afterwards.
  [[nodiscard]] std::string Finish();

  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

 private:
  struct Section {
    std::string name;
    std::string payload;
  };

  std::vector<Section> sections_;
  std::string current_name_;
  std::string current_payload_;
  bool in_section_ = false;
};

// Parses a CRNCKPT1 blob and serves typed reads. The envelope (magic,
// version, section table, per-section CRCs) is validated up front in the
// constructor; typed reads are bounds-checked against the open section.
// After any failure, ok() is false, error() explains what went wrong, and
// every further read returns zero — callers can sequence reads without
// checking each one and inspect ok() once at the end.
class StateReader {
 public:
  // `blob` must outlive the reader (views into it are handed out).
  explicit StateReader(std::string_view blob);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  [[nodiscard]] bool HasSection(std::string_view name) const;
  // Positions the cursor at the start of `name`'s payload (CRC already
  // verified at construction). Missing section => latched error, false.
  bool OpenSection(std::string_view name);
  // Closes the open section; unread payload bytes are an error (a save/load
  // layout mismatch would otherwise silently misalign every later read).
  void EndSection();

  [[nodiscard]] bool ReadBool() { return ReadU8() != 0; }
  std::uint8_t ReadU8();
  std::uint16_t ReadU16();
  std::uint32_t ReadU32();
  std::uint64_t ReadU64();
  std::int32_t ReadI32() { return static_cast<std::int32_t>(ReadU32()); }
  std::int64_t ReadI64() { return static_cast<std::int64_t>(ReadU64()); }
  double ReadDouble();
  std::string ReadString();

  // Remaining unread bytes of the open section (0 when none is open).
  [[nodiscard]] std::size_t SectionBytesLeft() const;

 private:
  struct Section {
    std::string_view name;
    std::string_view payload;
  };

  void Fail(std::string message);
  // Takes `n` raw bytes from the open section, or fails and returns null.
  const char* Take(std::size_t n);

  std::vector<Section> sections_;
  std::string error_;
  std::int32_t open_ = -1;  // index into sections_, -1 = none
  std::size_t cursor_ = 0;  // read offset within the open section
};

// Convenience pair for the many components that checkpoint RNG streams:
// serializes the four raw xoshiro state words.
inline void WriteRng(StateWriter& writer, const crn::Rng& rng) {
  for (int i = 0; i < 4; ++i) writer.WriteU64(rng.state_word(i));
}
inline void ReadRng(StateReader& reader, crn::Rng& rng) {
  const std::uint64_t s0 = reader.ReadU64();
  const std::uint64_t s1 = reader.ReadU64();
  const std::uint64_t s2 = reader.ReadU64();
  const std::uint64_t s3 = reader.ReadU64();
  rng.RestoreState(s0, s1, s2, s3);
}

}  // namespace crn::sim

#endif  // CRN_SIM_CHECKPOINT_H_
