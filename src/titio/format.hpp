// The TITB binary Time-Independent Trace format, version 2.
//
// Layout (all fixed-width integers little-endian):
//
//   File        := Header ActionFrame* [CheckpointFrame] IndexFrame Footer
//   Header      := magic u32 ("TITB")  version u16  flags u16  nprocs u32
//   ActionFrame := 'A' u8  rank varint  action_count varint
//                  payload_size varint  payload  crc32(payload) u32
//   CheckpointFrame := 'C' u8  block_count varint  block_count varint
//                  payload_size varint  payload  crc32(payload) u32
//   IndexFrame  := 'I' u8  entry_count varint  entry_count varint
//                  payload_size varint  payload  crc32(payload) u32
//   Footer v1   := index_offset u64  total_actions u64  end magic u32 ("TITE")
//   Footer v2   := index_offset u64  ckpt_offset u64  total_actions u64
//                  end magic u32 ("TITE")
//
// Version 2 (docs/trace_format.md §version 2) adds the optional checkpoint
// frame: replay snapshots (src/ckpt) keyed by scenario fingerprint, placed
// between the last action frame and the index so every action offset — and
// therefore Reader::content_hash — is unchanged by appending checkpoints.
// ckpt_offset is 0 when the file carries no checkpoints.  Readers accept
// both versions; a v1 file is upgraded in place by rewriting its tail
// (checkpoint frame + index + v2 footer) and patching the header version.
//
// An action-frame payload is a run of actions of ONE rank, so the issuing
// rank is stored once per frame rather than once per action.  Each index
// payload entry is (rank varint, start-offset delta varint, action_count
// varint, payload_size varint) for one action frame, in file order: a
// reader seeks the footer, loads the single index frame, and from then on
// needs only one frame per rank in memory at a time.  Every frame payload
// is CRC-32 protected, so truncation and bit rot are detected per frame,
// not discovered as garbage actions.
//
// Action encoding inside a payload (docs/trace_format.md has the rationale):
//
//   action := type u8  flags u8  [partner varint]  [volume]  [volume2]
//
// Volumes are almost always integral counts (instructions, bytes), so they
// ship as varints; the flag bits switch to a raw 8-byte double for the rare
// fractional/huge value and elide absent fields entirely.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/binio.hpp"
#include "tit/action.hpp"

namespace tir::titio {

inline constexpr std::uint32_t kMagic = 0x42544954u;     ///< "TITB" as LE bytes
inline constexpr std::uint32_t kEndMagic = 0x45544954u;  ///< "TITE" as LE bytes
inline constexpr std::uint16_t kVersion = 2;
inline constexpr std::uint16_t kVersionV1 = 1;  ///< still readable (no ckpt frame)

inline constexpr std::uint8_t kActionFrame = 'A';
inline constexpr std::uint8_t kIndexFrame = 'I';
inline constexpr std::uint8_t kCheckpointFrame = 'C';

inline constexpr std::size_t kHeaderBytes = 12;
inline constexpr std::size_t kFooterBytesV1 = 20;
inline constexpr std::size_t kFooterBytesV2 = 28;
/// Smallest footer either version can have (used for minimum-size checks).
inline constexpr std::size_t kFooterBytes = kFooterBytesV1;
/// Upper bound of an encoded frame preamble: kind + three worst-case varints.
inline constexpr std::size_t kMaxFramePreamble = 1 + 3 * 10;

/// Action flag bits.
inline constexpr std::uint8_t kHasPartner = 1u << 0;  ///< partner varint follows
inline constexpr std::uint8_t kHasVolume = 1u << 1;   ///< volume field follows
inline constexpr std::uint8_t kVolumeF64 = 1u << 2;   ///< volume is a raw LE double
inline constexpr std::uint8_t kVolumeNone = 1u << 3;  ///< volume = tit::kNoVolume
inline constexpr std::uint8_t kHasVolume2 = 1u << 4;  ///< volume2 field follows
inline constexpr std::uint8_t kVolume2F64 = 1u << 5;  ///< volume2 is a raw LE double

/// One action frame as recorded in the index.
struct FrameRef {
  std::uint64_t offset = 0;         ///< file offset of the frame's kind byte
  std::uint64_t actions = 0;        ///< actions encoded in the payload
  std::uint64_t payload_bytes = 0;  ///< payload size (excl. preamble and CRC)
  std::uint32_t rank = 0;           ///< issuing rank of every action inside
};

/// Append one action (proc implied by the enclosing frame's rank).
void encode_action(std::vector<std::uint8_t>& out, const tit::Action& a);

namespace detail {
// The decoder's error paths, out of line so the inline decoder stays small.
[[noreturn]] void throw_truncated_header();
[[noreturn]] void throw_unknown_type(std::uint8_t type);
[[noreturn]] void throw_contradictory_flags();
[[noreturn]] void throw_partner_range();
[[noreturn]] void throw_truncated_double();

inline double get_f64(const std::uint8_t* data, std::size_t size, std::size_t& pos) {
  if (pos + 8 > size) throw_truncated_double();
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
  pos += 8;
  return std::bit_cast<double>(bits);
}

inline double get_volume(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                         bool raw_f64) {
  return raw_f64 ? get_f64(data, size, pos)
                 : static_cast<double>(binio::get_varint(data, size, pos));
}
}  // namespace detail

/// Decode one action from payload[pos...), advancing pos. The issuing rank
/// comes from the frame. Throws tir::ParseError on malformed bytes.  Inline:
/// it runs once per action of every streamed replay.
inline tit::Action decode_action(const std::uint8_t* payload, std::size_t size,
                                 std::size_t& pos, std::int32_t rank) {
  if (pos + 2 > size) detail::throw_truncated_header();
  const std::uint8_t type = payload[pos];
  const std::uint8_t flags = payload[pos + 1];
  pos += 2;
  if (type > static_cast<std::uint8_t>(tit::ActionType::Scatter)) {
    detail::throw_unknown_type(type);
  }
  if ((flags & kVolumeNone) && (flags & kHasVolume)) detail::throw_contradictory_flags();
  tit::Action a;
  a.type = static_cast<tit::ActionType>(type);
  a.proc = rank;
  if (flags & kHasPartner) {
    const std::uint64_t partner = binio::get_varint(payload, size, pos);
    if (partner > 0x7FFFFFFFull) detail::throw_partner_range();
    a.partner = static_cast<std::int32_t>(partner);
  }
  if (flags & kVolumeNone) {
    a.volume = tit::kNoVolume;
  } else if (flags & kHasVolume) {
    a.volume = detail::get_volume(payload, size, pos, (flags & kVolumeF64) != 0);
  }
  if (flags & kHasVolume2) {
    a.volume2 = detail::get_volume(payload, size, pos, (flags & kVolume2F64) != 0);
  }
  return a;
}

}  // namespace tir::titio
