#pragma once
// Versioned wire codec of the process-per-shard backend: the typed frames
// the hub and its worker processes exchange over a transport Channel
// (sim/transport.hpp) — cross-shard handoff batches, window-control
// min-reductions and verdicts, abort votes, result blobs.
//
// Layout of every frame (little-endian, explicit field-by-field encoding —
// never a struct memcpy, so the format is independent of padding and
// compiler layout):
//
//   [u32 magic 'EMWC'] [u16 version] [u16 type] [body ...]
//
// The transport carries each frame length-prefixed, so the codec sees a
// complete byte buffer and validates it: a wrong magic, an unknown
// version, a mismatched type or ANY truncation decodes to a thrown
// WireError — a recoverable rejection, never UB.  decode_* additionally
// rejects trailing garbage (the frame must consume exactly its bytes):
// a frame that parses but leaves residue is as corrupt as a short one.
//
// Versioning: kWireVersion stamps every frame.  Every peer is a fork of
// the same binary, so live peers always agree on the layout; the magic
// and version check guards the byte stream instead — a frame boundary
// lost in the ring, or bytes that were never a frame, fail the header
// check with a diagnostic rather than decoding as garbage.
//
// Determinism: doubles travel as IEEE-754 bit patterns (util/bytes.hpp),
// so a CrossShardMsg decodes to the identical bits that were encoded and
// the destination's (deliver_at, source shard, seq) drain sort agrees
// bit-for-bit with the in-process backend.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/mailbox.hpp"
#include "util/bytes.hpp"
#include "util/types.hpp"

namespace emcast::sim::wire {

inline constexpr std::uint32_t kMagic = 0x43574D45u;  // "EMWC" little-endian
inline constexpr std::uint16_t kWireVersion = 1;

/// Frame types.  Values are wire-stable: append, never renumber.
enum class FrameType : std::uint16_t {
  kHello = 1,      ///< worker -> hub: worker index + owned shard block
  kKeys = 2,       ///< worker -> hub: per-shard time keys (or abort votes)
  kWindow = 3,     ///< hub -> workers: verdict + full key vector
  kHandoff = 4,    ///< worker -> hub -> worker: cross-shard message batch
  kRoundDone = 5,  ///< worker -> hub: window executed, handoffs flushed
  kDrainGo = 6,    ///< hub -> workers: all handoffs delivered, drain next
  kResult = 7,     ///< worker -> hub: per-shard model result blob
  kBye = 8,        ///< worker -> hub: final telemetry, clean exit
  kError = 9,      ///< worker -> hub: model exception message
};

/// Thrown on any malformed frame (bad magic/version/type, truncation,
/// trailing bytes, counts that disagree with the payload size).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

struct HelloFrame {
  std::uint32_t worker = 0;
  std::uint32_t shard_begin = 0;
  std::uint32_t shard_end = 0;  ///< exclusive
};

struct KeysFrame {
  std::uint64_t round = 0;
  std::uint32_t shard_begin = 0;       ///< first shard of the block
  std::vector<std::uint64_t> keys;     ///< one per owned shard, in order
};

enum class WindowVerdict : std::uint8_t {
  kRun = 0,    ///< execute the window derived from `keys`
  kDone = 1,   ///< horizon reached / all drained: epilogue + results
  kAbort = 2,  ///< a worker voted abort: unwind without results
};

struct WindowFrame {
  std::uint64_t round = 0;
  WindowVerdict verdict = WindowVerdict::kRun;
  /// Full per-shard key image (shard_count entries) when verdict == kRun;
  /// empty otherwise.  Every worker derives its shards' windows from this
  /// vector through the shared WindowPolicy — identical math, identical
  /// windows.
  std::vector<std::uint64_t> keys;
};

struct HandoffFrame {
  std::uint32_t dest_shard = 0;
  std::vector<CrossShardMsg> msgs;
};

struct RoundDoneFrame {
  std::uint64_t round = 0;
};

struct DrainGoFrame {
  std::uint64_t round = 0;
};

struct ResultFrame {
  std::uint32_t shard = 0;
  std::vector<std::uint8_t> blob;  ///< model-defined (see ShardResultWriter)
};

struct ByeFrame {
  std::uint64_t events_executed = 0;
  std::uint64_t messages_posted = 0;
  std::uint64_t messages_spilled = 0;
};

struct ErrorFrame {
  std::string message;
};

// -- encode: append one complete frame (header + body) to `out` ----------
void encode(std::vector<std::uint8_t>& out, const HelloFrame& f);
void encode(std::vector<std::uint8_t>& out, const KeysFrame& f);
void encode(std::vector<std::uint8_t>& out, const WindowFrame& f);
void encode(std::vector<std::uint8_t>& out, const HandoffFrame& f);
void encode(std::vector<std::uint8_t>& out, const RoundDoneFrame& f);
void encode(std::vector<std::uint8_t>& out, const DrainGoFrame& f);
void encode(std::vector<std::uint8_t>& out, const ResultFrame& f);
void encode(std::vector<std::uint8_t>& out, const ByeFrame& f);
void encode(std::vector<std::uint8_t>& out, const ErrorFrame& f);

/// Validate the header and return the frame's type.  Throws WireError on
/// bad magic, unknown version (diagnostic names both versions) or a
/// header shorter than the fixed prefix.
FrameType peek_type(const std::uint8_t* data, std::size_t size);

// -- decode: parse a complete frame of the given kind ---------------------
// Each checks the header (magic, version, exact type), then the body, and
// rejects any leftover bytes.  All throw WireError; none read past `size`.
HelloFrame decode_hello(const std::uint8_t* data, std::size_t size);
KeysFrame decode_keys(const std::uint8_t* data, std::size_t size);
WindowFrame decode_window(const std::uint8_t* data, std::size_t size);
HandoffFrame decode_handoff(const std::uint8_t* data, std::size_t size);
/// Destination shard of a handoff frame WITHOUT decoding the batch — the
/// hub's forwarding fast path (it relays the raw bytes to the owner).
std::uint32_t decode_handoff_dest(const std::uint8_t* data, std::size_t size);
RoundDoneFrame decode_round_done(const std::uint8_t* data, std::size_t size);
DrainGoFrame decode_drain_go(const std::uint8_t* data, std::size_t size);
ResultFrame decode_result(const std::uint8_t* data, std::size_t size);
ByeFrame decode_bye(const std::uint8_t* data, std::size_t size);
ErrorFrame decode_error(const std::uint8_t* data, std::size_t size);

}  // namespace emcast::sim::wire
