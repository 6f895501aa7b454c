// The bbsmined wire protocol: length-prefixed JSON frames over TCP.
//
// Frame layout (both directions):
//
//   +----------------+---------------------------+
//   | length: u32 LE | payload: `length` bytes of |
//   |                | UTF-8 JSON (one document)  |
//   +----------------+---------------------------+
//
// Requests are JSON objects with a "verb" member (the table in
// service/verbs.h) plus verb-specific fields; responses always carry
// "ok": true/false, an echoed "verb", and on failure an "error" object
// {code, message} where code is the StatusCodeName of the underlying
// Status — so a client can distinguish retryable backpressure
// (Unavailable) from real errors. docs/SERVICE.md is the protocol spec.
//
// Frames are bounded (kMaxFrameBytes) so a malformed length prefix cannot
// make the daemon allocate arbitrary memory.

#ifndef BBSMINE_SERVICE_WIRE_H_
#define BBSMINE_SERVICE_WIRE_H_

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "service/verbs.h"
#include "storage/transaction.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace bbsmine::service {

/// Largest accepted frame payload (16 MiB).
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Serializes `message` compactly and writes one frame to `fd`.
Status WriteFrame(int fd, const obs::JsonValue& message);

/// Reads one frame from `fd` and parses its payload.
///  * NotFound    — the peer closed the connection cleanly before a frame
///                  (idle client disconnect; not an error).
///  * Unavailable — no length prefix arrived within `timeout_ms` (callers
///                  polling a stop flag re-issue the read).
///  * IoError / Corruption — transport failure, oversized frame, or
///                  malformed JSON.
/// Once the length prefix arrives the payload is awaited with
/// `payload_timeout_ms` so a stalled peer cannot wedge a server thread.
Result<obs::JsonValue> ReadFrame(int fd, int timeout_ms = -1,
                                 int payload_timeout_ms = 10'000,
                                 uint32_t max_frame_bytes = kMaxFrameBytes);

/// Builds the uniform failure response for `status`, echoing `verb` as
/// the request spelled it ("" when it had none).
obs::JsonValue ErrorResponse(const std::string& verb, const Status& status);

inline obs::JsonValue ErrorResponse(Verb verb, const Status& status) {
  return ErrorResponse(VerbName(verb), status);
}

/// The error code of a failed response ("" for an ok or malformed one).
std::string ErrorCodeOf(const obs::JsonValue& response);

/// True for a well-formed Unavailable answer: the peer shed load and did
/// not apply the request, so re-sending any verb is safe.
bool IsBackpressure(const obs::JsonValue& response);

/// The failure response for a request VerbOf maps to kUnknown: not an
/// object with a string "verb" member, or a verb this build lacks.
obs::JsonValue UnknownVerbResponse(const obs::JsonValue& request);

/// Builds the uniform success envelope: {"ok": true, "verb": verb}.
obs::JsonValue OkResponse(Verb verb);

/// Builds a request document carrying only its verb: {"verb": verb}.
obs::JsonValue VerbRequest(Verb verb);

/// MINE's tuning members, decoded identically by the daemon and the router.
struct MineArgs {
  double min_support = 0;
  size_t top = 0;
};

/// Reads a MINE request's optional "minsup" (a number in (0, 1]) and
/// "top" (a whole number >= 1), taking `defaults` for absent members.
/// A fractional, non-finite or out-of-range value is InvalidArgument.
Result<MineArgs> MineArgsFromJson(const obs::JsonValue& request,
                                  const MineArgs& defaults);

/// Reads an "items" member (JSON array of non-negative integers) into a
/// canonical itemset.
Result<Itemset> ItemsFromJson(const obs::JsonValue& array);

/// Renders an itemset as a JSON array.
obs::JsonValue ItemsToJson(const Itemset& items);

/// Renders a bit vector as a lowercase hex string: byte i holds bits
/// [8i, 8i+8), least-significant bit first within the byte. Used by the
/// SHARDINFO verb to ship shard signatures compactly.
std::string BitsToHex(const BitVector& bits);

/// Parses a BitsToHex string back into a vector of exactly `num_bits` bits.
Result<BitVector> BitsFromHex(const std::string& hex, size_t num_bits);

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_WIRE_H_
