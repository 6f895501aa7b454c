#include "service/wire.h"

#include <cmath>
#include <limits>

#include "util/socket.h"

namespace bbsmine::service {

Status WriteFrame(int fd, const obs::JsonValue& message) {
  std::string payload = message.Serialize(/*indent=*/0);
  if (payload.size() > kMaxFrameBytes) {
    return Status::OutOfRange("frame payload exceeds " +
                              std::to_string(kMaxFrameBytes) + " bytes");
  }
  uint32_t length = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>(length >> (8 * i)));
  }
  frame += payload;
  return SendAll(fd, frame);
}

Result<obs::JsonValue> ReadFrame(int fd, int timeout_ms,
                                 int payload_timeout_ms,
                                 uint32_t max_frame_bytes) {
  std::string header;
  BBSMINE_RETURN_IF_ERROR(RecvExact(fd, 4, &header, timeout_ms));
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(header[i]))
              << (8 * i);
  }
  if (length == 0 || length > max_frame_bytes) {
    return Status::Corruption("bad frame length " + std::to_string(length));
  }
  std::string payload;
  Status received = RecvExact(fd, length, &payload, payload_timeout_ms);
  if (!received.ok()) {
    // A timeout mid-frame is a broken peer, not a routine poll timeout.
    if (received.code() == StatusCode::kUnavailable) {
      return Status::IoError("peer stalled mid-frame: " +
                             received.message());
    }
    if (received.code() == StatusCode::kNotFound) {
      return Status::IoError("peer closed mid-frame");
    }
    return received;
  }
  return obs::JsonValue::Parse(payload);
}

obs::JsonValue ErrorResponse(const std::string& verb, const Status& status) {
  obs::JsonValue response = obs::JsonValue::Object();
  response.Set("ok", obs::JsonValue::Bool(false));
  response.Set("verb", obs::JsonValue::String(verb));
  obs::JsonValue error = obs::JsonValue::Object();
  error.Set("code", obs::JsonValue::String(StatusCodeName(status.code())));
  error.Set("message", obs::JsonValue::String(status.message()));
  response.Set("error", std::move(error));
  return response;
}

std::string ErrorCodeOf(const obs::JsonValue& response) {
  // at() of a non-object is null, so a malformed response reads "".
  return response.at("error").at("code").AsString();
}

bool IsBackpressure(const obs::JsonValue& response) {
  return response.Has("ok") && !response.at("ok").AsBool() &&
         ErrorCodeOf(response) == StatusCodeName(StatusCode::kUnavailable);
}

obs::JsonValue UnknownVerbResponse(const obs::JsonValue& request) {
  if (request.kind() != obs::JsonValue::Kind::kObject ||
      request.at("verb").kind() != obs::JsonValue::Kind::kString) {
    return ErrorResponse(
        "", Status::InvalidArgument("request must be an object with a "
                                    "string \"verb\" member"));
  }
  const std::string& verb = request.at("verb").AsString();
  return ErrorResponse(verb, Status::InvalidArgument("unknown verb: " + verb));
}

obs::JsonValue OkResponse(Verb verb) {
  obs::JsonValue response = obs::JsonValue::Object();
  response.Set("ok", obs::JsonValue::Bool(true));
  response.Set("verb", obs::JsonValue::String(VerbName(verb)));
  return response;
}

obs::JsonValue VerbRequest(Verb verb) {
  obs::JsonValue request = obs::JsonValue::Object();
  request.Set("verb", obs::JsonValue::String(VerbName(verb)));
  return request;
}

Result<MineArgs> MineArgsFromJson(const obs::JsonValue& request,
                                  const MineArgs& defaults) {
  MineArgs args = defaults;
  if (request.Has("minsup")) {
    const obs::JsonValue& minsup = request.at("minsup");
    // Written so that NaN fails too.
    if (!minsup.is_number() ||
        !(minsup.AsDouble() > 0 && minsup.AsDouble() <= 1)) {
      return Status::InvalidArgument("\"minsup\" must be in (0, 1]");
    }
    args.min_support = minsup.AsDouble();
  }
  if (request.Has("top")) {
    const obs::JsonValue& top = request.at("top");
    bool whole = false;
    switch (top.kind()) {
      case obs::JsonValue::Kind::kInt:
        whole = top.AsInt() >= 1;
        break;
      case obs::JsonValue::Kind::kUint:
        whole = true;  // above INT64_MAX, so positive
        break;
      case obs::JsonValue::Kind::kDouble: {
        // A fractional or huge value is rejected, not truncated or
        // saturated.
        const double d = top.AsDouble();
        whole = d >= 1 && d <= 0x1p53 && d == std::floor(d);
        break;
      }
      default:
        break;
    }
    if (!whole) {
      return Status::InvalidArgument("\"top\" must be a positive int");
    }
    args.top = static_cast<size_t>(top.AsUint());
  }
  return args;
}

Result<Itemset> ItemsFromJson(const obs::JsonValue& array) {
  if (array.kind() != obs::JsonValue::Kind::kArray) {
    return Status::InvalidArgument("\"items\" must be an array of item ids");
  }
  Itemset items;
  items.reserve(array.size());
  for (size_t i = 0; i < array.size(); ++i) {
    const obs::JsonValue& v = array.at(i);
    if (!v.is_number() || v.AsInt() < 0 ||
        v.AsUint() > std::numeric_limits<ItemId>::max()) {
      return Status::InvalidArgument("\"items\" entries must be item ids");
    }
    items.push_back(static_cast<ItemId>(v.AsUint()));
  }
  Canonicalize(&items);
  return items;
}

obs::JsonValue ItemsToJson(const Itemset& items) {
  obs::JsonValue array = obs::JsonValue::Array();
  for (ItemId item : items) array.Append(obs::JsonValue::Uint(item));
  return array;
}

std::string BitsToHex(const BitVector& bits) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  const size_t num_bytes = (bits.size() + 7) / 8;
  std::string hex;
  hex.reserve(num_bytes * 2);
  for (size_t byte = 0; byte < num_bytes; ++byte) {
    uint8_t value = 0;
    for (size_t bit = 0; bit < 8; ++bit) {
      size_t pos = byte * 8 + bit;
      if (pos < bits.size() && bits.Get(pos)) value |= uint8_t{1} << bit;
    }
    hex.push_back(kHexDigits[value >> 4]);
    hex.push_back(kHexDigits[value & 0xf]);
  }
  return hex;
}

Result<BitVector> BitsFromHex(const std::string& hex, size_t num_bits) {
  const size_t num_bytes = (num_bits + 7) / 8;
  if (hex.size() != num_bytes * 2) {
    return Status::InvalidArgument(
        "signature hex length " + std::to_string(hex.size()) +
        " does not match " + std::to_string(num_bits) + " bits");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  BitVector bits(num_bits);
  for (size_t byte = 0; byte < num_bytes; ++byte) {
    int hi = nibble(hex[byte * 2]);
    int lo = nibble(hex[byte * 2 + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("signature is not valid hex");
    }
    uint8_t value = static_cast<uint8_t>((hi << 4) | lo);
    for (size_t bit = 0; bit < 8; ++bit) {
      size_t pos = byte * 8 + bit;
      if (pos >= num_bits) {
        if ((value >> bit) & 1) {
          return Status::InvalidArgument("signature has bits past num_bits");
        }
        continue;
      }
      if ((value >> bit) & 1) bits.Set(pos);
    }
  }
  return bits;
}

}  // namespace bbsmine::service
