#include "fed/codec.hpp"

namespace ganglia::fed {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Parse `value` as a plain decimal of at most kMaxValDigits digits.
bool plain_decimal(std::string_view value, bool& negative, std::size_t& scale,
                   std::uint64_t& digits) {
  std::size_t i = 0;
  negative = !value.empty() && value[0] == '-';
  if (negative) i = 1;
  const std::size_t int_begin = i;
  while (i < value.size() && is_digit(value[i])) ++i;
  const std::size_t int_digits = i - int_begin;
  if (int_digits == 0 || (int_digits > 1 && value[int_begin] == '0')) {
    return false;
  }
  scale = 0;
  if (i < value.size()) {
    if (value[i] != '.') return false;
    const std::size_t frac_begin = ++i;
    while (i < value.size() && is_digit(value[i])) ++i;
    scale = i - frac_begin;
    if (scale == 0 || i != value.size()) return false;
  }
  if (int_digits + scale > kMaxValDigits) return false;
  digits = 0;
  for (const char c : value.substr(int_begin)) {
    if (c != '.') digits = digits * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

void put_value(std::string& out, std::string_view value) {
  bool negative = false;
  std::size_t scale = 0;
  std::uint64_t digits = 0;
  if (!plain_decimal(value, negative, scale, digits)) {
    net::put_u8(out, kValText);
    net::put_string(out, value);
    return;
  }
  net::put_u8(out, static_cast<std::uint8_t>(scale << 1 | (negative ? 1 : 0)));
  net::put_varint(out, digits);
}

bool get_value(net::WireReader& r, std::string& value) {
  std::uint8_t head = 0;
  if (!r.get_u8(head)) return false;
  if (head == kValText) {
    std::string_view text;
    if (!r.get_string(text, kMaxStringBytes)) return false;
    value.assign(text);
    return true;
  }
  // At least one integer digit, so at most kMaxValDigits - 1 after the point.
  constexpr std::uint64_t kDigitsEnd = 10'000'000'000'000'000'000ull;  // 10^19
  const std::size_t scale = head >> 1;
  std::uint64_t digits = 0;
  if (scale >= kMaxValDigits || !r.get_varint(digits) || digits >= kDigitsEnd) {
    return false;
  }
  // Render right to left: at least scale + 1 digits, the point before the
  // last `scale` of them.
  char buf[kMaxValDigits + 2];
  char* const end = buf + sizeof buf;
  char* p = end;
  for (std::size_t n = 0; digits != 0 || n <= scale; ++n) {
    if (n == scale && scale != 0) *--p = '.';
    *--p = static_cast<char>('0' + digits % 10);
    digits /= 10;
  }
  if ((head & 1) != 0) *--p = '-';
  value.assign(p, static_cast<std::size_t>(end - p));
  return true;
}

std::string encode_poll(const PollRequest& req) {
  std::string payload;
  net::put_varint(payload, kMagic);
  net::put_varint(payload, req.codec_version);
  net::put_string(payload, req.session_id);
  net::put_varint(payload, req.last_version);
  net::put_varint(payload, req.max_frame);
  net::put_varint(payload, static_cast<std::uint8_t>(req.view));
  std::string out;
  net::put_frame(out, req.op == kOpPing ? kFramePing : kFramePoll, payload);
  return out;
}

Result<PollRequest> decode_request(std::uint8_t frame_type,
                                   std::string_view payload) {
  if (frame_type != kFramePoll && frame_type != kFramePing) {
    return Err(Errc::parse_error, "unexpected request frame type");
  }
  net::WireReader r(payload);
  std::uint64_t magic = 0;
  std::uint64_t codec = 0;
  if (!r.get_varint(magic) || !r.get_varint(codec)) {
    return Err(Errc::parse_error, "malformed poll request");
  }
  if (magic != kMagic) return Err(Errc::parse_error, "bad magic");
  // Another version may lay out the rest differently: refuse it by number.
  if (codec != kCodecVersion) {
    return Err(Errc::unsupported, "codec version mismatch");
  }
  std::string_view sid;
  std::uint64_t view = 0;
  PollRequest req;
  req.op = frame_type == kFramePing ? kOpPing : kOpPoll;
  if (!r.get_string(sid, kMaxSessionIdBytes) ||
      !r.get_varint(req.last_version) || !r.get_varint(req.max_frame) ||
      !r.get_varint(view) || !r.done()) {
    return Err(Errc::parse_error, "malformed poll request");
  }
  if (view >= kViews) return Err(Errc::parse_error, "unknown view");
  req.codec_version = static_cast<std::uint32_t>(codec);
  req.session_id.assign(sid);
  req.view = static_cast<View>(view);
  return req;
}

}  // namespace ganglia::fed
