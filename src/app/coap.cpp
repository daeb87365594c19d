#include "app/coap.hpp"

#include <algorithm>
#include <cassert>

namespace mgap::app {

void CoapMessage::add_uri_path(std::string_view segment) {
  CoapOption opt;
  opt.number = kOptUriPath;
  opt.value.assign(segment.begin(), segment.end());
  options.push_back(std::move(opt));
  std::stable_sort(options.begin(), options.end(),
                   [](const CoapOption& a, const CoapOption& b) { return a.number < b.number; });
}

std::string CoapMessage::uri_path() const {
  std::string path;
  for (const CoapOption& opt : options) {
    if (opt.number != kOptUriPath) continue;
    if (!path.empty()) path += '/';
    path.append(opt.value.begin(), opt.value.end());
  }
  return path;
}

namespace {

// Option delta/length nibble encoding with the 13 / 14 extension bytes.
void encode_ext(std::vector<std::uint8_t>& out, std::size_t v, std::uint8_t nibble) {
  if (nibble == 13) {
    out.push_back(static_cast<std::uint8_t>(v - 13));
  } else if (nibble == 14) {
    const std::size_t x = v - 269;
    out.push_back(static_cast<std::uint8_t>(x >> 8));
    out.push_back(static_cast<std::uint8_t>(x & 0xFF));
  }
}

std::uint8_t nibble_for(std::size_t v) {
  if (v < 13) return static_cast<std::uint8_t>(v);
  if (v < 269) return 13;
  return 14;
}

}  // namespace

std::vector<std::uint8_t> coap_encode(const CoapMessage& msg) {
  assert(msg.token.size() <= 8);
  // Upper bound (an option header is at most 1 + 2 + 2 bytes): one
  // allocation, no reallocation while inserting.
  std::size_t bound = 4 + msg.token.size() + 1 + msg.payload.size();
  for (const CoapOption& opt : msg.options) bound += 5 + opt.value.size();
  std::vector<std::uint8_t> out;
  out.reserve(bound);
  out.push_back(static_cast<std::uint8_t>(
      1U << 6 | static_cast<unsigned>(msg.type) << 4 | msg.token.size()));
  out.push_back(msg.code);
  out.push_back(static_cast<std::uint8_t>(msg.message_id >> 8));
  out.push_back(static_cast<std::uint8_t>(msg.message_id & 0xFF));
  out.insert(out.end(), msg.token.begin(), msg.token.end());

  std::uint16_t last = 0;
  for (const CoapOption& opt : msg.options) {
    assert(opt.number >= last && "options must be sorted");
    const std::size_t delta = opt.number - last;
    const std::uint8_t dn = nibble_for(delta);
    const std::uint8_t ln = nibble_for(opt.value.size());
    out.push_back(static_cast<std::uint8_t>(dn << 4 | ln));
    encode_ext(out, delta, dn);
    encode_ext(out, opt.value.size(), ln);
    out.insert(out.end(), opt.value.begin(), opt.value.end());
    last = opt.number;
  }
  if (!msg.payload.empty()) {
    out.push_back(0xFF);
    out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  }
  return out;
}

namespace {

std::optional<std::size_t> decode_ext(std::span<const std::uint8_t>& cursor, std::uint8_t nibble) {
  if (nibble < 13) return nibble;
  if (nibble == 13) {
    if (cursor.empty()) return std::nullopt;
    const std::size_t v = 13U + cursor[0];
    cursor = cursor.subspan(1);
    return v;
  }
  if (nibble == 14) {
    if (cursor.size() < 2) return std::nullopt;
    const std::size_t v = 269U + (static_cast<std::size_t>(cursor[0]) << 8 | cursor[1]);
    cursor = cursor.subspan(2);
    return v;
  }
  return std::nullopt;  // 15 is the payload marker, illegal here
}

}  // namespace

std::optional<CoapMessage> coap_decode(std::span<const std::uint8_t> data) {
  if (data.size() < 4) return std::nullopt;
  if (data[0] >> 6 != 1) return std::nullopt;  // version
  CoapMessage msg;
  msg.type = static_cast<CoapType>((data[0] >> 4) & 0x03);
  const std::uint8_t tkl = data[0] & 0x0F;
  if (tkl > 8) return std::nullopt;
  msg.code = data[1];
  msg.message_id = static_cast<std::uint16_t>(data[2] << 8 | data[3]);
  std::span<const std::uint8_t> cursor = data.subspan(4);
  if (cursor.size() < tkl) return std::nullopt;
  msg.token.assign(cursor.begin(), cursor.begin() + tkl);
  cursor = cursor.subspan(tkl);

  std::uint16_t number = 0;
  while (!cursor.empty()) {
    if (cursor[0] == 0xFF) {
      cursor = cursor.subspan(1);
      if (cursor.empty()) return std::nullopt;  // marker with empty payload
      msg.payload.assign(cursor.begin(), cursor.end());
      break;
    }
    const std::uint8_t dn = cursor[0] >> 4;
    const std::uint8_t ln = cursor[0] & 0x0F;
    if (dn == 15 || ln == 15) return std::nullopt;
    cursor = cursor.subspan(1);
    const auto delta = decode_ext(cursor, dn);
    const auto len = decode_ext(cursor, ln);
    if (!delta || !len || cursor.size() < *len) return std::nullopt;
    // Option numbers are 16-bit (RFC 7252 5.4.6); a delta that would wrap
    // past 65535 cannot come from a conforming encoder.
    if (*delta > 0xFFFFu - number) return std::nullopt;
    number = static_cast<std::uint16_t>(number + *delta);
    CoapOption opt;
    opt.number = number;
    opt.value.assign(cursor.begin(), cursor.begin() + static_cast<std::ptrdiff_t>(*len));
    cursor = cursor.subspan(*len);
    msg.options.push_back(std::move(opt));
  }
  return msg;
}

}  // namespace mgap::app
