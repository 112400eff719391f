#include "storage/serde.h"

#include <bit>
#include <cstring>

namespace tgraph::storage {

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

Result<uint64_t> GetVarint(std::string_view data, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++*pos;
    // The 10th byte carries only bit 64; anything above it would be
    // silently shifted out, letting two encodings decode to one value —
    // reject instead (these bytes now arrive off a socket).
    if (shift == 63 && (byte & 0xfe) != 0) {
      return Status::IoError("varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::IoError("truncated or overlong varint");
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutVarint(out, bytes.size());
  out->append(bytes);
}

Result<std::string_view> GetBytes(std::string_view data, size_t* pos) {
  TG_ASSIGN_OR_RETURN(uint64_t length, GetVarint(data, pos));
  // Compare against the remainder, never `*pos + length`: an adversarial
  // length prefix near UINT64_MAX would wrap the addition past the check.
  if (length > data.size() - *pos) {
    return Status::IoError("truncated or oversized byte string");
  }
  std::string_view result = data.substr(*pos, length);
  *pos += length;
  return result;
}

void PutFixed64(std::string* out, uint64_t value) {
  char buffer[8];
  std::memcpy(buffer, &value, 8);  // little-endian on all supported targets
  out->append(buffer, 8);
}

Result<uint64_t> GetFixed64(std::string_view data, size_t* pos) {
  if (*pos + 8 > data.size()) return Status::IoError("truncated fixed64");
  uint64_t value;
  std::memcpy(&value, data.data() + *pos, 8);
  *pos += 8;
  return value;
}

namespace {

// Decoder hardening: these blobs arrive off sockets and untrusted files,
// so compound decoders (a) refuse element counts that exceed the bytes
// remaining divided by the element's minimum encoded size — catching
// adversarial counts before any reserve() can balloon memory — and (b)
// cap the nesting depth of compound-in-compound payloads so a future
// nested value type cannot be driven into unbounded recursion.
constexpr int kMaxDecodeDepth = 16;

Status CheckDepth(int depth) {
  if (depth > kMaxDecodeDepth) {
    return Status::IoError("decode nesting depth exceeds " +
                           std::to_string(kMaxDecodeDepth));
  }
  return Status::OK();
}

Status CheckCount(uint64_t count, std::string_view data, size_t pos,
                  size_t min_item_bytes, const char* what) {
  size_t remaining = data.size() - pos;
  if (count > remaining / min_item_bytes) {
    return Status::IoError("implausible " + std::string(what) + " count " +
                           std::to_string(count) + " (only " +
                           std::to_string(remaining) + " bytes remain)");
  }
  return Status::OK();
}

Result<Properties> DeserializePropertiesAt(std::string_view data, size_t* pos,
                                           int depth);

// Tags for PropertyValue payloads.
constexpr uint8_t kTagInt = 0;
constexpr uint8_t kTagDouble = 1;
constexpr uint8_t kTagBool = 2;
constexpr uint8_t kTagString = 3;

void SerializeValue(const PropertyValue& value, std::string* out) {
  switch (value.type()) {
    case PropertyValue::Type::kInt:
      out->push_back(static_cast<char>(kTagInt));
      PutFixed64(out, static_cast<uint64_t>(value.AsInt()));
      break;
    case PropertyValue::Type::kDouble:
      out->push_back(static_cast<char>(kTagDouble));
      PutFixed64(out, std::bit_cast<uint64_t>(value.AsDouble()));
      break;
    case PropertyValue::Type::kBool:
      out->push_back(static_cast<char>(kTagBool));
      out->push_back(value.AsBool() ? 1 : 0);
      break;
    case PropertyValue::Type::kString:
      out->push_back(static_cast<char>(kTagString));
      PutBytes(out, value.AsString());
      break;
  }
}

Result<PropertyValue> DeserializeValue(std::string_view data, size_t* pos) {
  if (*pos >= data.size()) return Status::IoError("truncated value tag");
  uint8_t tag = static_cast<uint8_t>(data[*pos]);
  ++*pos;
  switch (tag) {
    case kTagInt: {
      TG_ASSIGN_OR_RETURN(uint64_t raw, GetFixed64(data, pos));
      return PropertyValue(static_cast<int64_t>(raw));
    }
    case kTagDouble: {
      TG_ASSIGN_OR_RETURN(uint64_t raw, GetFixed64(data, pos));
      return PropertyValue(std::bit_cast<double>(raw));
    }
    case kTagBool: {
      if (*pos >= data.size()) return Status::IoError("truncated bool");
      bool value = data[*pos] != 0;
      ++*pos;
      return PropertyValue(value);
    }
    case kTagString: {
      TG_ASSIGN_OR_RETURN(std::string_view bytes, GetBytes(data, pos));
      return PropertyValue(std::string(bytes));
    }
    default:
      return Status::IoError("unknown value tag " + std::to_string(tag));
  }
}

Result<Properties> DeserializePropertiesAt(std::string_view data, size_t* pos,
                                           int depth) {
  TG_RETURN_IF_ERROR(CheckDepth(depth));
  TG_ASSIGN_OR_RETURN(uint64_t count, GetVarint(data, pos));
  // Minimum entry: 1-byte empty key + 1-byte tag + 1-byte bool payload.
  TG_RETURN_IF_ERROR(CheckCount(count, data, *pos, 3, "property"));
  Properties::EntryVector entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TG_ASSIGN_OR_RETURN(std::string_view key, GetBytes(data, pos));
    TG_ASSIGN_OR_RETURN(PropertyValue value, DeserializeValue(data, pos));
    entries.emplace_back(std::string(key), std::move(value));
  }
  // Writers emit entries sorted by key, so this adopts the vector in one
  // move for every well-formed blob (FromEntries falls back to per-entry
  // Set for out-of-order or duplicate keys from foreign writers).
  return Properties::FromEntries(std::move(entries));
}

}  // namespace

void SerializeProperties(const Properties& props, std::string* out) {
  PutVarint(out, props.size());
  for (const auto& [key, value] : props.entries()) {
    PutBytes(out, key);
    SerializeValue(value, out);
  }
}

Result<Properties> DeserializeProperties(std::string_view data, size_t* pos) {
  return DeserializePropertiesAt(data, pos, /*depth=*/0);
}

void SerializeHistory(const History& history, std::string* out) {
  PutVarint(out, history.size());
  for (const HistoryItem& item : history) {
    PutFixed64(out, static_cast<uint64_t>(item.interval.start));
    PutFixed64(out, static_cast<uint64_t>(item.interval.end));
    SerializeProperties(item.properties, out);
  }
}

Result<Properties> PropsRunCache::DecodeAt(std::string_view data,
                                           size_t* pos) {
  if (valid_ && data.substr(*pos).starts_with(last_bytes_)) {
    *pos += last_bytes_.size();
    return last_props_;
  }
  size_t start = *pos;
  TG_ASSIGN_OR_RETURN(Properties props,
                      DeserializePropertiesAt(data, pos, /*depth=*/1));
  last_bytes_ = data.substr(start, *pos - start);
  last_props_ = props;
  valid_ = true;
  return props;
}

Result<History> DeserializeHistory(std::string_view data, size_t* pos,
                                   PropsRunCache* cache) {
  PropsRunCache local;
  if (cache == nullptr) cache = &local;
  TG_ASSIGN_OR_RETURN(uint64_t count, GetVarint(data, pos));
  // Minimum item: two fixed64 interval bounds + 1-byte property count.
  TG_RETURN_IF_ERROR(CheckCount(count, data, *pos, 17, "history item"));
  History history;
  history.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TG_ASSIGN_OR_RETURN(uint64_t start, GetFixed64(data, pos));
    TG_ASSIGN_OR_RETURN(uint64_t end, GetFixed64(data, pos));
    TG_ASSIGN_OR_RETURN(Properties props, cache->DecodeAt(data, pos));
    history.push_back(HistoryItem{Interval(static_cast<TimePoint>(start),
                                           static_cast<TimePoint>(end)),
                                  std::move(props)});
  }
  return history;
}

void SerializeBitset(const Bitset& bitset, std::string* out) {
  PutVarint(out, bitset.size());
  for (uint64_t word : bitset.words()) PutFixed64(out, word);
}

Result<Bitset> DeserializeBitset(std::string_view data, size_t* pos) {
  TG_ASSIGN_OR_RETURN(uint64_t size, GetVarint(data, pos));
  // Divide before multiplying: `(size + 63) / 64` wraps for sizes near
  // UINT64_MAX, and each word costs 8 encoded bytes.
  uint64_t num_words = size / 64 + (size % 64 != 0 ? 1 : 0);
  TG_RETURN_IF_ERROR(CheckCount(num_words, data, *pos, 8, "bitset word"));
  std::vector<uint64_t> words;
  words.reserve(num_words);
  for (size_t i = 0; i < num_words; ++i) {
    TG_ASSIGN_OR_RETURN(uint64_t word, GetFixed64(data, pos));
    words.push_back(word);
  }
  return Bitset::FromWords(size, std::move(words));
}

}  // namespace tgraph::storage
