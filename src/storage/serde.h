#ifndef TGRAPH_STORAGE_SERDE_H_
#define TGRAPH_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bitset.h"
#include "common/properties.h"
#include "common/result.h"
#include "tgraph/types.h"

namespace tgraph::storage {

/// Binary encoding helpers for the columnar format and for the opaque
/// property/history payload columns (Parquet stores these nested; we store
/// the same information as a length-prefixed binary blob column).

/// Appends a LEB128 varint.
void PutVarint(std::string* out, uint64_t value);
/// Reads a varint at *pos, advancing it. Fails on truncation.
Result<uint64_t> GetVarint(std::string_view data, size_t* pos);

void PutBytes(std::string* out, std::string_view bytes);
Result<std::string_view> GetBytes(std::string_view data, size_t* pos);

void PutFixed64(std::string* out, uint64_t value);
Result<uint64_t> GetFixed64(std::string_view data, size_t* pos);

/// Property set <-> bytes.
void SerializeProperties(const Properties& props, std::string* out);
Result<Properties> DeserializeProperties(std::string_view data, size_t* pos);

/// \brief Memoizes the previously decoded property set. Columnar
/// neighbors, and neighboring items of one history, very often carry
/// byte-identical property encodings (a constant type tag, a stable schema
/// of per-type attributes). A repeat then costs one Properties copy — a
/// refcount bump under copy-on-write — instead of a parse. The encoding is
/// self-delimiting, so bytes that start with the previous set's encoding
/// decode to the same set. The cache keeps a view of the previous bytes:
/// they must outlive it (store segments are stable for a decode loop). One
/// cache per decode loop; never shared across threads.
class PropsRunCache {
 public:
  /// Decodes the property set encoded at data[*pos], advancing *pos.
  Result<Properties> DecodeAt(std::string_view data, size_t* pos);
  /// Decodes a whole property cell.
  Result<Properties> Decode(std::string_view blob) {
    size_t pos = 0;
    return DecodeAt(blob, &pos);
  }

 private:
  bool valid_ = false;
  std::string_view last_bytes_;
  Properties last_props_;
};

/// History array <-> bytes. `cache`, if given, decodes the items'
/// property sets (and carries across calls in one decode loop).
void SerializeHistory(const History& history, std::string* out);
Result<History> DeserializeHistory(std::string_view data, size_t* pos,
                                   PropsRunCache* cache = nullptr);

/// Bitset <-> bytes.
void SerializeBitset(const Bitset& bitset, std::string* out);
Result<Bitset> DeserializeBitset(std::string_view data, size_t* pos);

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_SERDE_H_
