#include "storage/serde.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tgraph::storage {
namespace {

TEST(SerdeTest, VarintRoundTrip) {
  for (uint64_t value : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 1ULL << 20,
                         1ULL << 40, ~0ULL}) {
    std::string buffer;
    PutVarint(&buffer, value);
    size_t pos = 0;
    Result<uint64_t> decoded = GetVarint(buffer, &pos);
    ASSERT_TRUE(decoded.ok()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_EQ(pos, buffer.size());
  }
}

TEST(SerdeTest, VarintTruncationFails) {
  std::string buffer;
  PutVarint(&buffer, 1ULL << 40);
  buffer.resize(buffer.size() - 1);
  size_t pos = 0;
  EXPECT_TRUE(GetVarint(buffer, &pos).status().IsIoError());
}

TEST(SerdeTest, BytesRoundTrip) {
  std::string buffer;
  PutBytes(&buffer, "hello");
  PutBytes(&buffer, "");
  PutBytes(&buffer, std::string(1000, 'x'));
  size_t pos = 0;
  EXPECT_EQ(*GetBytes(buffer, &pos), "hello");
  EXPECT_EQ(*GetBytes(buffer, &pos), "");
  EXPECT_EQ(GetBytes(buffer, &pos)->size(), 1000u);
}

TEST(SerdeTest, Fixed64RoundTrip) {
  std::string buffer;
  PutFixed64(&buffer, 0xdeadbeefcafebabeULL);
  size_t pos = 0;
  EXPECT_EQ(*GetFixed64(buffer, &pos), 0xdeadbeefcafebabeULL);
}

TEST(SerdeTest, PropertiesRoundTrip) {
  Properties props;
  props.Set("name", "Ann");
  props.Set("count", int64_t{42});
  props.Set("score", 2.5);
  props.Set("active", true);
  std::string buffer;
  SerializeProperties(props, &buffer);
  size_t pos = 0;
  Result<Properties> decoded = DeserializeProperties(buffer, &pos);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, props);
  EXPECT_EQ(pos, buffer.size());
}

TEST(SerdeTest, EmptyPropertiesRoundTrip) {
  std::string buffer;
  SerializeProperties(Properties(), &buffer);
  size_t pos = 0;
  EXPECT_TRUE(DeserializeProperties(buffer, &pos)->empty());
}

TEST(SerdeTest, HistoryRoundTrip) {
  History history = {
      {{1, 5}, Properties{{"type", "a"}, {"v", 1}}},
      {{5, 9}, Properties{{"type", "a"}, {"v", 2}}},
  };
  std::string buffer;
  SerializeHistory(history, &buffer);
  size_t pos = 0;
  Result<History> decoded = DeserializeHistory(buffer, &pos);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, history);
}

TEST(SerdeTest, PropsRunCacheDecodesLikeAPlainDecode) {
  // Histories decoded in one loop share a run cache: repeats within a
  // history and across histories reuse the previous set, and a set whose
  // encoding differs in any byte is parsed afresh.
  Properties a{{"type", "a"}, {"v", 1}};
  Properties ab{{"type", "ab"}, {"v", 1}};
  Properties a2{{"type", "a"}, {"v", 2}};
  std::vector<History> histories = {
      {{{1, 5}, a}, {{5, 9}, a}, {{9, 12}, ab}},
      {{{0, 2}, ab}, {{2, 3}, a2}},
      {},
      {{{4, 6}, a2}, {{6, 8}, Properties()}, {{8, 9}, a}},
  };
  std::vector<std::string> cells;
  for (const History& history : histories) {
    cells.emplace_back();
    SerializeHistory(history, &cells.back());
  }
  PropsRunCache cache;
  for (size_t i = 0; i < cells.size(); ++i) {
    size_t pos = 0;
    Result<History> decoded = DeserializeHistory(cells[i], &pos, &cache);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, histories[i]) << "history " << i;
    EXPECT_EQ(pos, cells[i].size());
  }

  std::string cell_a, cell_a2;
  SerializeProperties(a, &cell_a);
  SerializeProperties(a2, &cell_a2);
  PropsRunCache cells_cache;
  EXPECT_EQ(*cells_cache.Decode(cell_a), a);
  EXPECT_EQ(*cells_cache.Decode(cell_a), a);
  EXPECT_EQ(*cells_cache.Decode(cell_a2), a2);
  EXPECT_EQ(*cells_cache.Decode(cell_a), a);
}

TEST(SerdeTest, NegativeTimePointsSurvive) {
  History history = {{{-10, -2}, Properties{{"type", "a"}}}};
  std::string buffer;
  SerializeHistory(history, &buffer);
  size_t pos = 0;
  EXPECT_EQ((*DeserializeHistory(buffer, &pos))[0].interval, Interval(-10, -2));
}

TEST(SerdeTest, BitsetRoundTrip) {
  Bitset bits(130);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  std::string buffer;
  SerializeBitset(bits, &buffer);
  size_t pos = 0;
  Result<Bitset> decoded = DeserializeBitset(buffer, &pos);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, bits);
}

TEST(SerdeTest, CorruptValueTagFails) {
  std::string buffer;
  PutVarint(&buffer, 1);          // one entry
  PutBytes(&buffer, "key");
  buffer.push_back(static_cast<char>(99));  // bogus tag
  size_t pos = 0;
  EXPECT_TRUE(DeserializeProperties(buffer, &pos).status().IsIoError());
}

// --- malformed-input regression tests: these payloads now arrive off a
// socket, so every decoder must reject adversarial bytes with an error
// instead of over-reading, over-allocating, or wrapping arithmetic. ------

TEST(SerdeMalformedTest, OverlongVarintRejected) {
  // Ten bytes whose final byte sets bits beyond the 64th: the encoding
  // would silently lose bits if accepted.
  std::string buffer(9, static_cast<char>(0xff));
  buffer.push_back(static_cast<char>(0x7f));
  size_t pos = 0;
  EXPECT_TRUE(GetVarint(buffer, &pos).status().IsIoError());
}

TEST(SerdeMalformedTest, MaxVarintStillDecodes) {
  std::string buffer;
  PutVarint(&buffer, ~0ULL);
  size_t pos = 0;
  EXPECT_EQ(*GetVarint(buffer, &pos), ~0ULL);
}

TEST(SerdeMalformedTest, HugeByteLengthPrefixRejected) {
  // A length prefix of UINT64_MAX must not wrap `pos + length` past the
  // bounds check.
  std::string buffer;
  PutVarint(&buffer, ~0ULL);
  buffer += "abc";
  size_t pos = 0;
  EXPECT_TRUE(GetBytes(buffer, &pos).status().IsIoError());
}

TEST(SerdeMalformedTest, TruncatedByteStringRejected) {
  std::string buffer;
  PutVarint(&buffer, 100);  // promises 100 bytes
  buffer += "short";
  size_t pos = 0;
  EXPECT_TRUE(GetBytes(buffer, &pos).status().IsIoError());
}

TEST(SerdeMalformedTest, ImplausiblePropertyCountRejected) {
  std::string buffer;
  PutVarint(&buffer, 1'000'000'000);  // a billion entries in ten bytes
  buffer += "x";
  size_t pos = 0;
  EXPECT_TRUE(DeserializeProperties(buffer, &pos).status().IsIoError());
}

TEST(SerdeMalformedTest, ImplausibleHistoryCountRejected) {
  // The count must be refused before reserve(), or the allocation itself
  // is the attack.
  std::string buffer;
  PutVarint(&buffer, ~0ULL >> 1);
  buffer += "xxxx";
  size_t pos = 0;
  EXPECT_TRUE(DeserializeHistory(buffer, &pos).status().IsIoError());
}

TEST(SerdeMalformedTest, ImplausibleBitsetSizeRejected) {
  std::string buffer;
  PutVarint(&buffer, ~0ULL);  // (size + 63) / 64 would wrap to 0
  size_t pos = 0;
  EXPECT_TRUE(DeserializeBitset(buffer, &pos).status().IsIoError());
}

TEST(SerdeMalformedTest, TruncatedHistoryItemRejected) {
  History history = {{{1, 5}, Properties{{"type", "a"}}}};
  std::string buffer;
  SerializeHistory(history, &buffer);
  for (size_t cut = 1; cut < buffer.size(); ++cut) {
    std::string truncated = buffer.substr(0, cut);
    size_t pos = 0;
    Result<History> decoded = DeserializeHistory(truncated, &pos);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(SerdeMalformedTest, RandomGarbageNeverCrashes) {
  // Deterministic pseudo-random fuzz: decoders must fail cleanly (or
  // succeed) on arbitrary bytes, never crash.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    size_t len = next() % 64;
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(next() & 0xff));
    }
    size_t pos = 0;
    (void)DeserializeProperties(garbage, &pos);
    pos = 0;
    (void)DeserializeHistory(garbage, &pos);
    pos = 0;
    (void)DeserializeBitset(garbage, &pos);
  }
}

}  // namespace
}  // namespace tgraph::storage
