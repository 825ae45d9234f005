// Unit tests for src/common: serialization, rng, hashing, histograms,
// status/result, versions and version vectors.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/version.h"

namespace chainreaction {
namespace {

// ---------------------------------------------------------------- bytes ----

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);
  w.PutString("hello");
  w.PutVarU64(0);
  w.PutVarU64(127);
  w.PutVarU64(128);
  w.PutVarU64(UINT64_MAX);

  ByteReader r(w.data());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  bool b1, b2;
  std::string s;
  uint64_t v0, v127, v128, vmax;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU16(&u16));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI64(&i64));
  ASSERT_TRUE(r.GetBool(&b1));
  ASSERT_TRUE(r.GetBool(&b2));
  ASSERT_TRUE(r.GetString(&s));
  ASSERT_TRUE(r.GetVarU64(&v0));
  ASSERT_TRUE(r.GetVarU64(&v127));
  ASSERT_TRUE(r.GetVarU64(&v128));
  ASSERT_TRUE(r.GetVarU64(&vmax));
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v0, 0u);
  EXPECT_EQ(v127, 127u);
  EXPECT_EQ(v128, 128u);
  EXPECT_EQ(vmax, UINT64_MAX);
}

TEST(Bytes, EmptyString) {
  ByteWriter w;
  w.PutString("");
  ByteReader r(w.data());
  std::string s = "dirty";
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(s, "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, TruncatedReadsFailCleanly) {
  ByteWriter w;
  w.PutU64(12345);
  for (size_t cut = 0; cut < 8; ++cut) {
    ByteReader r(w.data().data(), cut);
    uint64_t v;
    EXPECT_FALSE(r.GetU64(&v)) << "cut=" << cut;
  }
}

TEST(Bytes, StringLengthBeyondBufferFails) {
  ByteWriter w;
  w.PutU32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.data());
  std::string s;
  EXPECT_FALSE(r.GetString(&s));
}

TEST(Bytes, BinarySafeStrings) {
  std::string blob;
  for (int i = 0; i < 256; ++i) {
    blob.push_back(static_cast<char>(i));
  }
  ByteWriter w;
  w.PutString(blob);
  ByteReader r(w.data());
  std::string out;
  ASSERT_TRUE(r.GetString(&out));
  EXPECT_EQ(out, blob);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformityRoughly) {
  Rng rng(11);
  int buckets[10] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    buckets[rng.NextBelow(10)]++;
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(50.0);
  }
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ForkIndependence) {
  Rng a(5);
  Rng fork = a.Fork();
  // Forked stream differs from parent's continued stream.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == fork.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

// ----------------------------------------------------------------- hash ----

TEST(Hash, Fnv1aKnownValues) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("chainreaction"), Fnv1a64("chainreaction"));
}

TEST(Hash, Checksum64KnownValues) {
  // Pinned: WAL and value-log records on disk carry this checksum.
  std::string ramp;
  for (int i = 0; i < 64; ++i) {
    ramp.push_back(static_cast<char>(i));
  }
  EXPECT_EQ(Checksum64(""), 0x9353dfc8a195f3e2ULL);
  EXPECT_EQ(Checksum64("chainreaction"), 0x2df6e96c75dbb265ULL);
  EXPECT_EQ(Checksum64(ramp), 0xb4156b4ef3da1b75ULL);
}

TEST(Hash, Checksum64DetectsEverySingleBitFlip) {
  // Lengths around the 8-byte word and 32-byte lane-block boundaries, plus
  // a WAL-sized value.
  Rng rng(0xC5);
  for (const size_t len : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 100u, 1031u}) {
    std::string data(len, '\0');
    for (char& c : data) {
      c = static_cast<char>(rng.NextBelow(256));
    }
    const uint64_t base = Checksum64(data);
    for (size_t bit = 0; bit < len * 8; ++bit) {
      data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
      ASSERT_NE(Checksum64(data), base) << "len=" << len << " bit=" << bit;
      data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1 << (bit % 8)));
    }
  }
}

TEST(Hash, Checksum64SeesLength) {
  std::set<uint64_t> outputs;
  for (size_t len = 0; len <= 100; ++len) {
    outputs.insert(Checksum64(std::string(len, '\0')));
  }
  EXPECT_EQ(outputs.size(), 101u);  // zero padding never aliases a shorter input
}

TEST(Hash, Mix64Bijective) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) {
    outputs.insert(Mix64(i));
  }
  EXPECT_EQ(outputs.size(), 10000u);
}

// ------------------------------------------------------------ histogram ----

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.Mean(), 50.5, 0.01);
  EXPECT_NEAR(static_cast<double>(h.P50()), 50, 4);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99, 5);
}

TEST(Histogram, Empty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(777);
  EXPECT_EQ(h.P50(), h.Percentile(100));
  EXPECT_LE(h.P50(), 777);
  EXPECT_GE(static_cast<double>(h.P50()), 777 * 0.96);  // bounded relative error
}

TEST(Histogram, RelativeErrorBounded) {
  Histogram h;
  const int64_t values[] = {3, 17, 129, 1023, 65537, 1 << 20, int64_t{1} << 33};
  for (int64_t v : values) {
    Histogram single;
    single.Record(v);
    const int64_t p = single.Percentile(50);
    EXPECT_LE(p, v);
    EXPECT_GE(static_cast<double>(p), static_cast<double>(v) * (1.0 - 1.0 / 32.0) - 1.0)
        << "value " << v;
  }
  (void)h;
}

TEST(Histogram, MergeEqualsCombined) {
  Histogram a, b, combined;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBelow(100000));
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.P50(), combined.P50());
  EXPECT_EQ(a.P99(), combined.P99());
}

TEST(Histogram, NegativeClampedToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
}

// --------------------------------------------------------------- status ----

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesMessage) {
  Status s = Status::NotFound("key gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: key gone");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::Timeout("slow"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

// -------------------------------------------------------------- version ----

TEST(VersionVector, DominatesBasics) {
  VersionVector a(2), b(2);
  a.Set(0, 2);
  a.Set(1, 1);
  b.Set(0, 1);
  b.Set(1, 1);
  EXPECT_TRUE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
  EXPECT_FALSE(a.ConcurrentWith(b));
}

TEST(VersionVector, Concurrent) {
  VersionVector a(2), b(2);
  a.Set(0, 2);
  b.Set(1, 2);
  EXPECT_TRUE(a.ConcurrentWith(b));
  EXPECT_TRUE(b.ConcurrentWith(a));
}

TEST(VersionVector, DifferentLengthsComparable) {
  VersionVector a(1), b(3);
  a.Set(0, 5);
  b.Set(0, 5);
  EXPECT_TRUE(a.Dominates(b));
  EXPECT_TRUE(b.Dominates(a));
  EXPECT_TRUE(a == b);
  b.Set(2, 1);
  EXPECT_FALSE(a.Dominates(b));
  EXPECT_TRUE(b.Dominates(a));
}

TEST(VersionVector, MergeMax) {
  VersionVector a(2), b(2);
  a.Set(0, 3);
  b.Set(1, 4);
  a.MergeMax(b);
  EXPECT_EQ(a.Get(0), 3u);
  EXPECT_EQ(a.Get(1), 4u);
  EXPECT_TRUE(a.Dominates(b));
}

TEST(VersionVector, SelfDominates) {
  VersionVector a(3);
  a.Set(1, 9);
  EXPECT_TRUE(a.Dominates(a));
  EXPECT_FALSE(a.ConcurrentWith(a));
}

TEST(VersionVector, EncodeDecodeRoundTrip) {
  VersionVector a(4);
  a.Set(0, 1);
  a.Set(2, 1u << 20);
  a.Set(3, UINT64_MAX / 2);
  ByteWriter w;
  a.Encode(&w);
  ByteReader r(w.data());
  VersionVector b;
  ASSERT_TRUE(b.Decode(&r));
  EXPECT_TRUE(a == b);
}

TEST(Version, NullVersion) {
  Version v;
  EXPECT_TRUE(v.IsNull());
  v.lamport = 1;
  EXPECT_FALSE(v.IsNull());
}

TEST(Version, LwwOrderTotal) {
  Version a, b;
  a.lamport = 10;
  a.origin = 0;
  b.lamport = 10;
  b.origin = 1;
  EXPECT_TRUE(a.LwwLess(b));
  EXPECT_FALSE(b.LwwLess(a));
  b.lamport = 9;
  EXPECT_TRUE(b.LwwLess(a));
}

TEST(Version, EncodeDecodeRoundTrip) {
  Version v;
  v.vv = VersionVector(3);
  v.vv.Set(1, 77);
  v.lamport = 123456789;
  v.origin = 2;
  ByteWriter w;
  v.Encode(&w);
  ByteReader r(w.data());
  Version out;
  ASSERT_TRUE(out.Decode(&r));
  EXPECT_TRUE(v == out);
}

TEST(Dependency, EncodeDecodeRoundTrip) {
  Dependency d;
  d.key = "some/key";
  d.version.lamport = 9;
  d.version.vv = VersionVector(2);
  d.version.vv.Set(0, 4);
  ByteWriter w;
  d.Encode(&w);
  ByteReader r(w.data());
  Dependency out;
  ASSERT_TRUE(out.Decode(&r));
  EXPECT_EQ(out.key, d.key);
  EXPECT_TRUE(out.version == d.version);
}

}  // namespace
}  // namespace chainreaction
