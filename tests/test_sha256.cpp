#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "util/bytes.h"

namespace cadet::crypto {
namespace {

using util::from_hex;
using util::to_hex;

util::BytesView view(const std::string& s) {
  return util::BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size());
}

std::string hash_hex(const std::string& msg) {
  const auto digest = Sha256::hash(view(msg));
  return to_hex(util::BytesView(digest.data(), digest.size()));
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
struct ShaVector {
  std::string name;
  std::string message;
  std::string digest_hex;
};

// Test names carry the printed parameter. Without this gtest prints the
// struct's raw bytes, string pointers included, so names changed per run.
void PrintTo(const ShaVector& v, std::ostream* os) { *os << v.name; }

class Sha256Vectors : public ::testing::TestWithParam<ShaVector> {};

TEST_P(Sha256Vectors, MatchesKnownDigest) {
  EXPECT_EQ(hash_hex(GetParam().message), GetParam().digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    Nist, Sha256Vectors,
    ::testing::Values(
        ShaVector{"Empty", "",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
                  "7852b855"},
        ShaVector{"Abc", "abc",
                  "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
                  "f20015ad"},
        ShaVector{"TwoBlock448Bit",
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
                  "19db06c1"},
        ShaVector{"QuickBrownFox",
                  "The quick brown fox jumps over the lazy dog",
                  "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf"
                  "37c9e592"},
        // FIPS 180-4 four-block message: the 896-bit vector, which keeps
        // the multi-block compress path honest past two blocks.
        ShaVector{"FourBlock896Bit",
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                  "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac4503"
                  "7afee9d1"}));

// Feed a long message through update() in 997-byte chunks: each call
// carries buffered tail bytes plus a multi-block middle, so the streamed
// compress loop runs with every misalignment. Known answer is the
// million-'a' vector.
TEST(Sha256, MultiBlockOddChunks) {
  Sha256 h;
  const std::string chunk(997, 'a');
  for (int i = 0; i < 1003; ++i) h.update(view(chunk));
  h.update(view(std::string(1000000 - 1003 * 997, 'a')));
  const auto digest = h.finish();
  EXPECT_EQ(to_hex(util::BytesView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(view(chunk));
  const auto digest = h.finish();
  EXPECT_EQ(to_hex(util::BytesView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "a moderately long message that crosses several block boundaries to "
      "exercise the buffering logic in update(), including a tail.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(view(msg.substr(0, split)));
    h.update(view(msg.substr(split)));
    const auto digest = h.finish();
    EXPECT_EQ(to_hex(util::BytesView(digest.data(), digest.size())),
              hash_hex(msg))
        << "split at " << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(view("garbage"));
  (void)h.finish();
  h.reset();
  h.update(view("abc"));
  const auto digest = h.finish();
  EXPECT_EQ(to_hex(util::BytesView(digest.data(), digest.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55, 56, 64 bytes hit the padding edge cases.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(view(msg));
    const auto one = a.finish();
    Sha256 b;
    for (const char c : msg) {
      b.update(util::BytesView(reinterpret_cast<const std::uint8_t*>(&c), 1));
    }
    const auto two = b.finish();
    EXPECT_EQ(one, two) << "length " << len;
  }
}

}  // namespace
}  // namespace cadet::crypto
