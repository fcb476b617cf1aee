// Corrupted-index-file suite for LoadIndex (core/index_io.cc): every way a
// file can lie — truncated records, duplicated or out-of-range node ids,
// member counts that do not match the list, implausible options, broken
// label escapes, trailing garbage — must come back as a *distinct*
// Corruption status, and must never crash or return a half-built index.

#include "core/index_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_engine.h"
#include "core/snapshot.h"
#include "graph/graph_algorithms.h"
#include "graph/label_dictionary.h"
#include "ontology/ontology_graph.h"
#include "test_util.h"

namespace osq {
namespace {

// A two-node graph over one label, small enough that every corruption case
// can be spelled out as a literal file.
struct TinyFixture {
  LabelDictionary dict;
  Graph g;
  OntologyGraph o;
  OntologyIndex scratch;

  TinyFixture() : scratch(MakeScratch()) {}

 private:
  OntologyIndex MakeScratch() {
    LabelId a = dict.Intern("a");
    g.AddNode(a);
    g.AddNode(a);
    o.AddLabel(a);
    return OntologyIndex::Build(g, o, IndexOptions{});
  }
};

// The well-formed baseline the corruptions are derived from.
constexpr char kValidFile[] =
    "# osq index v1\n"
    "options 0 0.9 2 0.81 1 8 42 0\n"
    "conceptgraph 0 1 1\n"
    "concepts a\n"
    "block a 2 0 1\n";

// Loads `contents` and returns the status message, asserting the code is
// kCorruption.
std::string LoadExpectingCorruption(TinyFixture* f,
                                    const std::string& contents) {
  std::stringstream ss(contents);
  Status s = LoadIndex(&ss, f->g, f->o, &f->dict, &f->scratch);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.message();
  return s.message();
}

TEST(IndexCorruptionTest, BaselineFileLoadsCleanly) {
  TinyFixture f;
  std::stringstream ss(kValidFile);
  ASSERT_TRUE(LoadIndex(&ss, f.g, f.o, &f.dict, &f.scratch).ok());
  EXPECT_TRUE(f.scratch.Validate());
}

TEST(IndexCorruptionTest, EveryCorruptionIsDistinctAndNeverCrashes) {
  // (case name, file contents) — the suite body below also checks each
  // individually; this test asserts the *messages* are pairwise distinct
  // so an operator can tell the failure modes apart.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"empty file", ""},
      {"wrong header", "# osq index v9\n"},
      {"missing options", "# osq index v1\n"},
      {"bad options record", "# osq index v1\noptions 0 0.9\n"},
      {"unknown similarity model",
       "# osq index v1\noptions 7 0.9 2 0.81 1 8 42 0\n"},
      {"implausible options",
       "# osq index v1\noptions 0 1.5 2 0.81 1 8 42 0\n"},
      {"missing conceptgraph",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"},
      {"bad conceptgraph index",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 3 1 1\nconcepts a\nblock a 2 0 1\n"},
      {"missing concepts",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\nconceptgraph 0 1 1\n"},
      {"concept count mismatch",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 2 1\nconcepts a\nblock a 2 0 1\n"},
      {"missing block",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a\n"},
      {"bad block record",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a\nblock a 0\n"},
      {"member count mismatch",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a\nblock a 3 0 1\n"},
      {"out-of-range node id",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a\nblock a 2 0 9\n"},
      {"duplicate node assignment",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a\nblock a 2 0 0\n"},
      {"partition not covering",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a\nblock a 1 0\n"},
      {"bad escape in concepts",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a%ZZ\nblock a 2 0 1\n"},
      {"bad escape in block",
       "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n"
       "conceptgraph 0 1 1\nconcepts a\nblock a%2 2 0 1\n"},
      {"trailing garbage", std::string(kValidFile) + "block a 1 0\n"},
  };

  std::set<std::string> messages;
  for (const auto& [name, contents] : cases) {
    TinyFixture f;
    std::string message = LoadExpectingCorruption(&f, contents);
    EXPECT_FALSE(message.empty()) << name;
    messages.insert(message);
  }
  // "distinct Corruption status" — no two failure modes share a message.
  // (The two count-zero cases collapse to "bad options record" vs the
  // truncations, so the exact set size is the case count minus the modes
  // that genuinely are the same parse failure.)
  EXPECT_GE(messages.size(), 14u);
}

TEST(IndexCorruptionTest, TruncationMidRecordIsCorruption) {
  TinyFixture f;
  // Cut the valid file at every prefix length that ends inside a record;
  // none of them may crash, and all must fail to load (a prefix that ends
  // exactly after the header line fails with "missing options", etc.).
  std::string valid = kValidFile;
  for (size_t cut = 1; cut + 1 < valid.size(); cut += 7) {
    TinyFixture fresh;
    std::stringstream ss(valid.substr(0, cut));
    Status s = LoadIndex(&ss, fresh.g, fresh.o, &fresh.dict, &fresh.scratch);
    EXPECT_FALSE(s.ok()) << "prefix of length " << cut << " loaded";
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.message();
  }
}

TEST(IndexCorruptionTest, TrailingBlankLinesAreAccepted) {
  // A final newline (or several) is not garbage — editors add them.
  TinyFixture f;
  std::stringstream ss(std::string(kValidFile) + "\n\n");
  EXPECT_TRUE(LoadIndex(&ss, f.g, f.o, &f.dict, &f.scratch).ok());
}

TEST(IndexCorruptionTest, TrailingSecondGraphIsRejected) {
  // Two concatenated index files: the options record said one concept
  // graph, so the second copy is trailing garbage, not silently ignored.
  TinyFixture f;
  std::stringstream ss(std::string(kValidFile) + kValidFile);
  Status s = LoadIndex(&ss, f.g, f.o, &f.dict, &f.scratch);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

// --- Graph-identity record (candidateindex) --------------------------------

std::string WithIdentityRecord(const TinyFixture& f) {
  std::ostringstream rec;
  rec << "candidateindex " << f.g.num_nodes() << ' ' << f.g.num_edges()
      << ' ' << GraphContentHash(f.g) << '\n';
  std::string valid = kValidFile;
  size_t pos = valid.find("conceptgraph");
  return valid.substr(0, pos) + rec.str() + valid.substr(pos);
}

TEST(IndexCorruptionTest, CorrectIdentityRecordLoads) {
  TinyFixture f;
  std::stringstream ss(WithIdentityRecord(f));
  ASSERT_TRUE(LoadIndex(&ss, f.g, f.o, &f.dict, &f.scratch).ok());
  EXPECT_TRUE(f.scratch.Validate());
}

TEST(IndexCorruptionTest, MismatchedGraphIsInvalidArgumentNotCorruption) {
  // A file claiming different node/edge counts or a different content hash
  // was saved over ANOTHER graph: the loader must refuse with
  // InvalidArgument (caller error — wrong graph) instead of trusting the
  // partition records or reporting a misleading Corruption.
  TinyFixture f;
  const std::string header = "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n";
  const std::string rest = "conceptgraph 0 1 1\nconcepts a\nblock a 2 0 1\n";
  const std::vector<std::string> wrong = {
      "candidateindex 3 0 12345\n",  // wrong node count
      "candidateindex 2 9 12345\n",  // wrong edge count
      "candidateindex 2 0 12345\n",  // right counts, wrong hash
  };
  std::set<std::string> messages;
  for (const std::string& rec : wrong) {
    TinyFixture fresh;
    std::stringstream ss(header + rec + rest);
    Status s = LoadIndex(&ss, fresh.g, fresh.o, &fresh.dict, &fresh.scratch);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << rec << s.message();
    messages.insert(std::string(s.message()));
  }
  // Count mismatch and hash mismatch report differently.
  EXPECT_EQ(messages.size(), 2u);
}

TEST(IndexCorruptionTest, MalformedIdentityRecordIsCorruption) {
  TinyFixture f;
  const std::string header = "# osq index v1\noptions 0 0.9 2 0.81 1 8 42 0\n";
  const std::string rest = "conceptgraph 0 1 1\nconcepts a\nblock a 2 0 1\n";
  for (const std::string& rec :
       {std::string("candidateindex\n"), std::string("candidateindex 2\n"),
        std::string("candidateindex 2 0\n"),
        std::string("candidateindex 2 0 nothex\n"),
        std::string("candidateindex 2 0 1 extra\n")}) {
    TinyFixture fresh;
    std::stringstream ss(header + rec + rest);
    Status s = LoadIndex(&ss, fresh.g, fresh.o, &fresh.dict, &fresh.scratch);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << rec << s.message();
  }
}

TEST(IndexCorruptionTest, IdentityRecordAfterBlocksIsTrailingGarbage) {
  // The record is only valid straight after options; one appearing after
  // the partition records means a concatenated or hand-edited file.
  TinyFixture f;
  std::stringstream ss(std::string(kValidFile) + "candidateindex 2 0 1\n");
  Status s = LoadIndex(&ss, f.g, f.o, &f.dict, &f.scratch);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(IndexCorruptionTest, SaveLoadAgainstDifferentGraphIsRejected) {
  // End-to-end: save over the tiny graph, then load against a graph with
  // one extra node (counts differ) and against a same-shape graph with a
  // different edge set (hash differs).
  TinyFixture f;
  std::ostringstream saved;
  ASSERT_TRUE(SaveIndex(f.scratch, f.dict, &saved).ok());

  {
    LabelDictionary dict2;
    Graph g2;
    OntologyGraph o2;
    LabelId a = dict2.Intern("a");
    g2.AddNode(a);
    g2.AddNode(a);
    g2.AddNode(a);  // extra node
    o2.AddLabel(a);
    OntologyIndex scratch2 = OntologyIndex::Build(g2, o2, IndexOptions{});
    std::stringstream ss(saved.str());
    Status s = LoadIndex(&ss, g2, o2, &dict2, &scratch2);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.message();
  }
  {
    LabelDictionary dict2;
    Graph g2;
    OntologyGraph o2;
    LabelId a = dict2.Intern("a");
    LabelId b = dict2.Intern("b");
    g2.AddNode(a);
    g2.AddNode(b);  // same node/edge counts, different labels => hash differs
    o2.AddLabel(a);
    o2.AddLabel(b);
    OntologyIndex scratch2 = OntologyIndex::Build(g2, o2, IndexOptions{});
    std::stringstream ss(saved.str());
    Status s = LoadIndex(&ss, g2, o2, &dict2, &scratch2);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.message();
  }
}

// --- Binary snapshot (v2, core/snapshot.h) corruption suite -----------------
//
// The cases below mutate raw snapshot bytes, so they hard-code the spec'd
// header layout: magic[8], version u32 @8, section_count u32 @12,
// file_size u64 @16, payload_hash u64 @24 (FNV-1a 64 over everything after
// the 40-byte header), then section entries of 24 bytes each
// (type u32 @+0, offset u64 @+8, size u64 @+16).

constexpr size_t kV2HeaderBytes = 40;
constexpr size_t kV2EntryBytes = 24;

// A scratch file private to the running test: ctest runs this binary's
// cases as parallel processes, so a shared name lets one case read
// another's half-written file.
std::string ScratchPath(const std::string& stem) {
  return testing::TempDir() + "/" + stem + "_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".snp";
}

std::string BuildValidSnapshotBytes() {
  test::TravelFixture f = test::MakeTravelFixture();
  IndexOptions options;
  options.num_concept_graphs = 2;
  QueryEngine engine(f.g, f.o, options);
  const std::string path = ScratchPath("osq_v2_corruption_base");
  EXPECT_TRUE(SaveEngineSnapshot(engine, f.dict, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Independent reimplementation of the format's payload hash: word-blocked
// FNV-1a 64 — 8 little-endian bytes per xor-multiply step, byte-wise tail.
uint64_t TestFnv1a(const char* data, size_t size) {
  uint64_t h = 14695981039346656037ull;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, sizeof(w));
    h ^= w;
    h *= 1099511628211ull;
  }
  for (; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// Recomputes the payload hash after a deliberate structural mutation, so
// the case under test is the *structural* check, not the hash check.
void FixPayloadHash(std::string* bytes) {
  uint64_t h =
      TestFnv1a(bytes->data() + kV2HeaderBytes, bytes->size() - kV2HeaderBytes);
  std::memcpy(bytes->data() + 24, &h, sizeof(h));
}

Status LoadSnapshotBytes(const std::string& bytes) {
  const std::string path = ScratchPath("osq_v2_corruption_case");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  LabelDictionary dict;
  std::unique_ptr<QueryEngine> engine;
  return LoadEngineSnapshot(path, &dict, &engine);
}

struct RawSection {
  uint32_t type = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  size_t entry_pos = 0;  // byte position of this entry in the file
};

std::vector<RawSection> ReadSectionTable(const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::vector<RawSection> table(count);
  for (uint32_t i = 0; i < count; ++i) {
    RawSection& e = table[i];
    e.entry_pos = kV2HeaderBytes + i * kV2EntryBytes;
    std::memcpy(&e.type, bytes.data() + e.entry_pos, 4);
    std::memcpy(&e.offset, bytes.data() + e.entry_pos + 8, 8);
    std::memcpy(&e.size, bytes.data() + e.entry_pos + 16, 8);
  }
  return table;
}

TEST(SnapshotCorruptionTest, BaselineBytesLoadCleanly) {
  EXPECT_TRUE(LoadSnapshotBytes(BuildValidSnapshotBytes()).ok());
}

TEST(SnapshotCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bytes = BuildValidSnapshotBytes();
  bytes[0] = 'X';
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruptionTest, UnsupportedVersionIsInvalidArgument) {
  std::string bytes = BuildValidSnapshotBytes();
  uint32_t version = 9;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotCorruptionTest, TruncationAtEveryStrideNeverCrashes) {
  const std::string bytes = BuildValidSnapshotBytes();
  for (size_t cut = 0; cut < bytes.size(); cut += 997) {
    Status s = LoadSnapshotBytes(bytes.substr(0, cut));
    ASSERT_FALSE(s.ok()) << "prefix of length " << cut << " loaded";
    // Shorter than a header it is not recognizably a v2 snapshot at all;
    // beyond that the header's file_size exposes the truncation.
    EXPECT_EQ(s.code(), cut < kV2HeaderBytes ? StatusCode::kInvalidArgument
                                             : StatusCode::kCorruption)
        << "cut=" << cut << ": " << s.message();
  }
}

TEST(SnapshotCorruptionTest, PayloadBitFlipIsHashMismatch) {
  std::string bytes = BuildValidSnapshotBytes();
  // Flip one bit in the middle of the payload, hash left stale.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("hash"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, WrongStoredHashIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  uint64_t bogus = 0xDEADBEEFCAFEF00Dull;
  std::memcpy(bytes.data() + 24, &bogus, sizeof(bogus));
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, HeaderFileSizeMismatchIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  uint64_t wrong_size = bytes.size() + 8;
  std::memcpy(bytes.data() + 16, &wrong_size, sizeof(wrong_size));
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, ImplausibleSectionCountIsCorruption) {
  for (uint32_t count : {0u, 1000u}) {
    std::string bytes = BuildValidSnapshotBytes();
    std::memcpy(bytes.data() + 12, &count, sizeof(count));
    EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption)
        << "section_count=" << count;
  }
}

TEST(SnapshotCorruptionTest, MisalignedSectionOffsetIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_FALSE(table.empty());
  uint64_t off = table[0].offset + 4;  // break 8-alignment
  std::memcpy(bytes.data() + table[0].entry_pos + 8, &off, sizeof(off));
  FixPayloadHash(&bytes);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("misaligned"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, SectionBeyondFileEndIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_FALSE(table.empty());
  uint64_t size = bytes.size();  // offset + file_size always overruns
  std::memcpy(bytes.data() + table[0].entry_pos + 16, &size, sizeof(size));
  FixPayloadHash(&bytes);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("bounds"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, OverlappingSectionsAreCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_GE(table.size(), 2u);
  // Point section 1 at section 0's bytes (same offset, both non-empty).
  std::memcpy(bytes.data() + table[1].entry_pos + 8, &table[0].offset, 8);
  FixPayloadHash(&bytes);
  Status s = LoadSnapshotBytes(bytes);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("overlap"), std::string::npos) << s.message();
}

TEST(SnapshotCorruptionTest, UnknownSectionTypeIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_FALSE(table.empty());
  uint32_t type = 99;
  std::memcpy(bytes.data() + table[0].entry_pos, &type, sizeof(type));
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, DuplicateSectionTypeIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  ASSERT_GE(table.size(), 2u);
  std::memcpy(bytes.data() + table[1].entry_pos, &table[0].type, 4);
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, GraphSectionImplausibleCountsAreCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  const RawSection* graph_sec = nullptr;
  for (const RawSection& e : table) {
    if (e.type == 3) graph_sec = &e;  // kSecGraph
  }
  ASSERT_NE(graph_sec, nullptr);
  // Claim far more nodes than the section could hold; the hash is fixed so
  // the structural validation inside the graph decoder must catch it.
  uint64_t bogus_nodes = 0x0000FFFFFFFFFFFFull;
  std::memcpy(bytes.data() + graph_sec->offset, &bogus_nodes,
              sizeof(bogus_nodes));
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, GraphAdjacencyOutOfRangeIsCorruption) {
  std::string bytes = BuildValidSnapshotBytes();
  std::vector<RawSection> table = ReadSectionTable(bytes);
  const RawSection* graph_sec = nullptr;
  for (const RawSection& e : table) {
    if (e.type == 3) graph_sec = &e;
  }
  ASSERT_NE(graph_sec, nullptr);
  // Graph section layout: u64 n, u64 m, labels u32*n, pad, offsets, entries.
  uint64_t n = 0;
  std::memcpy(&n, bytes.data() + graph_sec->offset, 8);
  ASSERT_GT(n, 0u);
  // Overwrite the first node label with an id the dictionary cannot hold.
  uint32_t bogus_label = 0x7FFFFFFF;
  std::memcpy(bytes.data() + graph_sec->offset + 16, &bogus_label,
              sizeof(bogus_label));
  FixPayloadHash(&bytes);
  EXPECT_EQ(LoadSnapshotBytes(bytes).code(), StatusCode::kCorruption);
}

TEST(SnapshotCorruptionTest, StructuralMessagesAreDistinct) {
  // An operator debugging a bad snapshot must be able to tell the failure
  // modes apart, as with the text-format suite above.
  const std::string base = BuildValidSnapshotBytes();
  std::set<std::string> messages;
  auto collect = [&](std::string bytes, bool fix_hash) {
    if (fix_hash) FixPayloadHash(&bytes);
    Status s = LoadSnapshotBytes(bytes);
    EXPECT_FALSE(s.ok());
    messages.insert(std::string(s.message()));
  };
  {
    std::string b = base;
    b[0] = 'X';
    collect(b, false);
  }
  {
    std::string b = base;
    uint32_t v = 9;
    std::memcpy(b.data() + 8, &v, 4);
    collect(b, false);
  }
  collect(base.substr(0, base.size() / 2), false);
  {
    std::string b = base;
    b[b.size() / 2] = static_cast<char>(b[b.size() / 2] ^ 0x01);
    collect(b, false);
  }
  {
    std::string b = base;
    std::vector<RawSection> t = ReadSectionTable(b);
    uint64_t off = t[0].offset + 4;
    std::memcpy(b.data() + t[0].entry_pos + 8, &off, 8);
    collect(b, true);
  }
  {
    std::string b = base;
    std::vector<RawSection> t = ReadSectionTable(b);
    uint64_t sz = b.size();
    std::memcpy(b.data() + t[0].entry_pos + 16, &sz, 8);
    collect(b, true);
  }
  {
    std::string b = base;
    std::vector<RawSection> t = ReadSectionTable(b);
    std::memcpy(b.data() + t[1].entry_pos + 8, &t[0].offset, 8);
    collect(b, true);
  }
  EXPECT_GE(messages.size(), 7u);
}

}  // namespace
}  // namespace osq
