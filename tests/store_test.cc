// Store subsystem tests: .psx artifacts must round-trip bit-exactly
// against a fresh pipeline run, reject version/endianness mismatches, and
// fail the checksum on any bit flip; the sliced CRC must match the
// byte-wise reference; both readers must reject non-regular paths and
// crafted files that carry a valid checksum — plus the atomic-write
// contract every artifact writer shares.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/dag.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "order/core_order.h"
#include "pivot/pivotscale.h"
#include "store/artifact.h"
#include "store/checksum.h"
#include "util/atomic_file.h"
#include "util/telemetry.h"

namespace pivotscale {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A clique-rich test graph, deterministic across runs.
Graph TestGraph() {
  EdgeList edges = Rmat(9, 6.0, 7);
  PlantCliques(&edges, 512, 6, 5, 9, 3);
  return BuildGraph(std::move(edges));
}

// ------------------------------------------------------------- checksum

TEST(Crc64, KnownVectorAndIncrementalAgree) {
  // CRC-64/XZ check value for "123456789".
  const char* check = "123456789";
  EXPECT_EQ(Crc64(check, 9), 0x995DC9BBDF1939FAull);

  std::uint64_t state = Crc64Init();
  state = Crc64Update(state, check, 4);
  state = Crc64Update(state, check + 4, 5);
  EXPECT_EQ(Crc64Final(state), Crc64(check, 9));
}

TEST(Crc64, DetectsEverySingleBitFlipOfASmallPayload) {
  std::string payload = "pivotscale artifact payload";
  const std::uint64_t clean = Crc64(payload.data(), payload.size());
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      payload[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc64(payload.data(), payload.size()), clean)
          << "undetected flip at byte " << byte << " bit " << bit;
      payload[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

// The byte-at-a-time CRC-64/XZ loop the sliced implementation replaced,
// kept as the reference it must match bit for bit.
std::uint64_t ReferenceCrc64(const void* bytes, std::size_t size) {
  std::array<std::uint64_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1) ? 0xC96C5795D7870F42ull : 0);
    table[i] = crc;
  }
  const auto* p = static_cast<const unsigned char*>(bytes);
  std::uint64_t state = ~0ull;
  for (std::size_t i = 0; i < size; ++i)
    state = (state >> 8) ^ table[(state ^ p[i]) & 0xFF];
  return ~state;
}

std::vector<unsigned char> RandomBytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc64, MatchesByteWiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..130 cover the pure tail, whole 8-byte steps, and every
  // step-plus-tail mix; the 8 start offsets cover every misalignment.
  const std::vector<unsigned char> buf = RandomBytes(8 + 130, 5);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 130; ++len)
      ASSERT_EQ(Crc64(buf.data() + offset, len),
                ReferenceCrc64(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
}

TEST(Crc64, UpdateSplitAtEveryOffsetMatchesReference) {
  const std::vector<unsigned char> payload = RandomBytes(100, 9);
  const std::uint64_t want = ReferenceCrc64(payload.data(), payload.size());
  for (std::size_t split = 0; split <= payload.size(); ++split) {
    std::uint64_t state = Crc64Init();
    state = Crc64Update(state, payload.data(), split);
    state = Crc64Update(state, payload.data() + split,
                        payload.size() - split);
    EXPECT_EQ(Crc64Final(state), want) << "split at " << split;
  }
}

// ------------------------------------------------------------ round trip

TEST(Artifact, RoundTripMatchesFreshPipelineRun) {
  const Graph g = TestGraph();
  const GraphArtifact built = BuildArtifact(g);
  TempFile f("roundtrip.psx");
  WriteArtifact(f.path(), built);
  const GraphArtifact loaded = ReadArtifact(f.path());

  EXPECT_EQ(loaded.graph.offsets(), built.graph.offsets());
  EXPECT_EQ(loaded.graph.neighbor_array(), built.graph.neighbor_array());
  EXPECT_TRUE(loaded.graph.undirected());
  EXPECT_EQ(loaded.dag.offsets(), built.dag.offsets());
  EXPECT_EQ(loaded.dag.neighbor_array(), built.dag.neighbor_array());
  EXPECT_FALSE(loaded.dag.undirected());
  EXPECT_EQ(loaded.ranks, built.ranks);
  EXPECT_EQ(loaded.ordering_name, built.ordering_name);
  EXPECT_EQ(loaded.max_out_degree, built.max_out_degree);
  EXPECT_EQ(loaded.degeneracy, built.degeneracy);
  EXPECT_EQ(loaded.degeneracy, Degeneracy(g));

  // Counting on the loaded DAG must match the fresh pipeline exactly.
  for (std::uint32_t k : {3u, 5u, 7u}) {
    CountOptions copts;
    copts.k = k;
    const BigCount from_store =
        CountCliques(loaded.dag, copts).total;
    EXPECT_EQ(from_store, CountKCliquesSimple(g, k)) << "k=" << k;
  }
}

TEST(Artifact, BuiltDagHoldsNoSlackCapacity) {
  // Directionalize sizes the DAG's CSR arrays exactly, so the DAG a build
  // holds weighs what the same DAG weighs once read back by a server.
  const GraphArtifact built = BuildArtifact(TestGraph());
  TempFile f("slack.psx");
  WriteArtifact(f.path(), built);
  EXPECT_EQ(built.dag.HeapBytes(), ReadArtifact(f.path()).dag.HeapBytes());
}

TEST(Artifact, ForcedOrderingAndSkippedDegeneracy) {
  const Graph g = TestGraph();
  ArtifactBuildOptions options;
  options.forced_ordering = OrderingSpec{OrderingKind::kCore};
  options.compute_degeneracy = false;
  const GraphArtifact built = BuildArtifact(g, options);
  EXPECT_EQ(built.ordering_name, "core");
  EXPECT_EQ(built.degeneracy, 0u);
  // The core ordering provably achieves max out-degree == degeneracy.
  EXPECT_EQ(built.max_out_degree, Degeneracy(g));
}

TEST(Artifact, BuildRecordsStoreSpans) {
  TelemetryRegistry telemetry;
  ArtifactBuildOptions options;
  options.telemetry = &telemetry;
  BuildArtifact(TestGraph(), options);
  EXPECT_TRUE(telemetry.HasSpan("store.heuristic"));
  EXPECT_TRUE(telemetry.HasSpan("store.ordering"));
  EXPECT_TRUE(telemetry.HasSpan("store.directionalize"));
  EXPECT_TRUE(telemetry.HasSpan("store.degeneracy"));
}

// ------------------------------------------------------------- rejection

class ArtifactFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("reject.psx");
    WriteArtifact(file_->path(), BuildArtifact(TestGraph()));
    bytes_ = ReadAll(file_->path());
    ASSERT_GT(bytes_.size(), 100u);
  }

  void ExpectThrowContaining(const std::string& what) {
    WriteAll(file_->path(), bytes_);
    try {
      ReadArtifact(file_->path());
      FAIL() << "expected rejection mentioning \"" << what << "\"";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "actual error: " << e.what();
    }
  }

  std::unique_ptr<TempFile> file_;
  std::string bytes_;
};

TEST_F(ArtifactFileTest, RejectsBadMagic) {
  bytes_[0] = 'Q';
  ExpectThrowContaining("not a PSX1 artifact");
}

TEST_F(ArtifactFileTest, RejectsUnsupportedVersion) {
  bytes_[4] = 2;  // version field (little-endian u32 at offset 4)
  ExpectThrowContaining("unsupported artifact version 2");
}

TEST_F(ArtifactFileTest, RejectsForeignEndianness) {
  // Byte-swap the endianness sentinel, as a big-endian writer would have
  // laid it down.
  std::swap(bytes_[8], bytes_[11]);
  std::swap(bytes_[9], bytes_[10]);
  ExpectThrowContaining("endianness mismatch");
}

TEST_F(ArtifactFileTest, BitFlipAnywhereFailsChecksum) {
  // Flip one bit in the middle of the CSR payload and near the end.
  for (const std::size_t pos :
       {bytes_.size() / 2, bytes_.size() - 16}) {
    SCOPED_TRACE(pos);
    bytes_[pos] ^= 0x10;
    ExpectThrowContaining("checksum mismatch");
    bytes_[pos] ^= 0x10;
  }
}

TEST_F(ArtifactFileTest, RejectsTruncation) {
  bytes_.resize(bytes_.size() / 2);
  ExpectThrowContaining("checksum mismatch");
}

TEST_F(ArtifactFileTest, RejectsTruncatedHeader) {
  bytes_.resize(10);
  ExpectThrowContaining("truncated");
}

TEST(Artifact, DagOnlyLoadMatchesFullLoad) {
  const GraphArtifact built = BuildArtifact(TestGraph());
  TempFile f("dag_only.psx");
  WriteArtifact(f.path(), built);
  std::uint64_t file_bytes = 0;
  const Graph dag = ReadArtifactDag(f.path(), &file_bytes);
  EXPECT_EQ(file_bytes, ReadAll(f.path()).size());
  EXPECT_EQ(dag.offsets(), built.dag.offsets());
  EXPECT_EQ(dag.neighbor_array(), built.dag.neighbor_array());
  EXPECT_FALSE(dag.undirected());
  EXPECT_EQ(dag.HeapBytes(), ReadArtifact(f.path()).dag.HeapBytes());
}

// Both readers must reject `path` with an error containing `what`.
void ExpectBothReadersReject(const std::string& path,
                             const std::string& what) {
  const std::vector<std::pair<const char*, std::function<void()>>> readers =
      {{"ReadArtifact", [&] { ReadArtifact(path); }},
       {"ReadArtifactDag", [&] { ReadArtifactDag(path); }}};
  for (const auto& [name, read] : readers) {
    SCOPED_TRACE(name);
    try {
      read();
      ADD_FAILURE() << "expected rejection mentioning \"" << what << "\"";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "actual error: " << e.what();
    }
  }
}

TEST(ArtifactPath, RejectsNonRegularFilesBeforeReading) {
  // A directory, a FIFO with no writer (which would block a plain open or
  // read forever), and a device that never reaches end of file: each must
  // fail at once instead of hanging a server worker or exhausting memory.
  std::string dir = ::testing::TempDir() + "/psx_special_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string fifo = dir + "/pipe.psx";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  ExpectBothReadersReject(dir, "not a regular file");
  ExpectBothReadersReject(fifo, "not a regular file");
  ExpectBothReadersReject("/dev/zero", "not a regular file");

  ::unlink(fifo.c_str());
  ::rmdir(dir.c_str());
}

TEST(ArtifactPath, RejectsAHugeSparseFileFromItsHeader) {
  // 64 GiB of holes: the header check must reject the file before either
  // reader allocates or reads it in full.
  std::string dir = ::testing::TempDir() + "/psx_sparse_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/huge.psx";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0600);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::ftruncate(fd, off_t{64} << 30), 0);
  ::close(fd);

  ExpectBothReadersReject(path, "not a PSX1 artifact file");

  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

// Files whose structure is wrong but whose trailing CRC is recomputed to
// match: the checksum passes, so the structural checks must catch them.
class CraftedArtifactTest : public ArtifactFileTest {
 protected:
  // Header field offsets of the layout in store/artifact.h.
  static constexpr std::size_t kNumNodesAt = 16;
  static constexpr std::size_t kGraphEntriesAt = 24;
  static constexpr std::size_t kDagEntriesAt = 32;
  static constexpr std::size_t kNameLenAt = 56;
  static constexpr std::size_t kNameAt = 64;

  template <typename T>
  T Get(std::size_t at) const {
    T value{};
    std::memcpy(&value, bytes_.data() + at, sizeof(value));
    return value;
  }
  template <typename T>
  void Put(std::size_t at, T value) {
    std::memcpy(bytes_.data() + at, &value, sizeof(value));
  }

  std::uint64_t NumNodes() const { return Get<std::uint64_t>(kNumNodesAt); }
  std::size_t GraphOffsetsAt() const {
    return kNameAt + Get<std::uint32_t>(kNameLenAt);
  }
  std::size_t GraphNeighborsAt() const {
    return GraphOffsetsAt() + (NumNodes() + 1) * sizeof(EdgeId);
  }
  std::size_t RanksAt() const {
    return GraphNeighborsAt() +
           Get<std::uint64_t>(kGraphEntriesAt) * sizeof(NodeId);
  }
  std::size_t DagOffsetsAt() const {
    return RanksAt() + NumNodes() * sizeof(NodeId);
  }
  std::size_t DagNeighborsAt() const {
    return DagOffsetsAt() + (NumNodes() + 1) * sizeof(EdgeId);
  }

  // Recomputes the trailing CRC over the (edited) payload.
  void Reseal() {
    const std::size_t body = bytes_.size() - sizeof(std::uint64_t);
    Put(body, Crc64(bytes_.data(), body));
  }

  void ExpectRejected(const std::string& what) {
    Reseal();
    WriteAll(file_->path(), bytes_);
    ExpectBothReadersReject(file_->path(), what);
  }
};

TEST_F(CraftedArtifactTest, TrailerIsTheByteWiseCrcAndResealIsHarmless) {
  // The writer's trailer equals the reference CRC, so files written before
  // the sliced CRC load unchanged; resealing an unedited file is a no-op.
  const std::size_t body = bytes_.size() - sizeof(std::uint64_t);
  EXPECT_EQ(Get<std::uint64_t>(body), ReferenceCrc64(bytes_.data(), body));
  const std::string before = bytes_;
  Reseal();
  EXPECT_EQ(bytes_, before);
  // The sections start unaligned, as they do in every served artifact.
  EXPECT_NE(GraphOffsetsAt() % alignof(EdgeId), 0u);
}

TEST_F(CraftedArtifactTest, RejectsDecreasingGraphOffsets) {
  const std::size_t at = GraphOffsetsAt();
  Put(at + sizeof(EdgeId), Get<EdgeId>(at + 2 * sizeof(EdgeId)) + 1);
  ExpectRejected("corrupt graph offsets (decreasing at 1)");
}

TEST_F(CraftedArtifactTest, RejectsOutOfRangeGraphNeighbor) {
  Put(GraphNeighborsAt(), static_cast<NodeId>(NumNodes()));
  ExpectRejected("graph neighbor id " + std::to_string(NumNodes()) +
                 " is out of range");
}

TEST_F(CraftedArtifactTest, RejectsOutOfRangeDagNeighbor) {
  Put(DagNeighborsAt() + sizeof(NodeId), static_cast<NodeId>(NumNodes() + 7));
  ExpectRejected("dag neighbor id " + std::to_string(NumNodes() + 7) +
                 " is out of range");
}

TEST_F(CraftedArtifactTest, RejectsRanksThatAreNotAPermutation) {
  Put(RanksAt() + sizeof(NodeId), Get<NodeId>(RanksAt()));
  ExpectRejected("stored ranks are not a permutation");
}

TEST_F(CraftedArtifactTest, RejectsNumNodesAboveNodeIdLimit) {
  Put(kNumNodesAt, std::uint64_t{1} << 32);
  ExpectRejected("exceeds the NodeId limit");
}

TEST_F(CraftedArtifactTest, RejectsDisagreeingHeaderEdgeCounts) {
  Put(kDagEntriesAt, Get<std::uint64_t>(kDagEntriesAt) + 1);
  ExpectRejected("header edge counts disagree");
}

TEST_F(CraftedArtifactTest, RejectsElementCountLargerThanTheFile) {
  // Consistent header counts far beyond the file size.
  Put(kGraphEntriesAt, std::uint64_t{1} << 41);
  Put(kDagEntriesAt, std::uint64_t{1} << 40);
  ExpectRejected("element count " + std::to_string(std::uint64_t{1} << 41) +
                 " exceeds the file size");
}

TEST_F(CraftedArtifactTest, RejectsTrailingBytes) {
  bytes_.insert(bytes_.size() - sizeof(std::uint64_t), 4, '\0');
  ExpectRejected("trailing bytes after the payload");
}

// The invariants a loaded CSR must satisfy whatever the file held.
void ExpectValidCsr(const Graph& g, NodeId num_nodes) {
  const std::vector<EdgeId>& offsets = g.offsets();
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(num_nodes) + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), g.neighbor_array().size());
  for (NodeId u = 0; u < num_nodes; ++u)
    ASSERT_LE(offsets[u], offsets[u + 1]) << "at " << u;
  for (NodeId v : g.neighbor_array()) ASSERT_LT(v, num_nodes);
}

TEST_F(CraftedArtifactTest, SeededMutationsThrowOrYieldValidCsrs) {
  // Random byte edits with a recomputed CRC: each load must either throw
  // runtime_error or return CSRs that satisfy every invariant, and the two
  // readers must agree. Half the edits hit the header and name, where one
  // byte moves a size field; under ASan/UBSan this also checks that every
  // in-place load stays inside the buffer and never assumes alignment.
  const std::string pristine = bytes_;
  const std::size_t body = pristine.size() - sizeof(std::uint64_t);
  const std::size_t header = GraphOffsetsAt();
  std::mt19937_64 rng(20240611);
  int rejected = 0;
  int accepted = 0;
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE(iter);
    bytes_ = pristine;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = (rng() & 1) ? rng() % header : rng() % body;
      bytes_[at] = static_cast<char>(rng());
    }
    Reseal();
    WriteAll(file_->path(), bytes_);

    bool full_ok = false;
    GraphArtifact full;
    try {
      full = ReadArtifact(file_->path());
      full_ok = true;
    } catch (const std::runtime_error&) {
    }
    bool dag_ok = false;
    Graph dag;
    try {
      dag = ReadArtifactDag(file_->path());
      dag_ok = true;
    } catch (const std::runtime_error&) {
    }
    ASSERT_EQ(full_ok, dag_ok);
    if (!full_ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    const NodeId n = full.graph.NumNodes();
    ExpectValidCsr(full.graph, n);
    ExpectValidCsr(full.dag, n);
    EXPECT_EQ(full.ranks.size(), n);
    EXPECT_TRUE(IsPermutation(full.ranks));
    EXPECT_EQ(dag.offsets(), full.dag.offsets());
    EXPECT_EQ(dag.neighbor_array(), full.dag.neighbor_array());
  }
  // The loop exercised both outcomes.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

// ---------------------------------------------------------- atomic write

TEST(AtomicFile, WritesAndOverwrites) {
  TempFile f("atomic.txt");
  WriteFileAtomic(f.path(), "first");
  EXPECT_EQ(ReadAll(f.path()), "first");
  WriteFileAtomic(f.path(), "second, longer payload");
  EXPECT_EQ(ReadAll(f.path()), "second, longer payload");
}

TEST(AtomicFile, FailedWriteLeavesNoFile) {
  const std::string path =
      ::testing::TempDir() + "/no_such_dir/out.bin";
  EXPECT_THROW(WriteFileAtomic(path, "payload"), std::runtime_error);
  std::ifstream in(path);
  EXPECT_FALSE(static_cast<bool>(in));
}

TEST(AtomicFile, BinaryGraphWriterGoesThroughTempRename) {
  // WriteBinaryGraph must land the complete file under the final name and
  // leave no temp droppings next to it.
  TempFile f("atomic_graph.psg");
  const Graph g = TestGraph();
  WriteBinaryGraph(f.path(), g);
  const Graph loaded = ReadBinaryGraph(f.path());
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.neighbor_array(), g.neighbor_array());
  std::ifstream tmp(f.path() + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(static_cast<bool>(tmp));
}

TEST(AtomicFile, RunReportWriterIsAtomic) {
  TempFile f("atomic_report.json");
  TelemetryRegistry telemetry;
  telemetry.AddCounter("demo", 1);
  WriteRunReport(f.path(), telemetry);
  const std::string report = ReadAll(f.path());
  EXPECT_NE(report.find("\"demo\""), std::string::npos);
  std::ifstream tmp(f.path() + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(static_cast<bool>(tmp));
}

}  // namespace
}  // namespace pivotscale
