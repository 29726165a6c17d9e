#include "store/artifact.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "graph/dag.h"
#include "order/core_order.h"
#include "store/checksum.h"
#include "util/atomic_file.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace pivotscale {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'X', '1'};
constexpr std::uint32_t kEndianSentinel = 0x01020304u;

void AppendBytes(std::string* out, const void* data, std::size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}

template <typename T>
void AppendScalar(std::string* out, T value) {
  AppendBytes(out, &value, sizeof(value));
}

// Fixed header through the name length: 4 + 3*4 + 5*8 + 2*4 bytes.
constexpr std::size_t kFixedHeader = 4 + 3 * 4 + 5 * 8 + 2 * 4;

// Loads a T from an arbitrarily aligned address. Sections after the
// ordering name start at 64 + name length, so no array in the image may be
// read through a typed pointer.
template <typename T>
T Load(const unsigned char* p) {
  T value{};
  std::memcpy(&value, p, sizeof(value));
  return value;
}

// Closes a file descriptor when it goes out of scope.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

// The whole artifact file, read once into one buffer.
struct FileImage {
  std::unique_ptr<unsigned char[]> bytes;
  std::size_t size = 0;
};

// Reads exactly `bytes` bytes from `fd` into `out`.
void ReadFully(int fd, const std::string& path, unsigned char* out,
               std::size_t bytes) {
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd, out + got, bytes - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw std::runtime_error(path + ": read failure");
    if (n == 0)
      throw std::runtime_error(path +
                               ": read failure (file shrank while reading)");
    got += static_cast<std::size_t>(n);
  }
}

// Size, magic, version and endianness, in that order. Runs on the fixed
// header alone, before the rest of the file is allocated or read.
void CheckHeader(const std::string& path, std::size_t file_size,
                 int fd, unsigned char* header) {
  if (file_size < kFixedHeader + sizeof(std::uint64_t))
    throw std::runtime_error(path + ": truncated artifact header");
  ReadFully(fd, path, header, kFixedHeader);
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error(path + ": not a PSX1 artifact file");

  const auto version = Load<std::uint32_t>(header + 4);
  const auto endian = Load<std::uint32_t>(header + 8);
  if (version != kArtifactVersion)
    throw std::runtime_error(
        path + ": unsupported artifact version " + std::to_string(version) +
        " (this reader supports version " +
        std::to_string(kArtifactVersion) + ")");
  if (endian != kEndianSentinel)
    throw std::runtime_error(path +
                             ": endianness mismatch (artifact was written "
                             "on an incompatible platform)");
}

FileImage ReadFileImage(const std::string& path) {
  // O_NONBLOCK keeps open() itself from waiting on a FIFO with no writer;
  // it has no effect on the regular files that get past the S_ISREG check.
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0)
    throw std::runtime_error(path + ": read failure");
  // Only a regular file has a size to trust before reading: a FIFO would
  // block the reader and a device such as /dev/zero never ends.
  if (!S_ISREG(st.st_mode))
    throw std::runtime_error(path + ": not a regular file");

  // A file that is not an artifact costs one header read, however large
  // it claims to be.
  const auto size = static_cast<std::size_t>(st.st_size);
  unsigned char header[kFixedHeader];
  CheckHeader(path, size, fd, header);

  FileImage image;
  image.size = size;
  image.bytes = std::make_unique_for_overwrite<unsigned char[]>(image.size);
  std::memcpy(image.bytes.get(), header, kFixedHeader);
  ReadFully(fd, path, image.bytes.get() + kFixedHeader,
            image.size - kFixedHeader);
  return image;
}

// Sequential cursor over the checksummed part of a file image; every step
// is bounds-checked so a lying header cannot run past the buffer. It hands
// out positions in the image, never copies.
class ByteReader {
 public:
  ByteReader(const std::string& path, const unsigned char* data,
             std::size_t size)
      : path_(path), data_(data), size_(size) {}

  template <typename T>
  T ReadScalar() {
    return Load<T>(Take(sizeof(T)));
  }

  const unsigned char* Take(std::size_t bytes) {
    if (size_ - pos_ < bytes)
      throw std::runtime_error(path_ + ": truncated artifact body");
    const unsigned char* at = data_ + pos_;
    pos_ += bytes;
    return at;
  }

  // Start of `count` elements of `elem_size` bytes each.
  const unsigned char* TakeArray(std::uint64_t count,
                                 std::size_t elem_size) {
    if (count > size_ / elem_size)
      throw std::runtime_error(path_ + ": element count " +
                               std::to_string(count) +
                               " exceeds the file size");
    return Take(count * elem_size);
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::string& path_;
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// A CSR section in place: num_nodes + 1 EdgeId offsets and num_entries
// NodeId neighbors, both at arbitrary alignment inside the file image.
struct CsrSection {
  const unsigned char* offsets = nullptr;
  const unsigned char* neighbors = nullptr;
  std::uint64_t num_entries = 0;
};

// A fully validated artifact image. The CSR sections point into the image;
// only the small rank permutation is copied, so it can be checked (and
// kept) as an aligned array.
struct ParsedArtifact {
  std::uint64_t num_nodes = 0;
  std::uint64_t degeneracy = 0;
  std::uint64_t max_out_degree = 0;
  std::string ordering_name;
  CsrSection graph;
  CsrSection dag;
  std::vector<NodeId> ranks;
};

// The CSR invariants the counting kernels assume; mirrors the .psg reader.
void ValidateCsr(const std::string& path, const char* what,
                 const CsrSection& csr, std::uint64_t num_nodes) {
  EdgeId prev = Load<EdgeId>(csr.offsets);
  for (std::uint64_t u = 0; u < num_nodes; ++u) {
    const EdgeId next = Load<EdgeId>(csr.offsets + (u + 1) * sizeof(EdgeId));
    if (prev > next)
      throw std::runtime_error(path + ": corrupt " + what +
                               " offsets (decreasing at " +
                               std::to_string(u) + ")");
    prev = next;
  }
  if (Load<EdgeId>(csr.offsets) != 0 || prev != csr.num_entries)
    throw std::runtime_error(path + ": corrupt " + what +
                             " offsets (do not cover the neighbor array)");
  // A branch-free max scan first (it vectorizes); the offending id is
  // searched for only when there is one.
  NodeId max_id = 0;
  for (std::uint64_t e = 0; e < csr.num_entries; ++e)
    max_id = std::max(max_id,
                      Load<NodeId>(csr.neighbors + e * sizeof(NodeId)));
  if (csr.num_entries == 0 || max_id < num_nodes) return;
  for (std::uint64_t e = 0; e < csr.num_entries; ++e) {
    const NodeId v = Load<NodeId>(csr.neighbors + e * sizeof(NodeId));
    if (v >= num_nodes)
      throw std::runtime_error(path + ": " + what + " neighbor id " +
                               std::to_string(v) + " is out of range");
  }
}

// Checks the whole-file CRC, then every header and structural invariant,
// all on the image itself. ReadFileImage has already checked the header's
// size, magic, version and endianness.
ParsedArtifact ParseArtifact(const std::string& path,
                             const FileImage& image) {
  const unsigned char* data = image.bytes.get();

  // Whole-file integrity before trusting any size field: a flipped bit
  // anywhere must fail here, not surface as a subtle parse difference.
  const std::size_t body_size = image.size - sizeof(std::uint64_t);
  const auto stored_crc = Load<std::uint64_t>(data + body_size);
  const std::uint64_t computed_crc = Crc64(data, body_size);
  if (stored_crc != computed_crc)
    throw std::runtime_error(path + ": checksum mismatch (stored " +
                             std::to_string(stored_crc) + ", computed " +
                             std::to_string(computed_crc) +
                             "); the artifact is corrupt");

  ByteReader reader(path, data, body_size);
  reader.Take(sizeof(kMagic) + 3 * sizeof(std::uint32_t));  // CheckHeader
  ParsedArtifact parsed;
  parsed.num_nodes = reader.ReadScalar<std::uint64_t>();
  const auto num_graph_entries = reader.ReadScalar<std::uint64_t>();
  const auto num_dag_entries = reader.ReadScalar<std::uint64_t>();
  parsed.degeneracy = reader.ReadScalar<std::uint64_t>();
  parsed.max_out_degree = reader.ReadScalar<std::uint64_t>();
  const auto name_len = reader.ReadScalar<std::uint32_t>();
  reader.ReadScalar<std::uint32_t>();  // reserved

  const std::uint64_t num_nodes = parsed.num_nodes;
  if (num_nodes > std::numeric_limits<NodeId>::max())
    throw std::runtime_error(path + ": header num_nodes " +
                             std::to_string(num_nodes) +
                             " exceeds the NodeId limit");
  if (num_dag_entries * 2 != num_graph_entries)
    throw std::runtime_error(
        path + ": header edge counts disagree (graph holds " +
        std::to_string(num_graph_entries) + " directed entries, dag " +
        std::to_string(num_dag_entries) + ")");

  const unsigned char* name = reader.Take(name_len);
  parsed.ordering_name.assign(name, name + name_len);
  parsed.graph.offsets = reader.TakeArray(num_nodes + 1, sizeof(EdgeId));
  parsed.graph.neighbors =
      reader.TakeArray(num_graph_entries, sizeof(NodeId));
  parsed.graph.num_entries = num_graph_entries;
  const unsigned char* ranks = reader.TakeArray(num_nodes, sizeof(NodeId));
  parsed.dag.offsets = reader.TakeArray(num_nodes + 1, sizeof(EdgeId));
  parsed.dag.neighbors = reader.TakeArray(num_dag_entries, sizeof(NodeId));
  parsed.dag.num_entries = num_dag_entries;
  if (reader.remaining() != 0)
    throw std::runtime_error(path + ": trailing bytes after the payload");

  ValidateCsr(path, "graph", parsed.graph, num_nodes);
  ValidateCsr(path, "dag", parsed.dag, num_nodes);
  parsed.ranks.resize(num_nodes);
  std::memcpy(parsed.ranks.data(), ranks, num_nodes * sizeof(NodeId));
  if (!IsPermutation(parsed.ranks))
    throw std::runtime_error(path +
                             ": stored ranks are not a permutation");
  return parsed;
}

// Copies a validated CSR section out of the image into an owning Graph.
Graph CopyCsr(const CsrSection& csr, std::uint64_t num_nodes,
              bool undirected) {
  std::vector<EdgeId> offsets(num_nodes + 1);
  std::memcpy(offsets.data(), csr.offsets, offsets.size() * sizeof(EdgeId));
  std::vector<NodeId> neighbors(csr.num_entries);
  std::memcpy(neighbors.data(), csr.neighbors,
              neighbors.size() * sizeof(NodeId));
  return Graph(std::move(offsets), std::move(neighbors), undirected);
}

}  // namespace

std::size_t GraphArtifact::HeapBytes() const {
  return graph.HeapBytes() + dag.HeapBytes() +
         ranks.capacity() * sizeof(NodeId) + ordering_name.size();
}

GraphArtifact BuildArtifact(const Graph& g,
                            const ArtifactBuildOptions& options) {
  if (!g.undirected())
    throw std::invalid_argument("BuildArtifact: input must be undirected");

  TelemetryRegistry* telemetry = options.telemetry;
  GraphArtifact artifact;

  OrderingSpec spec;
  {
    TelemetryRegistry::ScopedSpan span(telemetry, "store.heuristic");
    if (options.forced_ordering.has_value()) {
      spec = *options.forced_ordering;
    } else {
      const HeuristicDecision decision =
          SelectOrdering(g, options.heuristic, telemetry);
      spec.kind = decision.use_core_approx ? OrderingKind::kApproxCore
                                           : OrderingKind::kDegree;
      spec.epsilon = options.heuristic.epsilon;
    }
  }

  {
    TelemetryRegistry::ScopedSpan span(telemetry, "store.ordering");
    Ordering ordering = ComputeOrdering(g, spec, telemetry);
    artifact.ordering_name = std::move(ordering.name);
    artifact.ranks = std::move(ordering.ranks);
  }

  {
    TelemetryRegistry::ScopedSpan span(telemetry, "store.directionalize");
    artifact.dag = Directionalize(g, artifact.ranks, telemetry);
    artifact.max_out_degree = MaxOutDegree(artifact.dag);
  }

  if (options.compute_degeneracy) {
    TelemetryRegistry::ScopedSpan span(telemetry, "store.degeneracy");
    artifact.degeneracy = Degeneracy(g);
  }

  artifact.graph = g;
  // Pipeline postconditions every consumer (writer, query engine) builds
  // on; a mismatch here means one of the phases above broke its contract.
  CHECK_EQ(artifact.ranks.size(), static_cast<std::size_t>(g.NumNodes()));
  CHECK_EQ(artifact.dag.NumNodes(), g.NumNodes());
  CHECK_EQ(artifact.dag.NumDirectedEdges() * 2, g.NumDirectedEdges())
      << "BuildArtifact: DAG must hold each undirected edge exactly once";
  return artifact;
}

void WriteArtifact(const std::string& path, const GraphArtifact& artifact) {
  const Graph& g = artifact.graph;
  const Graph& dag = artifact.dag;
  if (!g.undirected())
    throw std::invalid_argument("WriteArtifact: graph must be undirected");
  if (dag.NumNodes() != g.NumNodes() ||
      artifact.ranks.size() != g.NumNodes())
    throw std::invalid_argument(
        "WriteArtifact: graph / dag / ranks sizes disagree");

  const std::uint64_t num_nodes = g.NumNodes();
  const std::uint64_t num_graph_entries = g.NumDirectedEdges();
  const std::uint64_t num_dag_entries = dag.NumDirectedEdges();

  std::string payload;
  payload.reserve(96 + artifact.ordering_name.size() +
                  2 * (num_nodes + 1) * sizeof(EdgeId) +
                  (num_graph_entries + num_dag_entries + num_nodes) *
                      sizeof(NodeId));
  AppendBytes(&payload, kMagic, sizeof(kMagic));
  AppendScalar(&payload, kArtifactVersion);
  AppendScalar(&payload, kEndianSentinel);
  AppendScalar(&payload, std::uint32_t{0});
  AppendScalar(&payload, num_nodes);
  AppendScalar(&payload, num_graph_entries);
  AppendScalar(&payload, num_dag_entries);
  AppendScalar(&payload, static_cast<std::uint64_t>(artifact.degeneracy));
  AppendScalar(&payload,
               static_cast<std::uint64_t>(artifact.max_out_degree));
  AppendScalar(&payload,
               static_cast<std::uint32_t>(artifact.ordering_name.size()));
  AppendScalar(&payload, std::uint32_t{0});
  AppendBytes(&payload, artifact.ordering_name.data(),
              artifact.ordering_name.size());
  AppendBytes(&payload, g.offsets().data(),
              (num_nodes + 1) * sizeof(EdgeId));
  AppendBytes(&payload, g.neighbor_array().data(),
              num_graph_entries * sizeof(NodeId));
  AppendBytes(&payload, artifact.ranks.data(), num_nodes * sizeof(NodeId));
  AppendBytes(&payload, dag.offsets().data(),
              (num_nodes + 1) * sizeof(EdgeId));
  AppendBytes(&payload, dag.neighbor_array().data(),
              num_dag_entries * sizeof(NodeId));
  AppendScalar(&payload, Crc64(payload.data(), payload.size()));

  WriteFileAtomic(path, payload);
}

GraphArtifact ReadArtifact(const std::string& path) {
  const FileImage image = ReadFileImage(path);
  ParsedArtifact parsed = ParseArtifact(path, image);
  GraphArtifact artifact;
  artifact.graph = CopyCsr(parsed.graph, parsed.num_nodes,
                           /*undirected=*/true);
  artifact.dag = CopyCsr(parsed.dag, parsed.num_nodes, /*undirected=*/false);
  artifact.ordering_name = std::move(parsed.ordering_name);
  artifact.ranks = std::move(parsed.ranks);
  artifact.degeneracy = parsed.degeneracy;
  artifact.max_out_degree = parsed.max_out_degree;
  return artifact;
}

Graph ReadArtifactDag(const std::string& path, std::uint64_t* file_bytes) {
  const FileImage image = ReadFileImage(path);
  const ParsedArtifact parsed = ParseArtifact(path, image);
  if (file_bytes != nullptr) *file_bytes = image.size;
  return CopyCsr(parsed.dag, parsed.num_nodes, /*undirected=*/false);
}

}  // namespace pivotscale
