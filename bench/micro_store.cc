// Microbenchmarks (google-benchmark): the artifact store's cold-load path.
// Measures the CRC-64 throughput on its own, then the two readers end to
// end on one generated artifact (a few MB, written once to the temp
// directory): ReadArtifact copies out graph, ranks and DAG, while
// ReadArtifactDag validates the same file in place and copies only the
// DAG, as a server cache miss does.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "store/artifact.h"
#include "store/checksum.h"

namespace {

using namespace pivotscale;

void BM_Crc64(benchmark::State& state) {
  std::vector<unsigned char> bytes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(Crc64(bytes.data(), bytes.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc64)->Arg(64)->Arg(4 << 10)->Arg(1 << 20);

// One artifact file for the whole run, removed at exit.
class BenchArtifact {
 public:
  BenchArtifact()
      : path_((std::filesystem::temp_directory_path() /
               ("micro_store." + std::to_string(::getpid()) + ".psx"))
                  .string()) {
    EdgeList edges = Rmat(15, 16.0, 41);
    PlantCliques(&edges, 1 << 15, 8, 6, 12, 42);
    WriteArtifact(path_, BuildArtifact(BuildGraph(std::move(edges))));
    bytes_ = std::filesystem::file_size(path_);
  }
  ~BenchArtifact() { std::remove(path_.c_str()); }
  BenchArtifact(const BenchArtifact&) = delete;
  BenchArtifact& operator=(const BenchArtifact&) = delete;

  const std::string& path() const { return path_; }
  std::int64_t bytes() const { return static_cast<std::int64_t>(bytes_); }

 private:
  std::string path_;
  std::uintmax_t bytes_ = 0;
};

const BenchArtifact& Artifact() {
  static const BenchArtifact artifact;
  return artifact;
}

void BM_ReadArtifact(benchmark::State& state) {
  const BenchArtifact& artifact = Artifact();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ReadArtifact(artifact.path()).dag.NumDirectedEdges());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          artifact.bytes());
}
BENCHMARK(BM_ReadArtifact)->Unit(benchmark::kMillisecond);

void BM_ReadArtifactDag(benchmark::State& state) {
  const BenchArtifact& artifact = Artifact();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ReadArtifactDag(artifact.path()).NumDirectedEdges());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          artifact.bytes());
}
BENCHMARK(BM_ReadArtifactDag)->Unit(benchmark::kMillisecond);

}  // namespace
