//===- bench/bench_fft.cpp - FFT substrate micro-benchmarks ---------------==//
//
// Micro-benchmarks for the FFTW-substitute library: planned complex FFT,
// planned real FFT (half-complex), and the unplanned recursive FFT used as
// the "simple" tier in Figure 5-12.
//
//===----------------------------------------------------------------------===//

#include "fft/FFT.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace slin;
using namespace slin::fft;

namespace {

std::vector<double> randomReal(size_t N) {
  std::mt19937 Rng(17);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<double> V(N);
  for (double &D : V)
    D = Dist(Rng);
  return V;
}

void BM_PlannedComplexFFT(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  FFTPlan Plan(N);
  auto Real = randomReal(N);
  std::vector<Complex> Data(N);
  for ([[maybe_unused]] auto _ : State) {
    for (size_t I = 0; I != N; ++I)
      Data[I] = Complex(Real[I], 0.0);
    Plan.forward(Data.data());
    benchmark::DoNotOptimize(Data.data());
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_PlannedComplexFFT)->RangeMultiplier(4)->Range(64, 4096);

void BM_PlannedRealFFT(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  FFTPlan Plan(N);
  auto In = randomReal(N);
  std::vector<double> Out(N);
  std::vector<Complex> Scratch(Plan.scratchSize());
  for ([[maybe_unused]] auto _ : State) {
    Plan.forwardReal(In.data(), Out.data(), Scratch.data());
    benchmark::DoNotOptimize(Out.data());
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_PlannedRealFFT)->RangeMultiplier(4)->Range(64, 4096);

void BM_SimpleFFT(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  auto Real = randomReal(N);
  for ([[maybe_unused]] auto _ : State) {
    std::vector<Complex> Data(N);
    for (size_t I = 0; I != N; ++I)
      Data[I] = Complex(Real[I], 0.0);
    simpleFFT(Data, false);
    benchmark::DoNotOptimize(Data.data());
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_SimpleFFT)->RangeMultiplier(4)->Range(64, 4096);

} // namespace

#include "GBenchMain.h"

int main(int argc, char **argv) {
  return slin::bench::runGoogleBenchmarks(argc, argv, "fft");
}
