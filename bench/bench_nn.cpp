// Micro-benchmarks of the neural substrate: GEMM kernels and recurrent
// layer forward/backward throughput at the shapes PathRank trains with.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "nn/matrix.h"
#include "nn/recurrent.h"

namespace {

using namespace pathrank;
using namespace pathrank::nn;

Matrix RandomMatrix(size_t r, size_t c, Rng& rng) {
  Matrix m(r, c);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
  }
  return m;
}

void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = RandomMatrix(32, n, rng);
  const Matrix b = RandomMatrix(n, n, rng);
  Matrix c(32, n);
  for (auto _ : state) {
    GemmNN(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * 32 * n * n) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

template <CellType kCell>
void BM_RecurrentForward(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t batch = 32;
  const size_t steps = 30;
  Rng rng(2);
  auto cell = MakeRecurrentLayer(kCell, hidden, hidden, rng, "cell");
  std::vector<Matrix> x_steps;
  for (size_t t = 0; t < steps; ++t) {
    x_steps.push_back(RandomMatrix(batch, hidden, rng));
  }
  const std::vector<int32_t> lengths(batch, static_cast<int32_t>(steps));
  RecurrentScratch scratch;
  Matrix h;
  for (auto _ : state) {
    cell->Forward(x_steps, lengths, &scratch, &h);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * batch * steps));
}
BENCHMARK(BM_RecurrentForward<CellType::kGru>)->Arg(64)->Arg(128);
BENCHMARK(BM_RecurrentForward<CellType::kLstm>)->Arg(64);
BENCHMARK(BM_RecurrentForward<CellType::kRnn>)->Arg(64);

void BM_GruForwardBackward(benchmark::State& state) {
  const size_t hidden = static_cast<size_t>(state.range(0));
  const size_t batch = 32;
  const size_t steps = 30;
  Rng rng(3);
  GruLayer gru(hidden, hidden, rng);
  std::vector<Matrix> x_steps;
  for (size_t t = 0; t < steps; ++t) {
    x_steps.push_back(RandomMatrix(batch, hidden, rng));
  }
  const std::vector<int32_t> lengths(batch, static_cast<int32_t>(steps));
  Matrix h;
  const Matrix d_h = RandomMatrix(batch, hidden, rng);
  std::vector<Matrix> d_x;
  RecurrentScratch tape;
  tape.record = true;
  Gradients grads;
  ZeroGradients(gru.Parameters(), &grads);
  for (auto _ : state) {
    gru.Forward(x_steps, lengths, &tape, &h);
    gru.Backward(x_steps, lengths, tape, d_h, grads, &d_x);
    benchmark::DoNotOptimize(d_x);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * batch * steps));
}
BENCHMARK(BM_GruForwardBackward)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
