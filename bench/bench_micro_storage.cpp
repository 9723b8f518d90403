// Microbenchmarks: page codec and buffer pool (host-side throughput of the
// storage substrate).

#include <benchmark/benchmark.h>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace {

using namespace dana::storage;

void BM_PageAddTuple(benchmark::State& state) {
  PageLayout layout;
  std::vector<uint8_t> buf(layout.page_size);
  std::vector<uint8_t> payload(220, 0x5A);
  uint64_t tuples = 0;
  for (auto _ : state) {
    Page page(buf.data(), layout);
    page.InitEmpty();
    while (page.AddTuple(payload, 55).ok()) ++tuples;
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PageAddTuple);

void BM_SchemaEncodeDecode(benchmark::State& state) {
  const uint32_t width = static_cast<uint32_t>(state.range(0));
  Schema schema = Schema::Dense(width);
  std::vector<double> row(width + 1, 1.25);
  std::vector<uint8_t> buf(schema.RowBytes());
  std::vector<double> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(schema.EncodeRow(row, buf.data()));
    benchmark::DoNotOptimize(
        schema.DecodeRow(buf.data(), schema.RowBytes(), &out));
  }
}
BENCHMARK(BM_SchemaEncodeDecode)->Arg(54)->Arg(520);

void BM_BufferPoolFetchWarm(benchmark::State& state) {
  PageLayout layout;
  Table table("t", Schema::Dense(54), layout);
  std::vector<double> row(55, 1.0);
  while (table.num_pages() < 64) {
    (void)table.AppendRow(row);
  }
  BufferPool pool(128ull * layout.page_size, layout.page_size, DiskModel{});
  pool.Prewarm(table);
  uint64_t fetches = 0;
  for (auto _ : state) {
    for (uint64_t p = 0; p < table.num_pages(); ++p) {
      benchmark::DoNotOptimize(pool.FetchPage(table, p));
      ++fetches;
    }
  }
  state.counters["fetches/s"] = benchmark::Counter(
      static_cast<double>(fetches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BufferPoolFetchWarm);

void BM_BufferPoolFetchThrashing(benchmark::State& state) {
  PageLayout layout;
  Table table("t", Schema::Dense(54), layout);
  std::vector<double> row(55, 1.0);
  while (table.num_pages() < 64) {
    (void)table.AppendRow(row);
  }
  BufferPool pool(16ull * layout.page_size, layout.page_size, DiskModel{});
  for (auto _ : state) {
    for (uint64_t p = 0; p < table.num_pages(); ++p) {
      benchmark::DoNotOptimize(pool.FetchPage(table, p));
    }
  }
  state.counters["hit_rate"] = pool.stats().HitRate();
}
BENCHMARK(BM_BufferPoolFetchThrashing);

void BM_BufferPoolSharedSweep(benchmark::State& state) {
  // The serve-tiered regime: a shared 4096-frame promotional slot pool
  // over an 8192-frame OS tier, swept alternately by a table 1.5x the pool
  // and a pool-fitting one. Every touch misses, evicts and demotes (the
  // overflowing sweep flushes the fitting table's probationary pages), so
  // this is the miss path that dominates that pass. Residency probes only:
  // TouchPage installs no page image.
  constexpr uint64_t kFrames = 4096;
  auto pool = BufferPool::SizedInFrames(kFrames, 32 * 1024, DiskModel{},
                                        EvictionKind::kPromotional,
                                        /*os_frames=*/2 * kFrames);
  const uint32_t overflows = pool.InternTable("overflows");
  const uint32_t fits = pool.InternTable("fits");
  constexpr uint64_t kOverflowPages = kFrames * 3 / 2;
  constexpr uint64_t kFitPages = kFrames / 2;
  uint64_t touches = 0;
  for (auto _ : state) {
    pool.ScanTable(overflows, kOverflowPages);
    pool.ScanTable(fits, kFitPages);
    benchmark::DoNotOptimize(pool.stats().misses);
    touches += kOverflowPages + kFitPages;
  }
  state.counters["touches/s"] = benchmark::Counter(
      static_cast<double>(touches), benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = pool.stats().HitRate();
}
BENCHMARK(BM_BufferPoolSharedSweep);

}  // namespace

BENCHMARK_MAIN();
