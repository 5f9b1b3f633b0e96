// Seeded stress test: concurrent application writers racing the
// conversion thread across the prime sizes the paper evaluates. Each
// writer owns a disjoint logical range and its own RNG and model map,
// so every interleaving with the converter (and with the other
// writers) is checkable without cross-thread coordination. The suite
// is sized to stay fast under ThreadSanitizer (CI runs it with
// -DC56_SANITIZE=tsan), which is where the converter/application
// locking discipline actually gets exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "codes/registry.hpp"
#include "layout/raid.hpp"
#include "migration/controller.hpp"
#include "migration/disk_array.hpp"
#include "migration/journal.hpp"
#include "migration/monitor.hpp"
#include "migration/online.hpp"
#include "migration/stripe_cache.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "scrub/scrubber.hpp"
#include "util/rng.hpp"
#include "xorblk/xor.hpp"

namespace c56::mig {
namespace {

constexpr std::size_t kBlock = 64;

void fill_raid5(DiskArray& array, int m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(kBlock), parity(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = raid5_parity_disk(Raid5Flavor::kLeftAsymmetric,
                                        static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      rng.fill(block.data(), kBlock);
      std::ranges::copy(block, array.raw_block(d, row).begin());
      xor_into(parity.data(), block.data(), kBlock);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

void run_stress(int p, int writers, std::uint64_t seed) {
  SCOPED_TRACE("p=" + std::to_string(p) +
               " writers=" + std::to_string(writers));
  const int m = p - 1;
  // Similar array footprint across primes; always a multiple of p-1.
  const std::int64_t groups = p == 5 ? 24 : p == 7 ? 16 : 10;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, seed);

  OnlineMigrator mig(array, p);
  const std::int64_t logical = mig.logical_blocks();
  const std::int64_t share = logical / writers;
  ASSERT_GT(share, 0);

  std::vector<std::map<std::int64_t, Buffer>> models(
      static_cast<std::size_t>(writers));
  mig.start();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(writers));
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        // Writer w owns [w*share, (w+1)*share); the last one also takes
        // the remainder.
        const std::int64_t lo = w * share;
        const std::int64_t hi = w + 1 == writers ? logical : lo + share;
        Rng rng(seed + 1000 + static_cast<std::uint64_t>(w));
        auto& model = models[static_cast<std::size_t>(w)];
        Buffer buf(kBlock), got(kBlock);
        for (int i = 0; i < 500; ++i) {
          const std::int64_t l =
              lo + static_cast<std::int64_t>(rng.next_below(
                       static_cast<std::uint64_t>(hi - lo)));
          if (rng.next_below(3) != 0) {
            rng.fill(buf.data(), kBlock);
            ASSERT_TRUE(mig.write_block(l, buf.span()).ok());
            model[l] = buf;
          } else {
            ASSERT_TRUE(mig.read_block(l, got.span()).ok());
            if (auto it = model.find(l); it != model.end()) {
              EXPECT_TRUE(got == it->second) << "stale read at " << l;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  mig.finish();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());

  // Full readback: every logical block is readable, and every block a
  // writer touched holds its last write.
  Buffer got(kBlock);
  for (std::int64_t l = 0; l < logical; ++l) {
    ASSERT_TRUE(mig.read_block(l, got.span()).ok()) << "logical " << l;
  }
  for (const auto& model : models) {
    for (const auto& [l, want] : model) {
      ASSERT_TRUE(mig.read_block(l, got.span()).ok());
      EXPECT_TRUE(got == want) << "lost write at " << l;
    }
  }
  const OnlineStats st = mig.stats();
  EXPECT_GT(st.app_writes, 0u);
}

TEST(OnlineStress, WritersRaceConversionP5) {
  for (int writers = 1; writers <= 4; ++writers) {
    run_stress(5, writers, 0xC56'0005 + static_cast<std::uint64_t>(writers));
  }
}

TEST(OnlineStress, WritersRaceConversionP7) {
  for (int writers = 1; writers <= 4; ++writers) {
    run_stress(7, writers, 0xC56'0007 + static_cast<std::uint64_t>(writers));
  }
}

TEST(OnlineStress, WritersRaceConversionP11) {
  for (int writers = 1; writers <= 4; ++writers) {
    run_stress(11, writers, 0xC56'000B + static_cast<std::uint64_t>(writers));
  }
}

TEST(OnlineStress, ObservabilityRacesEightWorkerConversion) {
  // The full observability stack live under real concurrency: eight
  // conversion workers emitting events and bumping registry counters, a
  // background MetricsSampler thread snapshotting the registry and
  // polling the MigrationMonitor as a probe, application I/O racing the
  // watermark, and the main thread reading snapshots/tails/status
  // lines. This is the TSan target for the event ring + sampler +
  // monitor locking discipline (CI reruns it under -DC56_SANITIZE=tsan
  // with C56_CONVERT_WORKERS=8).
  obs::set_metrics_enabled(true);
  obs::set_events_enabled(true);
  // Registry and log outlive everything attached to them.
  obs::Registry reg;
  obs::EventLog log(256);
  log.set_stderr_echo(false);
  const int p = 5, m = p - 1;
  const std::int64_t groups = 24;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56'0B57);

  OnlineMigrator mig(array, p);
  MemoryCheckpointSink sink;
  mig.attach_journal(sink);
  mig.set_workers(8);

  log.attach_metrics(reg);
  array.attach_metrics(reg);
  mig.attach_metrics(reg);
  mig.attach_events(log, "obs-stress");

  MonitorConfig cfg;
  cfg.migration_id = "obs-stress";
  MigrationMonitor monitor(mig, reg, log, cfg);
  obs::MetricsSampler sampler(reg);
  sampler.set_interval_ms(1);
  sampler.add_probe([&monitor] { monitor.poll(); });
  sampler.start();

  mig.start();
  sampler.sample_once();  // at least one sample even on a fast box
  {
    Rng rng(0x0B5'57A7);
    Buffer buf(kBlock);
    const auto logical = static_cast<std::uint64_t>(mig.logical_blocks());
    while (mig.converting()) {
      const auto l = static_cast<std::int64_t>(rng.next_below(logical));
      if (rng.next_below(3) != 0) {
        rng.fill(buf.data(), kBlock);
        ASSERT_TRUE(mig.write_block(l, buf.span()).ok());
      } else {
        ASSERT_TRUE(mig.read_block(l, buf.span()).ok());
      }
      (void)reg.snapshot();
      (void)log.tail(4);
      (void)monitor.status_line();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  mig.finish();
  sampler.stop();
  monitor.poll();

  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());
  EXPECT_FALSE(monitor.stalled());
  EXPECT_GE(sampler.samples().size(), 1u);
  const obs::Snapshot snap = reg.snapshot();
  const obs::Metric* rows = snap.find("migration_rows_done");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->gauge, groups * (p - 1));
  obs::set_events_enabled(false);
  obs::set_metrics_enabled(false);
}

TEST(OnlineStress, PartialWritersScrubberRaceFourWorkerConversion) {
  // The sub-block delta plane under real concurrency: three partial
  // writers issuing randomly shaped write_range ops (1-byte pokes,
  // exact block-end suffixes, unaligned interiors, the odd full
  // block), a background Scrubber walking the groups through
  // scrub_group's trust domains, and a four-worker conversion — all on
  // one array. The per-stripe lock protocol means the scrubber must
  // never observe a half-applied delta: no stripe may ever scan dirty.
  // This is a TSan target (CI reruns the suite under -DC56_SANITIZE=tsan).
  const int p = 7, m = p - 1;
  const std::int64_t groups = 16;
  DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m, 0xC56'5B0C);

  OnlineMigrator mig(array, p);
  mig.set_workers(4);
  scrub::Scrubber scrubber(array, mig);
  scrubber.set_interval_ms(0);

  const std::int64_t logical = mig.logical_blocks();
  constexpr int kWriters = 3;
  const std::int64_t share = logical / kWriters;
  ASSERT_GT(share, 0);
  std::vector<std::map<std::int64_t, Buffer>> models(kWriters);

  scrubber.start();
  mig.start();
  {
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        const std::int64_t lo = w * share;
        const std::int64_t hi = w + 1 == kWriters ? logical : lo + share;
        Rng rng(0x5B0C + static_cast<std::uint64_t>(w));
        auto& model = models[static_cast<std::size_t>(w)];
        Buffer buf(kBlock), got(kBlock);
        for (int i = 0; i < 400; ++i) {
          const std::int64_t l =
              lo + static_cast<std::int64_t>(rng.next_below(
                       static_cast<std::uint64_t>(hi - lo)));
          auto it = model.find(l);
          if (it == model.end()) {
            // First touch: learn the block so the model stays exact.
            ASSERT_TRUE(mig.read_block(l, got.span()).ok());
            it = model.emplace(l, got).first;
          }
          if (rng.next_below(4) == 0) {
            ASSERT_TRUE(mig.read_block(l, got.span()).ok());
            EXPECT_TRUE(got == it->second) << "stale read at " << l;
            continue;
          }
          std::size_t off, len;
          switch (rng.next_below(4)) {
            case 0:
              off = static_cast<std::size_t>(rng.next_below(kBlock));
              len = 1;  // single byte
              break;
            case 1:
              off = static_cast<std::size_t>(rng.next_below(kBlock));
              len = kBlock - off;  // exact block-end suffix
              break;
            case 2:
              off = 0;
              len = kBlock;  // whole block through the range path
              break;
            default:
              off = static_cast<std::size_t>(rng.next_below(kBlock));
              len = 1 + static_cast<std::size_t>(rng.next_below(kBlock - off));
              break;
          }
          rng.fill(buf.data(), len);
          ASSERT_TRUE(
              mig.write_range(l, off, buf.span().subspan(0, len)).ok());
          std::copy_n(buf.data(), len, it->second.data() + off);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  mig.finish();
  scrubber.stop();
  EXPECT_EQ(mig.state(), MigrationState::kDone);
  EXPECT_TRUE(mig.verify_raid6());

  Buffer got(kBlock);
  for (const auto& model : models) {
    for (const auto& [l, want] : model) {
      ASSERT_TRUE(mig.read_block(l, got.span()).ok());
      EXPECT_TRUE(got == want) << "lost sub-block write at " << l;
    }
  }
  const scrub::ScrubStats st = scrubber.stats();
  EXPECT_GT(st.stripes_scanned, 0u);
  EXPECT_EQ(st.stripes_dirty, 0u);   // no torn delta is ever visible
  EXPECT_EQ(st.cells_repaired, 0u);  // nothing to heal, ever
  EXPECT_GT(mig.stats().app_writes, 0u);
}

TEST(OnlineStress, StripeCacheConcurrentWritersReadersInvalidator) {
  // Hammer the cache directly: writers fill canonical per-(stripe, cell)
  // patterns, readers check that any hit returns an exact canonical
  // block (a torn fill — half old, half new — or a block left over from
  // a recycled slot's previous stripe can never be observed), and an
  // invalidator keeps the LRU churning. The canonical pattern makes
  // every byte self-identifying, so TSan and the content check together
  // cover both the locking and the copies.
  constexpr int kStripesTotal = 32;
  constexpr int kCells = 16;
  StripeCache cache(8, kCells, kBlock);
  const auto canonical = [](std::int64_t stripe, int cell) {
    Buffer b(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
      b.data()[i] = static_cast<std::uint8_t>(stripe * 31 + cell * 7 + 1);
    }
    return b;
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(0xF111 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < 4000; ++i) {
        const auto s = static_cast<std::int64_t>(rng.next_below(kStripesTotal));
        const auto c = static_cast<int>(rng.next_below(kCells));
        cache.fill(s, c, canonical(s, c).span());
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(0x2EAD + static_cast<std::uint64_t>(r));
      Buffer got(kBlock);
      for (int i = 0; i < 4000; ++i) {
        const auto s = static_cast<std::int64_t>(rng.next_below(kStripesTotal));
        const auto c = static_cast<int>(rng.next_below(kCells));
        if (cache.lookup(s, c, got.span())) {
          EXPECT_TRUE(got == canonical(s, c))
              << "torn block at stripe " << s << " cell " << c;
        }
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(0x1BAD);
    for (int i = 0; i < 2000; ++i) {
      if (rng.next_below(64) == 0) {
        cache.invalidate_all();
      } else {
        cache.invalidate(static_cast<std::int64_t>(
            rng.next_below(kStripesTotal)));
      }
    }
  });
  for (std::thread& t : threads) t.join();
  const auto st = cache.stats();
  EXPECT_GT(st.insertions, 0u);
  EXPECT_GT(st.hits + st.misses, 0u);
}

TEST(OnlineStress, CachedControllerConcurrentDisjointWriters) {
  // The controller itself is documented single-writer per cell, but
  // disjoint-stripe writers through one shared cache-enabled controller
  // must neither corrupt the array nor poison each other's cache lines.
  auto code = make_code(CodeId::kCode56, 5);
  const std::int64_t stripes = 8;
  DiskArray array(code->cols(), stripes * code->rows(), kBlock);
  ArrayController ctrl(array, std::move(code));
  ctrl.set_cache_stripes(4);
  const std::int64_t per_stripe = ctrl.logical_blocks() / stripes;
  constexpr int kWriters = 4;
  std::vector<std::map<std::int64_t, Buffer>> models(kWriters);
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        // Writer w owns stripes [w*2, w*2+2): ranged writes never cross
        // into another writer's stripes, so per-stripe planner state
        // (and the cache lines it fills) are contended only inside the
        // cache, which is the part under test.
        const std::int64_t lo = w * 2 * per_stripe;
        const std::int64_t hi = lo + 2 * per_stripe;
        Rng rng(0xD15C + static_cast<std::uint64_t>(w));
        auto& model = models[static_cast<std::size_t>(w)];
        Buffer buf(static_cast<std::size_t>(per_stripe) * kBlock);
        Buffer got(kBlock);
        for (int i = 0; i < 200; ++i) {
          const std::int64_t count = 1 + static_cast<std::int64_t>(
                                         rng.next_below(static_cast<std::uint64_t>(
                                             per_stripe)));
          const std::int64_t l =
              lo + static_cast<std::int64_t>(rng.next_below(
                       static_cast<std::uint64_t>(hi - lo - count + 1)));
          const auto bytes = static_cast<std::size_t>(count) * kBlock;
          if (rng.next_below(3) != 0) {
            rng.fill(buf.data(), bytes);
            ctrl.write(l, count, buf.span().subspan(0, bytes));
            for (std::int64_t k = 0; k < count; ++k) {
              model[l + k] = Buffer(kBlock);
              std::copy_n(buf.data() + k * kBlock, kBlock,
                          model[l + k].data());
            }
          } else {
            ctrl.read(l, got.span());
            if (auto it = model.find(l); it != model.end()) {
              EXPECT_TRUE(got == it->second) << "stale read at " << l;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_TRUE(ctrl.scrub().empty());
  Buffer got(kBlock);
  for (const auto& model : models) {
    for (const auto& [l, want] : model) {
      ctrl.read(l, got.span());
      EXPECT_TRUE(got == want) << "lost write at " << l;
    }
  }
}

}  // namespace
}  // namespace c56::mig
