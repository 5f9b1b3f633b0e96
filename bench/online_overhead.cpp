// Algorithm 2 under load: wall-clock conversion time of the online
// migrator while an application thread issues writes at increasing
// rates, plus the converter's preemption count and its reads, read
// runs, writes and write runs per converted data block. Demonstrates the
// paper's claim that conversion and application I/O coexist because
// they touch disjoint disks except on writes.
//
// Usage: online_overhead [p] [groups]. Exits 1 if any run fails
// verify_raid6(), or if a run without writers leaves the per-group
// closed forms: per data block, reads 1, writes 1/(p-2), and read runs
// 2/(p-1) and write runs 1/((p-1)(p-2)) on a healthy array. The same
// run with source disk 0 failed before start() reads each surviving
// column as one run: read runs 1/(p-1), the rest unchanged.

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "layout/raid.hpp"
#include "migration/online.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xorblk/xor.hpp"

namespace {

constexpr std::size_t kBlock = 4096;

void fill_raid5(c56::mig::DiskArray& array, int m) {
  c56::Rng rng(1);
  std::vector<std::uint8_t> parity(kBlock);
  for (std::int64_t row = 0; row < array.blocks_per_disk(); ++row) {
    std::fill(parity.begin(), parity.end(), 0);
    const int pdisk = c56::raid5_parity_disk(
        c56::Raid5Flavor::kLeftAsymmetric, static_cast<int>(row % m), m);
    for (int d = 0; d < m; ++d) {
      if (d == pdisk) continue;
      auto blk = array.raw_block(d, row);
      rng.fill(blk.data(), kBlock);
      c56::xor_into(parity.data(), blk.data(), kBlock);
    }
    std::ranges::copy(parity, array.raw_block(pdisk, row).begin());
  }
}

struct Result {
  double conversion_ms;
  std::uint64_t app_ops;
  std::uint64_t preemptions;
  // Conversion I/O. Every application I/O is one single-block call,
  // i.e. one run, so the conversion's runs are the array's less those.
  std::uint64_t reads, read_runs, writes, write_runs;
  bool verified;
};

Result run(int p, std::int64_t groups, int writer_threads,
           bool disk0_failed) {
  const int m = p - 1;
  c56::mig::DiskArray array(m, groups * (p - 1), kBlock);
  fill_raid5(array, m);
  c56::mig::OnlineMigrator mig(array, p);
  if (disk0_failed) array.fail_disk(0);
  std::atomic<std::uint64_t> ops{0};
  std::atomic<bool> stop{false};

  const auto t0 = std::chrono::steady_clock::now();
  mig.start();
  std::vector<std::thread> writers;
  for (int w = 0; w < writer_threads; ++w) {
    writers.emplace_back([&, w] {
      c56::Rng rng(static_cast<std::uint64_t>(w) + 100);
      c56::Buffer buf(kBlock);
      const std::int64_t logical = mig.logical_blocks();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto l = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(logical)));
        rng.fill(buf.data(), kBlock);
        mig.write_block(l, buf.span());
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  mig.finish();
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true);
  for (auto& t : writers) t.join();

  Result r;
  r.conversion_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.app_ops = ops.load();
  const c56::mig::OnlineStats s = mig.stats();
  r.preemptions = s.interruptions;
  r.reads = s.conv_reads;
  r.read_runs = array.total_read_runs() - s.app_reads;
  r.writes = s.conv_writes;
  r.write_runs = array.total_write_runs() - s.app_writes;
  r.verified = mig.verify_raid6();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int p = argc > 1 ? std::atoi(argv[1]) : 5;
  const std::int64_t groups = argc > 2 ? std::atoll(argv[2]) : 4096;

  std::printf(
      "Online migration under load (p=%d, %lld stripe groups, %zu B "
      "blocks, in-memory array)\n\n",
      p, static_cast<long long>(groups), kBlock);
  c56::TextTable t({"writer threads", "conversion (ms)", "app writes",
                    "preemptions", "reads/blk", "read runs/blk",
                    "writes/blk", "write runs/blk", "RAID-6 valid"});
  const auto data_blocks =
      static_cast<std::uint64_t>(groups) * static_cast<std::uint64_t>(p - 1) *
      static_cast<std::uint64_t>(p - 2);
  const auto per_blk = [&](std::uint64_t n) {
    return c56::TextTable::fmt(
        static_cast<double>(n) / static_cast<double>(data_blocks), 4);
  };
  bool ok = true;
  // {writer threads, source disk 0 failed}
  for (const auto& [writers, failed] :
       {std::pair{0, false}, {1, false}, {2, false}, {4, false}, {0, true}}) {
    const Result r = run(p, groups, writers, failed);
    t.add_row({std::to_string(writers) + (failed ? " (disk 0 failed)" : ""),
               c56::TextTable::fmt(r.conversion_ms, 1),
               std::to_string(r.app_ops), std::to_string(r.preemptions),
               per_blk(r.reads), per_blk(r.read_runs), per_blk(r.writes),
               per_blk(r.write_runs), r.verified ? "yes" : "NO"});
    ok = ok && r.verified;
    if (writers == 0) {
      // A failed column is erased: one run per surviving column.
      const std::uint64_t runs_per_col = failed ? 1 : 2;
      const auto q = static_cast<std::uint64_t>(p);
      const bool closed =
          r.reads == data_blocks && r.writes * (q - 2) == data_blocks &&
          r.read_runs * (q - 1) == runs_per_col * data_blocks &&
          r.write_runs * (q - 1) * (q - 2) == data_blocks;
      if (!closed) {
        std::fprintf(stderr,
                     "FAIL: conversion I/O%s off the closed forms: %llu "
                     "reads, %llu read runs, %llu writes, %llu write runs "
                     "for %llu data blocks\n",
                     failed ? " with disk 0 failed" : "",
                     static_cast<unsigned long long>(r.reads),
                     static_cast<unsigned long long>(r.read_runs),
                     static_cast<unsigned long long>(r.writes),
                     static_cast<unsigned long long>(r.write_runs),
                     static_cast<unsigned long long>(data_blocks));
      }
      ok = ok && closed;
    }
  }
  std::ostringstream os;
  t.print(os);
  std::fputs(os.str().c_str(), stdout);
  std::printf(
      "\nEvery run must end with a byte-consistent RAID-6 regardless of "
      "write pressure\n(Algorithm 2's interrupt/resume protocol). Without "
      "writers, per data block: reads 1,\nwrites 1/(p-2), read runs 2/(p-1) "
      "(1/(p-1) with disk 0 failed), write runs\n1/((p-1)(p-2)).\n");
  if (!ok) std::fprintf(stderr, "online_overhead: gate FAILED\n");
  return ok ? 0 : 1;
}
