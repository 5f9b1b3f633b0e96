// The controller's write path, pinned from the outside: the exact disk
// traffic of every write shape on every code in the zoo (healthy and
// degraded), plus the fault cases a write must survive without leaving
// a stripe inconsistent — a failed parity pre-read, a failed parity
// range read in the middle of a sub-block write, and torn writes. The
// degraded reads are pinned the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "codes/registry.hpp"
#include "migration/controller.hpp"
#include "migration/fault.hpp"
#include "util/rng.hpp"

namespace c56::mig {
namespace {

enum class State { kHealthy, kDataFailed, kParityFailed };
enum class Shape {
  kBlock,              // write(l, in)
  kIdempotentBlock,    // write(l, in) with the block's current bytes
  kRow,                // write(l, count) over every data cell of a row
  kFullStripe,         // write(l, count) over one whole stripe
  kSubWrite,           // write_range(l, 256, <512 B>)
  kSharedParityBatch,  // two overlapping-offset sub-writes, one parity
  kFullBlockRange,     // write_range(l, 0, <block>)
  kHalfStripeHead,     // write(l, D/2) over the first D/2 data blocks
  kHalfStripeTail,     // the rest, after the head, 1-stripe cache
};

struct IoShape {
  std::uint64_t reads, writes, read_bytes, write_bytes, runs;
};

struct Pin {
  CodeId id;
  State state;
  Shape shape;
  IoShape io;
  // The same write under the planner that preceded reconstruct-write,
  // where it differs; rows without one never moved.
  std::optional<IoShape> parent = std::nullopt;
};

constexpr std::size_t kPinBlock = 1024;

// Disk traffic of one write on a prefilled two-stripe array, p = 5. The
// target is the first data block of stripe 1; the failed data disk is
// the target's, the failed parity disk holds a parity it feeds. Runs
// may only ever go down (a better planner batches more); every other
// number is exact. The half-stripe shapes write D/2 whole blocks at
// once, where reconstruct-write pays: a row with a `parent` reads
// strictly less than that rmw-only planner did and writes the same.
using enum CodeId;
using enum State;
using enum Shape;
const Pin kPins[] = {
    {kEvenOdd, kHealthy, kBlock, {3, 3, 3072, 3072, 6}},
    {kEvenOdd, kHealthy, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kEvenOdd, kHealthy, kRow, {9, 10, 9216, 10240, 13}},
    {kEvenOdd, kHealthy, kFullStripe, {0, 28, 0, 28672, 7}},
    {kEvenOdd, kHealthy, kSubWrite, {3, 3, 1536, 1536, 6}},
    {kEvenOdd, kHealthy, kSharedParityBatch, {5, 5, 2176, 2176, 10}},
    {kEvenOdd, kHealthy, kFullBlockRange, {3, 3, 3072, 3072, 6}},
    {kEvenOdd, kHealthy, kHalfStripeHead, {10, 16, 10240, 16384, 12},
     IoShape{14, 16, 14336, 16384, 13}},
    {kEvenOdd, kHealthy, kHalfStripeTail, {0, 16, 0, 16384, 7},
     IoShape{14, 16, 14336, 16384, 13}},
    {kEvenOdd, kDataFailed, kBlock, {7, 2, 7168, 2048, 9}},
    {kEvenOdd, kDataFailed, kIdempotentBlock, {5, 0, 5120, 0, 5}},
    {kEvenOdd, kDataFailed, kRow, {13, 9, 13312, 9216, 16}},
    {kEvenOdd, kDataFailed, kFullStripe, {0, 24, 0, 24576, 6}},
    {kEvenOdd, kDataFailed, kSubWrite, {7, 2, 6144, 1024, 9}},
    {kEvenOdd, kDataFailed, kSharedParityBatch, {9, 4, 6784, 1664, 13}},
    {kEvenOdd, kDataFailed, kFullBlockRange, {7, 2, 7168, 2048, 9}},
    {kEvenOdd, kDataFailed, kHalfStripeHead, {22, 14, 22528, 14336, 16}},
    {kEvenOdd, kDataFailed, kHalfStripeTail, {22, 14, 22528, 14336, 16}},
    {kEvenOdd, kParityFailed, kBlock, {2, 2, 2048, 2048, 4}},
    {kEvenOdd, kParityFailed, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kEvenOdd, kParityFailed, kRow, {9, 9, 9216, 9216, 12}},
    {kEvenOdd, kParityFailed, kFullStripe, {0, 24, 0, 24576, 6}},
    {kEvenOdd, kParityFailed, kSubWrite, {2, 2, 1024, 1024, 4}},
    {kEvenOdd, kParityFailed, kSharedParityBatch, {4, 4, 1536, 1536, 8}},
    {kEvenOdd, kParityFailed, kFullBlockRange, {2, 2, 2048, 2048, 4}},
    {kEvenOdd, kParityFailed, kHalfStripeHead, {10, 14, 10240, 14336, 11},
     IoShape{14, 14, 14336, 14336, 12}},
    {kEvenOdd, kParityFailed, kHalfStripeTail, {0, 14, 0, 14336, 6},
     IoShape{14, 14, 14336, 14336, 12}},
    {kRdp, kHealthy, kBlock, {3, 3, 3072, 3072, 6}},
    {kRdp, kHealthy, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kRdp, kHealthy, kRow, {8, 9, 8192, 9216, 11}},
    {kRdp, kHealthy, kFullStripe, {0, 24, 0, 24576, 6}},
    {kRdp, kHealthy, kSubWrite, {3, 3, 1536, 1536, 6}},
    {kRdp, kHealthy, kSharedParityBatch, {5, 5, 2176, 2176, 10}},
    {kRdp, kHealthy, kFullBlockRange, {3, 3, 3072, 3072, 6}},
    {kRdp, kHealthy, kHalfStripeHead, {8, 14, 8192, 14336, 10},
     IoShape{12, 14, 12288, 14336, 11}},
    {kRdp, kHealthy, kHalfStripeTail, {0, 14, 0, 14336, 6},
     IoShape{12, 14, 12288, 14336, 11}},
    {kRdp, kDataFailed, kBlock, {6, 2, 6144, 2048, 8}},
    {kRdp, kDataFailed, kIdempotentBlock, {4, 0, 4096, 0, 4}},
    {kRdp, kDataFailed, kRow, {11, 8, 11264, 8192, 13}},
    {kRdp, kDataFailed, kFullStripe, {0, 20, 0, 20480, 5}},
    {kRdp, kDataFailed, kSubWrite, {6, 2, 5120, 1024, 8}},
    {kRdp, kDataFailed, kSharedParityBatch, {8, 4, 5760, 1664, 12}},
    {kRdp, kDataFailed, kFullBlockRange, {6, 2, 6144, 2048, 8}},
    {kRdp, kDataFailed, kHalfStripeHead, {18, 12, 18432, 12288, 13}},
    {kRdp, kDataFailed, kHalfStripeTail, {18, 12, 18432, 12288, 13}},
    {kRdp, kParityFailed, kBlock, {2, 2, 2048, 2048, 4}},
    {kRdp, kParityFailed, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kRdp, kParityFailed, kRow, {8, 8, 8192, 8192, 10}},
    {kRdp, kParityFailed, kFullStripe, {0, 20, 0, 20480, 5}},
    {kRdp, kParityFailed, kSubWrite, {2, 2, 1024, 1024, 4}},
    {kRdp, kParityFailed, kSharedParityBatch, {4, 4, 1536, 1536, 8}},
    {kRdp, kParityFailed, kFullBlockRange, {2, 2, 2048, 2048, 4}},
    {kRdp, kParityFailed, kHalfStripeHead, {8, 12, 8192, 12288, 9},
     IoShape{12, 12, 12288, 12288, 10}},
    {kRdp, kParityFailed, kHalfStripeTail, {0, 12, 0, 12288, 5},
     IoShape{12, 12, 12288, 12288, 10}},
    {kHCode, kHealthy, kBlock, {3, 3, 3072, 3072, 6}},
    {kHCode, kHealthy, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kHCode, kHealthy, kRow, {8, 9, 8192, 9216, 16}},
    {kHCode, kHealthy, kFullStripe, {0, 24, 0, 24576, 6}},
    {kHCode, kHealthy, kSubWrite, {3, 3, 1536, 1536, 6}},
    {kHCode, kHealthy, kSharedParityBatch, {5, 5, 2176, 2176, 10}},
    {kHCode, kHealthy, kFullBlockRange, {3, 3, 3072, 3072, 6}},
    {kHCode, kHealthy, kHalfStripeHead, {8, 14, 8192, 14336, 12},
     IoShape{12, 14, 12288, 14336, 16}},
    {kHCode, kHealthy, kHalfStripeTail, {0, 14, 0, 14336, 7},
     IoShape{12, 14, 12288, 14336, 16}},
    {kHCode, kDataFailed, kBlock, {6, 2, 6144, 2048, 8}},
    {kHCode, kDataFailed, kIdempotentBlock, {4, 0, 4096, 0, 4}},
    {kHCode, kDataFailed, kRow, {11, 8, 11264, 8192, 18}},
    {kHCode, kDataFailed, kFullStripe, {0, 20, 0, 20480, 5}},
    {kHCode, kDataFailed, kSubWrite, {6, 2, 5120, 1024, 8}},
    {kHCode, kDataFailed, kSharedParityBatch, {8, 4, 5760, 1664, 12}},
    {kHCode, kDataFailed, kFullBlockRange, {6, 2, 6144, 2048, 8}},
    {kHCode, kDataFailed, kHalfStripeHead, {18, 12, 18432, 12288, 19}},
    {kHCode, kDataFailed, kHalfStripeTail, {18, 12, 18432, 12288, 19}},
    {kHCode, kParityFailed, kBlock, {2, 2, 2048, 2048, 4}},
    {kHCode, kParityFailed, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kHCode, kParityFailed, kRow, {8, 8, 8192, 8192, 15}},
    {kHCode, kParityFailed, kFullStripe, {0, 20, 0, 20480, 5}},
    {kHCode, kParityFailed, kSubWrite, {2, 2, 1024, 1024, 4}},
    {kHCode, kParityFailed, kSharedParityBatch, {4, 4, 1536, 1536, 8}},
    {kHCode, kParityFailed, kFullBlockRange, {2, 2, 2048, 2048, 4}},
    {kHCode, kParityFailed, kHalfStripeHead, {8, 12, 8192, 12288, 11},
     IoShape{12, 12, 12288, 12288, 15}},
    {kHCode, kParityFailed, kHalfStripeTail, {0, 12, 0, 12288, 6},
     IoShape{12, 12, 12288, 12288, 15}},
    {kXCode, kHealthy, kBlock, {3, 3, 3072, 3072, 6}},
    {kXCode, kHealthy, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kXCode, kHealthy, kRow, {15, 15, 15360, 15360, 20}},
    {kXCode, kHealthy, kFullStripe, {0, 25, 0, 25600, 5}},
    {kXCode, kHealthy, kSubWrite, {3, 3, 1536, 1536, 6}},
    {kXCode, kHealthy, kSharedParityBatch, {5, 5, 2176, 2176, 10}},
    {kXCode, kHealthy, kFullBlockRange, {3, 3, 3072, 3072, 6}},
    {kXCode, kHealthy, kHalfStripeHead, {15, 17, 15360, 17408, 23},
     IoShape{17, 17, 17408, 17408, 20}},
    {kXCode, kHealthy, kHalfStripeTail, {4, 18, 4096, 18432, 8},
     IoShape{18, 18, 18432, 18432, 15}},
    {kXCode, kDataFailed, kBlock, {5, 2, 5120, 2048, 7}},
    {kXCode, kDataFailed, kIdempotentBlock, {3, 0, 3072, 0, 3}},
    {kXCode, kDataFailed, kRow, {15, 12, 15360, 12288, 19}},
    {kXCode, kDataFailed, kFullStripe, {0, 20, 0, 20480, 4}},
    {kXCode, kDataFailed, kSubWrite, {5, 2, 4096, 1024, 7}},
    {kXCode, kDataFailed, kSharedParityBatch, {7, 4, 4736, 1664, 11}},
    {kXCode, kDataFailed, kFullBlockRange, {5, 2, 5120, 2048, 7}},
    {kXCode, kDataFailed, kHalfStripeHead, {19, 13, 19456, 13312, 20}},
    {kXCode, kDataFailed, kHalfStripeTail, {14, 15, 14336, 15360, 15},
     IoShape{18, 15, 18432, 15360, 15}},
    {kXCode, kParityFailed, kBlock, {2, 2, 2048, 2048, 4}},
    {kXCode, kParityFailed, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kXCode, kParityFailed, kRow, {15, 12, 15360, 12288, 19}},
    {kXCode, kParityFailed, kFullStripe, {0, 20, 0, 20480, 4}},
    {kXCode, kParityFailed, kSubWrite, {2, 2, 1024, 1024, 4}},
    {kXCode, kParityFailed, kSharedParityBatch, {4, 4, 1536, 1536, 8}},
    {kXCode, kParityFailed, kFullBlockRange, {2, 2, 2048, 2048, 4}},
    {kXCode, kParityFailed, kHalfStripeHead, {15, 14, 15360, 14336, 21},
     IoShape{17, 14, 17408, 14336, 19}},
    {kXCode, kParityFailed, kHalfStripeTail, {18, 14, 18432, 14336, 14},
     IoShape{20, 14, 20480, 14336, 16}},
    {kPCode, kHealthy, kBlock, {3, 3, 3072, 3072, 6}},
    {kPCode, kHealthy, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kPCode, kHealthy, kRow, {0, 0, 0, 0, 0}},
    {kPCode, kHealthy, kFullStripe, {0, 8, 0, 8192, 4}},
    {kPCode, kHealthy, kSubWrite, {3, 3, 1536, 1536, 6}},
    {kPCode, kHealthy, kSharedParityBatch, {5, 5, 2176, 2176, 10}},
    {kPCode, kHealthy, kFullBlockRange, {3, 3, 3072, 3072, 6}},
    {kPCode, kHealthy, kHalfStripeHead, {4, 5, 4096, 5120, 8}},
    {kPCode, kHealthy, kHalfStripeTail, {4, 5, 4096, 5120, 8}},
    {kPCode, kDataFailed, kBlock, {4, 2, 4096, 2048, 6}},
    {kPCode, kDataFailed, kIdempotentBlock, {2, 0, 2048, 0, 2}},
    {kPCode, kDataFailed, kRow, {0, 0, 0, 0, 0}},
    {kPCode, kDataFailed, kFullStripe, {0, 6, 0, 6144, 3}},
    {kPCode, kDataFailed, kSubWrite, {4, 2, 3072, 1024, 6}},
    {kPCode, kDataFailed, kSharedParityBatch, {5, 3, 3456, 1408, 8}},
    {kPCode, kDataFailed, kFullBlockRange, {4, 2, 4096, 2048, 6}},
    {kPCode, kDataFailed, kHalfStripeHead, {3, 3, 3072, 3072, 6}},
    {kPCode, kDataFailed, kHalfStripeTail, {2, 4, 2048, 4096, 5}},
    {kPCode, kParityFailed, kBlock, {2, 2, 2048, 2048, 4}},
    {kPCode, kParityFailed, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kPCode, kParityFailed, kRow, {0, 0, 0, 0, 0}},
    {kPCode, kParityFailed, kFullStripe, {0, 6, 0, 6144, 3}},
    {kPCode, kParityFailed, kSubWrite, {2, 2, 1024, 1024, 4}},
    {kPCode, kParityFailed, kSharedParityBatch, {4, 4, 1536, 1536, 8}},
    {kPCode, kParityFailed, kFullBlockRange, {2, 2, 2048, 2048, 4}},
    {kPCode, kParityFailed, kHalfStripeHead, {4, 4, 4096, 4096, 7}},
    {kPCode, kParityFailed, kHalfStripeTail, {5, 4, 5120, 4096, 8}},
    {kHdp, kHealthy, kBlock, {4, 4, 4096, 4096, 8}},
    {kHdp, kHealthy, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kHdp, kHealthy, kRow, {7, 7, 7168, 7168, 12}},
    {kHdp, kHealthy, kFullStripe, {0, 16, 0, 16384, 4}},
    {kHdp, kHealthy, kSubWrite, {4, 4, 2048, 2048, 8}},
    {kHdp, kHealthy, kSharedParityBatch, {6, 6, 2816, 2816, 12}},
    {kHdp, kHealthy, kFullBlockRange, {4, 4, 4096, 4096, 8}},
    {kHdp, kHealthy, kHalfStripeHead, {9, 11, 9216, 11264, 13},
     IoShape{10, 11, 10240, 11264, 14}},
    {kHdp, kHealthy, kHalfStripeTail, {3, 11, 3072, 11264, 8},
     IoShape{10, 11, 10240, 11264, 14}},
    {kHdp, kDataFailed, kBlock, {4, 2, 4096, 2048, 6}},
    {kHdp, kDataFailed, kIdempotentBlock, {2, 0, 2048, 0, 2}},
    {kHdp, kDataFailed, kRow, {7, 5, 7168, 5120, 11}},
    {kHdp, kDataFailed, kFullStripe, {0, 12, 0, 12288, 3}},
    {kHdp, kDataFailed, kSubWrite, {4, 2, 3072, 1024, 6}},
    {kHdp, kDataFailed, kSharedParityBatch, {6, 4, 3712, 1664, 10}},
    {kHdp, kDataFailed, kFullBlockRange, {4, 2, 4096, 2048, 6}},
    {kHdp, kDataFailed, kHalfStripeHead, {9, 8, 9216, 8192, 13}},
    {kHdp, kDataFailed, kHalfStripeTail, {8, 8, 8192, 8192, 13},
     IoShape{9, 8, 9216, 8192, 13}},
    {kHdp, kParityFailed, kBlock, {3, 3, 3072, 3072, 6}},
    {kHdp, kParityFailed, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kHdp, kParityFailed, kRow, {7, 5, 7168, 5120, 11}},
    {kHdp, kParityFailed, kFullStripe, {0, 12, 0, 12288, 3}},
    {kHdp, kParityFailed, kSubWrite, {3, 3, 1536, 1536, 6}},
    {kHdp, kParityFailed, kSharedParityBatch, {4, 4, 1920, 1920, 8}},
    {kHdp, kParityFailed, kFullBlockRange, {3, 3, 3072, 3072, 6}},
    {kHdp, kParityFailed, kHalfStripeHead, {9, 8, 9216, 8192, 13}},
    {kHdp, kParityFailed, kHalfStripeTail, {9, 8, 9216, 8192, 13}},
    {kCode56, kHealthy, kBlock, {3, 3, 3072, 3072, 6}},
    {kCode56, kHealthy, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kCode56, kHealthy, kRow, {6, 7, 6144, 7168, 9}},
    {kCode56, kHealthy, kFullStripe, {0, 20, 0, 20480, 5}},
    {kCode56, kHealthy, kSubWrite, {3, 3, 1536, 1536, 6}},
    {kCode56, kHealthy, kSharedParityBatch, {5, 5, 2176, 2176, 10}},
    {kCode56, kHealthy, kFullBlockRange, {3, 3, 3072, 3072, 6}},
    {kCode56, kHealthy, kHalfStripeHead, {6, 12, 6144, 12288, 10},
     IoShape{10, 12, 10240, 12288, 10}},
    {kCode56, kHealthy, kHalfStripeTail, {2, 12, 2048, 12288, 6},
     IoShape{10, 12, 10240, 12288, 10}},
    {kCode56, kDataFailed, kBlock, {5, 2, 5120, 2048, 7}},
    {kCode56, kDataFailed, kIdempotentBlock, {3, 0, 3072, 0, 3}},
    {kCode56, kDataFailed, kRow, {8, 6, 8192, 6144, 10}},
    {kCode56, kDataFailed, kFullStripe, {0, 16, 0, 16384, 4}},
    {kCode56, kDataFailed, kSubWrite, {5, 2, 4096, 1024, 7}},
    {kCode56, kDataFailed, kSharedParityBatch, {7, 4, 4736, 1664, 11}},
    {kCode56, kDataFailed, kFullBlockRange, {5, 2, 5120, 2048, 7}},
    {kCode56, kDataFailed, kHalfStripeHead, {14, 10, 14336, 10240, 11}},
    {kCode56, kDataFailed, kHalfStripeTail, {9, 10, 9216, 10240, 10},
     IoShape{12, 10, 12288, 10240, 11}},
    {kCode56, kParityFailed, kBlock, {2, 2, 2048, 2048, 4}},
    {kCode56, kParityFailed, kIdempotentBlock, {1, 0, 1024, 0, 1}},
    {kCode56, kParityFailed, kRow, {6, 6, 6144, 6144, 8}},
    {kCode56, kParityFailed, kFullStripe, {0, 16, 0, 16384, 4}},
    {kCode56, kParityFailed, kSubWrite, {2, 2, 1024, 1024, 4}},
    {kCode56, kParityFailed, kSharedParityBatch, {4, 4, 1536, 1536, 8}},
    {kCode56, kParityFailed, kFullBlockRange, {2, 2, 2048, 2048, 4}},
    {kCode56, kParityFailed, kHalfStripeHead, {10, 10, 10240, 10240, 10},
     IoShape{12, 10, 12288, 10240, 11}},
    {kCode56, kParityFailed, kHalfStripeTail, {13, 10, 13312, 10240, 10},
     IoShape{14, 10, 14336, 10240, 11}},
};

const char* name(State s) {
  switch (s) {
    case State::kHealthy: return "kHealthy";
    case State::kDataFailed: return "kDataFailed";
    case State::kParityFailed: return "kParityFailed";
  }
  return "?";
}

const char* name(Shape s) {
  switch (s) {
    case Shape::kBlock: return "kBlock";
    case Shape::kIdempotentBlock: return "kIdempotentBlock";
    case Shape::kRow: return "kRow";
    case Shape::kFullStripe: return "kFullStripe";
    case Shape::kSubWrite: return "kSubWrite";
    case Shape::kSharedParityBatch: return "kSharedParityBatch";
    case Shape::kFullBlockRange: return "kFullBlockRange";
    case Shape::kHalfStripeHead: return "kHalfStripeHead";
    case Shape::kHalfStripeTail: return "kHalfStripeTail";
  }
  return "?";
}

IoShape totals(const DiskArray& a) {
  return {a.total_reads(), a.total_writes(), a.total_read_bytes(),
          a.total_write_bytes(), a.total_read_runs() + a.total_write_runs()};
}

/// Runs one pinned write and returns the traffic it caused.
IoShape measure(CodeId id, State state, Shape shape) {
  auto code = make_code(id, 5);
  const ErasureCode& c = *code;
  // Data cells in logical (row-major) order, as the controller numbers
  // them.
  std::vector<Cell> data;
  int row0 = 0;
  for (int r = 0; r < c.rows(); ++r) {
    for (int col = 0; col < c.cols(); ++col) {
      if (c.kind({r, col}) != CellKind::kData) continue;
      data.push_back({r, col});
      if (r == 0) ++row0;
    }
  }
  const auto logical_of = [&](Cell x) {
    return static_cast<std::int64_t>(
        std::find(data.begin(), data.end(), x) - data.begin());
  };
  const Cell target = data[0];
  const ParityChain* chain = nullptr;
  for (const ParityChain& ch : c.expanded_chains()) {
    if (ch.inputs.size() >= 2 &&
        std::find(ch.inputs.begin(), ch.inputs.end(), target) !=
            ch.inputs.end()) {
      chain = &ch;
      break;
    }
  }
  if (chain == nullptr) {
    ADD_FAILURE() << "no two-input parity chain feeds the target";
    return {};
  }
  const Cell partner =
      chain->inputs[0] == target ? chain->inputs[1] : chain->inputs[0];

  const auto per = static_cast<std::int64_t>(data.size());
  DiskArray array(c.cols(), 2LL * c.rows(), kPinBlock);
  ArrayController ctrl(array, std::move(code));
  Rng rng(0x9147);
  Buffer fill(static_cast<std::size_t>(2 * per) * kPinBlock);
  rng.fill(fill.data(), fill.size());
  ctrl.write(0, 2 * per, fill.span());
  if (state == State::kDataFailed) ctrl.fail_disk(target.col);
  if (state == State::kParityFailed) ctrl.fail_disk(chain->parity.col);

  const std::int64_t base = per;  // stripe 1, first data block
  Buffer in(static_cast<std::size_t>(per) * kPinBlock);
  rng.fill(in.data(), in.size());
  if (shape == Shape::kIdempotentBlock) {
    ctrl.read(base, in.span().subspan(0, kPinBlock));
  }
  const std::int64_t half = per / 2;
  const std::size_t head_bytes = static_cast<std::size_t>(half) * kPinBlock;
  if (shape == Shape::kHalfStripeTail) {
    ctrl.set_cache_stripes(1);
    ctrl.write(base, half, in.span().subspan(0, head_bytes));
    rng.fill(in.data(), in.size());
  }
  const IoShape before = totals(array);
  switch (shape) {
    case Shape::kBlock:
    case Shape::kIdempotentBlock:
      ctrl.write(base, in.span().subspan(0, kPinBlock));
      break;
    case Shape::kRow:
      ctrl.write(base, row0, in.span().subspan(0, row0 * kPinBlock));
      break;
    case Shape::kFullStripe:
      ctrl.write(base, per, in.span());
      break;
    case Shape::kSubWrite:
      ctrl.write_range(base, 256, in.span().subspan(0, 512));
      break;
    case Shape::kSharedParityBatch: {
      const ArrayController::SubWrite batch[] = {
          {base, 256, in.span().subspan(0, 512)},
          {base + logical_of(partner), 128, in.span().subspan(512, 256)},
      };
      ctrl.write_range(batch);
      break;
    }
    case Shape::kFullBlockRange:
      ctrl.write_range(base, 0, in.span().subspan(0, kPinBlock));
      break;
    case Shape::kHalfStripeHead:
      ctrl.write(base, half, in.span().subspan(0, head_bytes));
      break;
    case Shape::kHalfStripeTail:
      ctrl.write(base + half, per - half, in.span().subspan(head_bytes));
      break;
  }
  const IoShape after = totals(array);
  if (state == State::kHealthy) {
    EXPECT_TRUE(ctrl.scrub().empty());
  }
  return {after.reads - before.reads, after.writes - before.writes,
          after.read_bytes - before.read_bytes,
          after.write_bytes - before.write_bytes, after.runs - before.runs};
}

TEST(WriteIoPins, EveryShapeOnEveryCode) {
  std::size_t checked = 0;
  for (CodeId id : all_code_ids()) {
    for (State state :
         {State::kHealthy, State::kDataFailed, State::kParityFailed}) {
      for (Shape shape :
           {Shape::kBlock, Shape::kIdempotentBlock, Shape::kRow,
            Shape::kFullStripe, Shape::kSubWrite, Shape::kSharedParityBatch,
            Shape::kFullBlockRange, Shape::kHalfStripeHead,
            Shape::kHalfStripeTail}) {
        const IoShape got = measure(id, state, shape);
        const auto it = std::find_if(
            std::begin(kPins), std::end(kPins), [&](const Pin& p) {
              return p.id == id && p.state == state && p.shape == shape;
            });
        const std::string where = std::string(to_string(id)) + " " +
                                  name(state) + " " + name(shape);
        if (it == std::end(kPins)) {
          ADD_FAILURE() << "no pin for " << where;
          std::printf("    {CodeId::k?, State::%s, Shape::%s, {%llu, %llu, "
                      "%llu, %llu, %llu}},  // %s\n",
                      name(state), name(shape),
                      static_cast<unsigned long long>(got.reads),
                      static_cast<unsigned long long>(got.writes),
                      static_cast<unsigned long long>(got.read_bytes),
                      static_cast<unsigned long long>(got.write_bytes),
                      static_cast<unsigned long long>(got.runs),
                      to_string(id));
          continue;
        }
        ++checked;
        EXPECT_EQ(got.reads, it->io.reads) << where;
        EXPECT_EQ(got.writes, it->io.writes) << where;
        EXPECT_EQ(got.read_bytes, it->io.read_bytes) << where;
        EXPECT_EQ(got.write_bytes, it->io.write_bytes) << where;
        EXPECT_LE(got.runs, it->io.runs) << where;
        if (it->parent) {
          EXPECT_LT(it->io.reads, it->parent->reads) << where;
          EXPECT_EQ(it->io.writes, it->parent->writes) << where;
          EXPECT_EQ(it->io.write_bytes, it->parent->write_bytes) << where;
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPins));
}

// ---------------------------------------------------------------------
// Degraded reads, pinned the same way: the disk traffic of one read on a
// prefilled two-stripe array under every single failed disk and under
// disks {0, 1}, p = 5 and 7. The target is the first data block of
// stripe 1 on a failed disk (on a parity-only disk, the first data block
// of stripe 1). Each pin also carries the reads of the per-cell
// reconstruction the shared plan executor replaced: a single block reads
// exactly that many, a whole stripe never more.

enum class ReadShape {
  kOneBlock,     // read(l, out) of one block
  kSubRange,     // read_range(l, 256, <512 B>)
  kWholeStripe,  // read(l, per, out) over stripe 1
};

struct ReadPin {
  CodeId id;
  int p;
  int disk, second;  // second = -1: one failed disk
  ReadShape shape;
  std::uint64_t reads, read_bytes, runs;
  std::uint64_t per_cell_reads;
};

using enum ReadShape;
const ReadPin kReadPins[] = {
    {kEvenOdd, 5, 0, -1, kOneBlock, 5, 5120, 5, 5},
    {kEvenOdd, 5, 1, -1, kOneBlock, 5, 5120, 5, 5},
    {kEvenOdd, 5, 2, -1, kOneBlock, 5, 5120, 5, 5},
    {kEvenOdd, 5, 3, -1, kOneBlock, 5, 5120, 5, 5},
    {kEvenOdd, 5, 4, -1, kOneBlock, 5, 5120, 5, 5},
    {kEvenOdd, 5, 5, -1, kOneBlock, 1, 1024, 1, 1},
    {kEvenOdd, 5, 6, -1, kOneBlock, 1, 1024, 1, 1},
    {kEvenOdd, 5, 0, 1, kOneBlock, 10, 10240, 5, 10},
    {kEvenOdd, 5, 0, -1, kSubRange, 5, 5120, 5, 5},
    {kEvenOdd, 5, 1, -1, kSubRange, 5, 5120, 5, 5},
    {kEvenOdd, 5, 2, -1, kSubRange, 5, 5120, 5, 5},
    {kEvenOdd, 5, 3, -1, kSubRange, 5, 5120, 5, 5},
    {kEvenOdd, 5, 4, -1, kSubRange, 5, 5120, 5, 5},
    {kEvenOdd, 5, 5, -1, kSubRange, 1, 512, 1, 1},
    {kEvenOdd, 5, 6, -1, kSubRange, 1, 512, 1, 1},
    {kEvenOdd, 5, 0, 1, kSubRange, 10, 10240, 5, 10},
    {kEvenOdd, 5, 0, -1, kWholeStripe, 20, 20480, 5, 36},
    {kEvenOdd, 5, 1, -1, kWholeStripe, 20, 20480, 5, 36},
    {kEvenOdd, 5, 2, -1, kWholeStripe, 20, 20480, 5, 36},
    {kEvenOdd, 5, 3, -1, kWholeStripe, 20, 20480, 5, 36},
    {kEvenOdd, 5, 4, -1, kWholeStripe, 20, 20480, 5, 36},
    {kEvenOdd, 5, 5, -1, kWholeStripe, 20, 20480, 5, 20},
    {kEvenOdd, 5, 6, -1, kWholeStripe, 20, 20480, 5, 20},
    {kEvenOdd, 5, 0, 1, kWholeStripe, 20, 20480, 5, 104},
    {kEvenOdd, 7, 0, -1, kOneBlock, 7, 7168, 7, 7},
    {kEvenOdd, 7, 1, -1, kOneBlock, 7, 7168, 7, 7},
    {kEvenOdd, 7, 2, -1, kOneBlock, 7, 7168, 7, 7},
    {kEvenOdd, 7, 3, -1, kOneBlock, 7, 7168, 7, 7},
    {kEvenOdd, 7, 4, -1, kOneBlock, 7, 7168, 7, 7},
    {kEvenOdd, 7, 5, -1, kOneBlock, 7, 7168, 7, 7},
    {kEvenOdd, 7, 6, -1, kOneBlock, 7, 7168, 7, 7},
    {kEvenOdd, 7, 7, -1, kOneBlock, 1, 1024, 1, 1},
    {kEvenOdd, 7, 8, -1, kOneBlock, 1, 1024, 1, 1},
    {kEvenOdd, 7, 0, 1, kOneBlock, 16, 16384, 7, 16},
    {kEvenOdd, 7, 0, -1, kSubRange, 7, 7168, 7, 7},
    {kEvenOdd, 7, 1, -1, kSubRange, 7, 7168, 7, 7},
    {kEvenOdd, 7, 2, -1, kSubRange, 7, 7168, 7, 7},
    {kEvenOdd, 7, 3, -1, kSubRange, 7, 7168, 7, 7},
    {kEvenOdd, 7, 4, -1, kSubRange, 7, 7168, 7, 7},
    {kEvenOdd, 7, 5, -1, kSubRange, 7, 7168, 7, 7},
    {kEvenOdd, 7, 6, -1, kSubRange, 7, 7168, 7, 7},
    {kEvenOdd, 7, 7, -1, kSubRange, 1, 512, 1, 1},
    {kEvenOdd, 7, 8, -1, kSubRange, 1, 512, 1, 1},
    {kEvenOdd, 7, 0, 1, kSubRange, 16, 16384, 7, 16},
    {kEvenOdd, 7, 0, -1, kWholeStripe, 42, 43008, 7, 78},
    {kEvenOdd, 7, 1, -1, kWholeStripe, 42, 43008, 7, 78},
    {kEvenOdd, 7, 2, -1, kWholeStripe, 42, 43008, 7, 78},
    {kEvenOdd, 7, 3, -1, kWholeStripe, 42, 43008, 7, 78},
    {kEvenOdd, 7, 4, -1, kWholeStripe, 42, 43008, 7, 78},
    {kEvenOdd, 7, 5, -1, kWholeStripe, 42, 43008, 7, 78},
    {kEvenOdd, 7, 6, -1, kWholeStripe, 42, 43008, 7, 78},
    {kEvenOdd, 7, 7, -1, kWholeStripe, 42, 43008, 7, 42},
    {kEvenOdd, 7, 8, -1, kWholeStripe, 42, 43008, 7, 42},
    {kEvenOdd, 7, 0, 1, kWholeStripe, 42, 43008, 7, 284},
    {kRdp, 5, 0, -1, kOneBlock, 4, 4096, 4, 4},
    {kRdp, 5, 1, -1, kOneBlock, 4, 4096, 4, 4},
    {kRdp, 5, 2, -1, kOneBlock, 4, 4096, 4, 4},
    {kRdp, 5, 3, -1, kOneBlock, 4, 4096, 4, 4},
    {kRdp, 5, 4, -1, kOneBlock, 1, 1024, 1, 1},
    {kRdp, 5, 5, -1, kOneBlock, 1, 1024, 1, 1},
    {kRdp, 5, 0, 1, kOneBlock, 4, 4096, 4, 4},
    {kRdp, 5, 0, -1, kSubRange, 4, 4096, 4, 4},
    {kRdp, 5, 1, -1, kSubRange, 4, 4096, 4, 4},
    {kRdp, 5, 2, -1, kSubRange, 4, 4096, 4, 4},
    {kRdp, 5, 3, -1, kSubRange, 4, 4096, 4, 4},
    {kRdp, 5, 4, -1, kSubRange, 1, 512, 1, 1},
    {kRdp, 5, 5, -1, kSubRange, 1, 512, 1, 1},
    {kRdp, 5, 0, 1, kSubRange, 4, 4096, 4, 4},
    {kRdp, 5, 0, -1, kWholeStripe, 16, 16384, 4, 28},
    {kRdp, 5, 1, -1, kWholeStripe, 16, 16384, 4, 28},
    {kRdp, 5, 2, -1, kWholeStripe, 16, 16384, 4, 28},
    {kRdp, 5, 3, -1, kWholeStripe, 16, 16384, 4, 28},
    {kRdp, 5, 4, -1, kWholeStripe, 16, 16384, 4, 16},
    {kRdp, 5, 5, -1, kWholeStripe, 16, 16384, 4, 16},
    {kRdp, 5, 0, 1, kWholeStripe, 16, 16384, 4, 80},
    {kRdp, 7, 0, -1, kOneBlock, 6, 6144, 6, 6},
    {kRdp, 7, 1, -1, kOneBlock, 6, 6144, 6, 6},
    {kRdp, 7, 2, -1, kOneBlock, 6, 6144, 6, 6},
    {kRdp, 7, 3, -1, kOneBlock, 6, 6144, 6, 6},
    {kRdp, 7, 4, -1, kOneBlock, 6, 6144, 6, 6},
    {kRdp, 7, 5, -1, kOneBlock, 6, 6144, 6, 6},
    {kRdp, 7, 6, -1, kOneBlock, 1, 1024, 1, 1},
    {kRdp, 7, 7, -1, kOneBlock, 1, 1024, 1, 1},
    {kRdp, 7, 0, 1, kOneBlock, 6, 6144, 6, 6},
    {kRdp, 7, 0, -1, kSubRange, 6, 6144, 6, 6},
    {kRdp, 7, 1, -1, kSubRange, 6, 6144, 6, 6},
    {kRdp, 7, 2, -1, kSubRange, 6, 6144, 6, 6},
    {kRdp, 7, 3, -1, kSubRange, 6, 6144, 6, 6},
    {kRdp, 7, 4, -1, kSubRange, 6, 6144, 6, 6},
    {kRdp, 7, 5, -1, kSubRange, 6, 6144, 6, 6},
    {kRdp, 7, 6, -1, kSubRange, 1, 512, 1, 1},
    {kRdp, 7, 7, -1, kSubRange, 1, 512, 1, 1},
    {kRdp, 7, 0, 1, kSubRange, 6, 6144, 6, 6},
    {kRdp, 7, 0, -1, kWholeStripe, 36, 36864, 6, 66},
    {kRdp, 7, 1, -1, kWholeStripe, 36, 36864, 6, 66},
    {kRdp, 7, 2, -1, kWholeStripe, 36, 36864, 6, 66},
    {kRdp, 7, 3, -1, kWholeStripe, 36, 36864, 6, 66},
    {kRdp, 7, 4, -1, kWholeStripe, 36, 36864, 6, 66},
    {kRdp, 7, 5, -1, kWholeStripe, 36, 36864, 6, 66},
    {kRdp, 7, 6, -1, kWholeStripe, 36, 36864, 6, 36},
    {kRdp, 7, 7, -1, kWholeStripe, 36, 36864, 6, 36},
    {kRdp, 7, 0, 1, kWholeStripe, 36, 36864, 6, 236},
    {kHCode, 5, 0, -1, kOneBlock, 4, 4096, 4, 4},
    {kHCode, 5, 1, -1, kOneBlock, 4, 4096, 4, 4},
    {kHCode, 5, 2, -1, kOneBlock, 4, 4096, 4, 4},
    {kHCode, 5, 3, -1, kOneBlock, 4, 4096, 4, 4},
    {kHCode, 5, 4, -1, kOneBlock, 4, 4096, 4, 4},
    {kHCode, 5, 5, -1, kOneBlock, 1, 1024, 1, 1},
    {kHCode, 5, 0, 1, kOneBlock, 4, 4096, 4, 4},
    {kHCode, 5, 0, -1, kSubRange, 4, 4096, 4, 4},
    {kHCode, 5, 1, -1, kSubRange, 4, 4096, 4, 4},
    {kHCode, 5, 2, -1, kSubRange, 4, 4096, 4, 4},
    {kHCode, 5, 3, -1, kSubRange, 4, 4096, 4, 4},
    {kHCode, 5, 4, -1, kSubRange, 4, 4096, 4, 4},
    {kHCode, 5, 5, -1, kSubRange, 1, 512, 1, 1},
    {kHCode, 5, 0, 1, kSubRange, 4, 4096, 4, 4},
    {kHCode, 5, 0, -1, kWholeStripe, 16, 16384, 7, 28},
    {kHCode, 5, 1, -1, kWholeStripe, 16, 16384, 7, 25},
    {kHCode, 5, 2, -1, kWholeStripe, 16, 16384, 7, 25},
    {kHCode, 5, 3, -1, kWholeStripe, 16, 16384, 7, 25},
    {kHCode, 5, 4, -1, kWholeStripe, 16, 16384, 7, 25},
    {kHCode, 5, 5, -1, kWholeStripe, 16, 16384, 7, 16},
    {kHCode, 5, 0, 1, kWholeStripe, 16, 16384, 4, 74},
    {kHCode, 7, 0, -1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 1, -1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 2, -1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 3, -1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 4, -1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 5, -1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 6, -1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 7, -1, kOneBlock, 1, 1024, 1, 1},
    {kHCode, 7, 0, 1, kOneBlock, 6, 6144, 6, 6},
    {kHCode, 7, 0, -1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 1, -1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 2, -1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 3, -1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 4, -1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 5, -1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 6, -1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 7, -1, kSubRange, 1, 512, 1, 1},
    {kHCode, 7, 0, 1, kSubRange, 6, 6144, 6, 6},
    {kHCode, 7, 0, -1, kWholeStripe, 36, 36864, 11, 66},
    {kHCode, 7, 1, -1, kWholeStripe, 36, 36864, 11, 61},
    {kHCode, 7, 2, -1, kWholeStripe, 36, 36864, 11, 61},
    {kHCode, 7, 3, -1, kWholeStripe, 36, 36864, 11, 61},
    {kHCode, 7, 4, -1, kWholeStripe, 36, 36864, 11, 61},
    {kHCode, 7, 5, -1, kWholeStripe, 36, 36864, 11, 61},
    {kHCode, 7, 6, -1, kWholeStripe, 36, 36864, 11, 61},
    {kHCode, 7, 7, -1, kWholeStripe, 36, 36864, 11, 36},
    {kHCode, 7, 0, 1, kWholeStripe, 36, 36864, 6, 226},
    {kXCode, 5, 0, -1, kOneBlock, 3, 3072, 3, 3},
    {kXCode, 5, 1, -1, kOneBlock, 3, 3072, 3, 3},
    {kXCode, 5, 2, -1, kOneBlock, 3, 3072, 3, 3},
    {kXCode, 5, 3, -1, kOneBlock, 3, 3072, 3, 3},
    {kXCode, 5, 4, -1, kOneBlock, 3, 3072, 3, 3},
    {kXCode, 5, 0, 1, kOneBlock, 3, 3072, 3, 3},
    {kXCode, 5, 0, -1, kSubRange, 3, 3072, 3, 3},
    {kXCode, 5, 1, -1, kSubRange, 3, 3072, 3, 3},
    {kXCode, 5, 2, -1, kSubRange, 3, 3072, 3, 3},
    {kXCode, 5, 3, -1, kSubRange, 3, 3072, 3, 3},
    {kXCode, 5, 4, -1, kSubRange, 3, 3072, 3, 3},
    {kXCode, 5, 0, 1, kSubRange, 3, 3072, 3, 3},
    {kXCode, 5, 0, -1, kWholeStripe, 15, 15360, 4, 21},
    {kXCode, 5, 1, -1, kWholeStripe, 15, 15360, 4, 21},
    {kXCode, 5, 2, -1, kWholeStripe, 15, 15360, 4, 21},
    {kXCode, 5, 3, -1, kWholeStripe, 15, 15360, 4, 21},
    {kXCode, 5, 4, -1, kWholeStripe, 15, 15360, 4, 21},
    {kXCode, 5, 0, 1, kWholeStripe, 15, 15360, 3, 39},
    {kXCode, 7, 0, -1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 1, -1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 2, -1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 3, -1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 4, -1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 5, -1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 6, -1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 0, 1, kOneBlock, 5, 5120, 5, 5},
    {kXCode, 7, 0, -1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 1, -1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 2, -1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 3, -1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 4, -1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 5, -1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 6, -1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 0, 1, kSubRange, 5, 5120, 5, 5},
    {kXCode, 7, 0, -1, kWholeStripe, 35, 35840, 6, 55},
    {kXCode, 7, 1, -1, kWholeStripe, 35, 35840, 6, 55},
    {kXCode, 7, 2, -1, kWholeStripe, 35, 35840, 6, 55},
    {kXCode, 7, 3, -1, kWholeStripe, 35, 35840, 6, 55},
    {kXCode, 7, 4, -1, kWholeStripe, 35, 35840, 6, 55},
    {kXCode, 7, 5, -1, kWholeStripe, 35, 35840, 6, 55},
    {kXCode, 7, 6, -1, kWholeStripe, 35, 35840, 6, 55},
    {kXCode, 7, 0, 1, kWholeStripe, 35, 35840, 5, 143},
    {kPCode, 5, 0, -1, kOneBlock, 2, 2048, 2, 2},
    {kPCode, 5, 1, -1, kOneBlock, 2, 2048, 2, 2},
    {kPCode, 5, 2, -1, kOneBlock, 2, 2048, 2, 2},
    {kPCode, 5, 3, -1, kOneBlock, 2, 2048, 2, 2},
    {kPCode, 5, 0, 1, kOneBlock, 2, 2048, 2, 2},
    {kPCode, 5, 0, -1, kSubRange, 2, 2048, 2, 2},
    {kPCode, 5, 1, -1, kSubRange, 2, 2048, 2, 2},
    {kPCode, 5, 2, -1, kSubRange, 2, 2048, 2, 2},
    {kPCode, 5, 3, -1, kSubRange, 2, 2048, 2, 2},
    {kPCode, 5, 0, 1, kSubRange, 2, 2048, 2, 2},
    {kPCode, 5, 0, -1, kWholeStripe, 4, 4096, 3, 5},
    {kPCode, 5, 1, -1, kWholeStripe, 4, 4096, 3, 5},
    {kPCode, 5, 2, -1, kWholeStripe, 4, 4096, 3, 5},
    {kPCode, 5, 3, -1, kWholeStripe, 4, 4096, 3, 5},
    {kPCode, 5, 0, 1, kWholeStripe, 4, 4096, 2, 7},
    {kPCode, 7, 0, -1, kOneBlock, 4, 4096, 4, 4},
    {kPCode, 7, 1, -1, kOneBlock, 4, 4096, 4, 4},
    {kPCode, 7, 2, -1, kOneBlock, 4, 4096, 4, 4},
    {kPCode, 7, 3, -1, kOneBlock, 4, 4096, 4, 4},
    {kPCode, 7, 4, -1, kOneBlock, 4, 4096, 4, 4},
    {kPCode, 7, 5, -1, kOneBlock, 4, 4096, 4, 4},
    {kPCode, 7, 0, 1, kOneBlock, 8, 8192, 4, 8},
    {kPCode, 7, 0, -1, kSubRange, 4, 4096, 4, 4},
    {kPCode, 7, 1, -1, kSubRange, 4, 4096, 4, 4},
    {kPCode, 7, 2, -1, kSubRange, 4, 4096, 4, 4},
    {kPCode, 7, 3, -1, kSubRange, 4, 4096, 4, 4},
    {kPCode, 7, 4, -1, kSubRange, 4, 4096, 4, 4},
    {kPCode, 7, 5, -1, kSubRange, 4, 4096, 4, 4},
    {kPCode, 7, 0, 1, kSubRange, 8, 8192, 4, 8},
    {kPCode, 7, 0, -1, kWholeStripe, 12, 12288, 5, 18},
    {kPCode, 7, 1, -1, kWholeStripe, 12, 12288, 5, 18},
    {kPCode, 7, 2, -1, kWholeStripe, 12, 12288, 5, 18},
    {kPCode, 7, 3, -1, kWholeStripe, 12, 12288, 5, 18},
    {kPCode, 7, 4, -1, kWholeStripe, 12, 12288, 5, 18},
    {kPCode, 7, 5, -1, kWholeStripe, 12, 12288, 5, 18},
    {kPCode, 7, 0, 1, kWholeStripe, 12, 12288, 4, 36},
    {kHdp, 5, 0, -1, kOneBlock, 2, 2048, 2, 2},
    {kHdp, 5, 1, -1, kOneBlock, 2, 2048, 2, 2},
    {kHdp, 5, 2, -1, kOneBlock, 2, 2048, 2, 2},
    {kHdp, 5, 3, -1, kOneBlock, 2, 2048, 2, 2},
    {kHdp, 5, 0, 1, kOneBlock, 2, 2048, 2, 2},
    {kHdp, 5, 0, -1, kSubRange, 2, 2048, 2, 2},
    {kHdp, 5, 1, -1, kSubRange, 2, 2048, 2, 2},
    {kHdp, 5, 2, -1, kSubRange, 2, 2048, 2, 2},
    {kHdp, 5, 3, -1, kSubRange, 2, 2048, 2, 2},
    {kHdp, 5, 0, 1, kSubRange, 2, 2048, 2, 2},
    {kHdp, 5, 0, -1, kWholeStripe, 8, 8192, 5, 10},
    {kHdp, 5, 1, -1, kWholeStripe, 8, 8192, 4, 10},
    {kHdp, 5, 2, -1, kWholeStripe, 8, 8192, 4, 10},
    {kHdp, 5, 3, -1, kWholeStripe, 8, 8192, 5, 10},
    {kHdp, 5, 0, 1, kWholeStripe, 8, 8192, 2, 21},
    {kHdp, 7, 0, -1, kOneBlock, 4, 4096, 4, 4},
    {kHdp, 7, 1, -1, kOneBlock, 4, 4096, 4, 4},
    {kHdp, 7, 2, -1, kOneBlock, 4, 4096, 4, 4},
    {kHdp, 7, 3, -1, kOneBlock, 4, 4096, 4, 4},
    {kHdp, 7, 4, -1, kOneBlock, 4, 4096, 4, 4},
    {kHdp, 7, 5, -1, kOneBlock, 4, 4096, 4, 4},
    {kHdp, 7, 0, 1, kOneBlock, 4, 4096, 4, 4},
    {kHdp, 7, 0, -1, kSubRange, 4, 4096, 4, 4},
    {kHdp, 7, 1, -1, kSubRange, 4, 4096, 4, 4},
    {kHdp, 7, 2, -1, kSubRange, 4, 4096, 4, 4},
    {kHdp, 7, 3, -1, kSubRange, 4, 4096, 4, 4},
    {kHdp, 7, 4, -1, kSubRange, 4, 4096, 4, 4},
    {kHdp, 7, 5, -1, kSubRange, 4, 4096, 4, 4},
    {kHdp, 7, 0, 1, kSubRange, 4, 4096, 4, 4},
    {kHdp, 7, 0, -1, kWholeStripe, 24, 24576, 9, 36},
    {kHdp, 7, 1, -1, kWholeStripe, 24, 24576, 8, 36},
    {kHdp, 7, 2, -1, kWholeStripe, 24, 24576, 9, 36},
    {kHdp, 7, 3, -1, kWholeStripe, 24, 24576, 9, 36},
    {kHdp, 7, 4, -1, kWholeStripe, 24, 24576, 8, 36},
    {kHdp, 7, 5, -1, kWholeStripe, 24, 24576, 9, 36},
    {kHdp, 7, 0, 1, kWholeStripe, 24, 24576, 4, 121},
    {kCode56, 5, 0, -1, kOneBlock, 3, 3072, 3, 3},
    {kCode56, 5, 1, -1, kOneBlock, 3, 3072, 3, 3},
    {kCode56, 5, 2, -1, kOneBlock, 3, 3072, 3, 3},
    {kCode56, 5, 3, -1, kOneBlock, 3, 3072, 3, 3},
    {kCode56, 5, 4, -1, kOneBlock, 1, 1024, 1, 1},
    {kCode56, 5, 0, 1, kOneBlock, 3, 3072, 3, 3},
    {kCode56, 5, 0, -1, kSubRange, 3, 3072, 3, 3},
    {kCode56, 5, 1, -1, kSubRange, 3, 3072, 3, 3},
    {kCode56, 5, 2, -1, kSubRange, 3, 3072, 3, 3},
    {kCode56, 5, 3, -1, kSubRange, 3, 3072, 3, 3},
    {kCode56, 5, 4, -1, kSubRange, 1, 512, 1, 1},
    {kCode56, 5, 0, 1, kSubRange, 3, 3072, 3, 3},
    {kCode56, 5, 0, -1, kWholeStripe, 12, 12288, 3, 18},
    {kCode56, 5, 1, -1, kWholeStripe, 12, 12288, 3, 18},
    {kCode56, 5, 2, -1, kWholeStripe, 12, 12288, 3, 18},
    {kCode56, 5, 3, -1, kWholeStripe, 12, 12288, 3, 18},
    {kCode56, 5, 4, -1, kWholeStripe, 12, 12288, 6, 12},
    {kCode56, 5, 0, 1, kWholeStripe, 12, 12288, 3, 42},
    {kCode56, 7, 0, -1, kOneBlock, 5, 5120, 5, 5},
    {kCode56, 7, 1, -1, kOneBlock, 5, 5120, 5, 5},
    {kCode56, 7, 2, -1, kOneBlock, 5, 5120, 5, 5},
    {kCode56, 7, 3, -1, kOneBlock, 5, 5120, 5, 5},
    {kCode56, 7, 4, -1, kOneBlock, 5, 5120, 5, 5},
    {kCode56, 7, 5, -1, kOneBlock, 5, 5120, 5, 5},
    {kCode56, 7, 6, -1, kOneBlock, 1, 1024, 1, 1},
    {kCode56, 7, 0, 1, kOneBlock, 5, 5120, 5, 5},
    {kCode56, 7, 0, -1, kSubRange, 5, 5120, 5, 5},
    {kCode56, 7, 1, -1, kSubRange, 5, 5120, 5, 5},
    {kCode56, 7, 2, -1, kSubRange, 5, 5120, 5, 5},
    {kCode56, 7, 3, -1, kSubRange, 5, 5120, 5, 5},
    {kCode56, 7, 4, -1, kSubRange, 5, 5120, 5, 5},
    {kCode56, 7, 5, -1, kSubRange, 5, 5120, 5, 5},
    {kCode56, 7, 6, -1, kSubRange, 1, 512, 1, 1},
    {kCode56, 7, 0, 1, kSubRange, 5, 5120, 5, 5},
    {kCode56, 7, 0, -1, kWholeStripe, 30, 30720, 5, 50},
    {kCode56, 7, 1, -1, kWholeStripe, 30, 30720, 5, 50},
    {kCode56, 7, 2, -1, kWholeStripe, 30, 30720, 5, 50},
    {kCode56, 7, 3, -1, kWholeStripe, 30, 30720, 5, 50},
    {kCode56, 7, 4, -1, kWholeStripe, 30, 30720, 5, 50},
    {kCode56, 7, 5, -1, kWholeStripe, 30, 30720, 5, 50},
    {kCode56, 7, 6, -1, kWholeStripe, 30, 30720, 10, 30},
    {kCode56, 7, 0, 1, kWholeStripe, 30, 30720, 5, 170},
};

const char* name(ReadShape s) {
  switch (s) {
    case ReadShape::kOneBlock: return "kOneBlock";
    case ReadShape::kSubRange: return "kSubRange";
    case ReadShape::kWholeStripe: return "kWholeStripe";
  }
  return "?";
}

/// Runs one pinned read and returns its traffic (writes and write bytes
/// must stay zero), checking the bytes read against the written mirror.
IoShape measure_read(CodeId id, int p, int disk, int second, ReadShape shape) {
  auto code = make_code(id, p);
  const ErasureCode& c = *code;
  std::vector<Cell> data;
  for (int r = 0; r < c.rows(); ++r) {
    for (int col = 0; col < c.cols(); ++col) {
      if (c.kind({r, col}) == CellKind::kData) data.push_back({r, col});
    }
  }
  const auto per = static_cast<std::int64_t>(data.size());
  const auto on_failed = std::find_if(data.begin(), data.end(), [&](Cell x) {
    return x.col == disk || x.col == second;
  });
  const std::int64_t target =
      per + (on_failed == data.end() ? 0 : on_failed - data.begin());

  DiskArray array(c.cols(), 2LL * c.rows(), kPinBlock);
  ArrayController ctrl(array, std::move(code));
  Buffer mirror(static_cast<std::size_t>(2 * per) * kPinBlock);
  Rng(0xDE6).fill(mirror.data(), mirror.size());
  ctrl.write(0, 2 * per, mirror.span());
  ctrl.fail_disk(disk);
  if (second >= 0) ctrl.fail_disk(second);

  Buffer got(static_cast<std::size_t>(per) * kPinBlock);
  const IoShape before = totals(array);
  std::size_t from = static_cast<std::size_t>(target) * kPinBlock, len = 0;
  switch (shape) {
    case ReadShape::kOneBlock:
      len = kPinBlock;
      ctrl.read(target, got.span().subspan(0, len));
      break;
    case ReadShape::kSubRange:
      from += 256;
      len = 512;
      ctrl.read_range(target, 256, got.span().subspan(0, len));
      break;
    case ReadShape::kWholeStripe:
      from = static_cast<std::size_t>(per) * kPinBlock;
      len = got.size();
      ctrl.read(per, per, got.span());
      break;
  }
  const IoShape after = totals(array);
  EXPECT_TRUE(std::equal(got.data(), got.data() + len, mirror.data() + from))
      << to_string(id) << " p=" << p << " disk " << disk << " second "
      << second << " " << name(shape);
  return {after.reads - before.reads, after.writes - before.writes,
          after.read_bytes - before.read_bytes,
          after.write_bytes - before.write_bytes, after.runs - before.runs};
}

TEST(DegradedReadIoPins, EveryCodeAndFailedDisk) {
  std::size_t checked = 0;
  const auto check = [&](CodeId id, int p, int disk, int second,
                         ReadShape shape) {
    const IoShape got = measure_read(id, p, disk, second, shape);
    const std::string where = std::string(to_string(id)) + " p=" +
                              std::to_string(p) + " disk " +
                              std::to_string(disk) + " second " +
                              std::to_string(second) + " " + name(shape);
    EXPECT_EQ(got.writes, 0u) << where;
    EXPECT_EQ(got.write_bytes, 0u) << where;
    const auto it = std::find_if(
        std::begin(kReadPins), std::end(kReadPins), [&](const ReadPin& x) {
          return x.id == id && x.p == p && x.disk == disk &&
                 x.second == second && x.shape == shape;
        });
    if (it == std::end(kReadPins)) {
      ADD_FAILURE() << "no pin for " << where;
      std::printf("PIN {%d, %d, %d, %d, %s, %llu, %llu, %llu}\n",
                  static_cast<int>(id), p, disk, second, name(shape),
                  static_cast<unsigned long long>(got.reads),
                  static_cast<unsigned long long>(got.read_bytes),
                  static_cast<unsigned long long>(got.runs));
      return;
    }
    ++checked;
    EXPECT_EQ(got.reads, it->reads) << where;
    EXPECT_EQ(got.read_bytes, it->read_bytes) << where;
    EXPECT_EQ(got.runs, it->runs) << where;
    EXPECT_LE(it->reads, it->per_cell_reads) << where;
    if (shape != ReadShape::kWholeStripe) {
      EXPECT_EQ(it->reads, it->per_cell_reads) << where;
    }
  };
  for (CodeId id : all_code_ids()) {
    for (int p : {5, 7}) {
      const int disks = make_code(id, p)->cols();
      for (ReadShape shape : {kOneBlock, kSubRange, kWholeStripe}) {
        for (int d = 0; d < disks; ++d) check(id, p, d, -1, shape);
        check(id, p, 0, 1, shape);
      }
    }
  }
  EXPECT_EQ(checked, std::size(kReadPins));
}

// ---------------------------------------------------------------------
// Fault cases. Code 5-6, p = 5, 512-byte blocks: logical 0 is cell
// (0, 0); its parities sit at (disk 3, block 0) and (disk 4, block 1).

constexpr std::size_t kFaultBlock = 512;

struct Prefilled {
  explicit Prefilled(std::int64_t stripes)
      : array(5, stripes * 4, kFaultBlock),
        ctrl(array, make_code(CodeId::kCode56, 5)) {
    Buffer buf(static_cast<std::size_t>(ctrl.logical_blocks()) * kFaultBlock);
    Rng(0xFA17).fill(buf.data(), buf.size());
    ctrl.write(0, ctrl.logical_blocks(), buf.span());
  }
  DiskArray array;
  ArrayController ctrl;
};

/// A parity pre-read that keeps failing must fail the write before any
/// block is written, leaving the stripe consistent.
TEST(WriteFaults, FailedParityReadThrowsBeforeWriting) {
  for (const FaultPlan::BadBlock bad : {FaultPlan::BadBlock{3, 0},
                                        FaultPlan::BadBlock{4, 1}}) {
    Prefilled f(2);
    Buffer old(kFaultBlock), in(kFaultBlock), got(kFaultBlock);
    f.ctrl.read(0, old.span());
    Rng(bad.disk).fill(in.data(), in.size());
    FaultPlan plan;
    plan.bad_blocks.push_back(bad);
    f.array.set_fault_plan(plan);
    EXPECT_THROW(f.ctrl.write(0, in.span()), std::runtime_error)
        << "bad block at disk " << bad.disk;
    f.array.set_fault_plan(FaultPlan{});
    EXPECT_TRUE(f.ctrl.scrub().empty()) << "bad block at disk " << bad.disk;
    f.ctrl.read(0, got.span());
    EXPECT_TRUE(got == old);
  }
}

/// Same for a sub-block write: its second parity's range read fails
/// after the first parity could already have been rewritten.
TEST(WriteFaults, FailedSubBlockParityReadThrowsBeforeWriting) {
  Prefilled f(2);
  Buffer in(100);
  Rng(7).fill(in.data(), in.size());
  FaultPlan plan;
  plan.bad_blocks.push_back({4, 1});
  f.array.set_fault_plan(plan);
  EXPECT_THROW(f.ctrl.write_range(0, 100, in.span()), std::runtime_error);
  f.array.set_fault_plan(FaultPlan{});
  EXPECT_TRUE(f.ctrl.scrub().empty());
}

/// Torn writes are retried on every write shape — single-block runs
/// included. At this rate and seed no block tears max_attempts times
/// in a row, so every write lands whole.
TEST(WriteFaults, TornWritesAreRetried) {
  Prefilled f(64);
  FaultPlan plan;
  plan.torn_write_rate = 0.1;
  f.array.set_fault_plan(plan);
  Buffer in(2 * kFaultBlock);
  Rng rng(0x7042);
  for (std::int64_t l = 0; l + 2 <= f.ctrl.logical_blocks(); l += 5) {
    rng.fill(in.data(), in.size());
    f.ctrl.write(l, 2, in.span());
  }
  EXPECT_GT(f.array.torn_writes(), 0u);
  f.array.set_fault_plan(FaultPlan{});
  EXPECT_TRUE(f.ctrl.scrub().empty());
}

}  // namespace
}  // namespace c56::mig
