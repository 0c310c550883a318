// Unit tests for src/common: RNG determinism and distribution sanity,
// sample/percentile math, flag parsing, status propagation, the ring buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>

#include "src/common/flags.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/common/ring_buffer.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace hawk {
namespace {

TEST(TypesTest, SecondsRoundTrip) {
  EXPECT_EQ(SecondsToUs(1.0), 1'000'000);
  EXPECT_EQ(SecondsToUs(0.5), 500'000);
  EXPECT_EQ(MillisToUs(0.5), 500);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(40.0);
  }
  EXPECT_NEAR(sum / n, 40.0, 0.5);
}

TEST(RngTest, GaussianMomentsConverge) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, PositiveGaussianIsPositive) {
  Rng rng(17);
  // The paper's recipe uses stddev = 2 * mean: most draws need rejection.
  for (int i = 0; i < 20000; ++i) {
    EXPECT_GT(rng.PositiveGaussian(10.0, 20.0), 0.0);
  }
}

TEST(RngTest, LogNormalMedianConverges) {
  Rng rng(19);
  std::vector<double> values;
  const int n = 100001;
  values.reserve(n);
  for (int i = 0; i < n; ++i) {
    values.push_back(rng.LogNormalMedian(100.0, 1.0));
  }
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  EXPECT_NEAR(values[n / 2], 100.0, 3.0);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  for (const uint32_t n : {10u, 100u, 10000u}) {
    for (const uint32_t k : {1u, 5u, 10u}) {
      std::vector<uint32_t> sample;
      rng.SampleWithoutReplacement(n, k, &sample);
      ASSERT_EQ(sample.size(), k);
      std::set<uint32_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (const uint32_t v : sample) {
        EXPECT_LT(v, n);
      }
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(29);
  std::vector<uint32_t> sample;
  rng.SampleWithoutReplacement(50, 50, &sample);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(RngTest, SampleWithoutReplacementUniformCoverage) {
  // Every element should be picked roughly k/n of the time, in both the
  // dense (Fisher-Yates) and sparse (Floyd) regimes.
  for (const uint32_t n : {20u, 400u}) {
    Rng rng(31 + n);
    const uint32_t k = 4;
    const int trials = 20000;
    std::vector<int> hits(n, 0);
    std::vector<uint32_t> sample;
    for (int t = 0; t < trials; ++t) {
      rng.SampleWithoutReplacement(n, k, &sample);
      for (const uint32_t v : sample) {
        hits[v]++;
      }
    }
    const double expected = static_cast<double>(trials) * k / n;
    for (const int h : hits) {
      EXPECT_NEAR(h, expected, expected * 0.35) << "n=" << n;
    }
  }
}

TEST(RngTest, BoundedDrawsArePinned) {
  // Exact outputs, recorded before NextBounded learned to skip its
  // rejection-threshold division: any change to the accepted draws (not
  // just their distribution) shows up here. Per bound: the first four of 64
  // draws from seed 7, an FNV-1a digest of all 64 (little-endian bytes), and
  // the next raw output, which pins how many draws were rejected. 2^63 + 1
  // rejects about half its draws; 2^64 - 1 sends nearly every draw down the
  // branch that computes the threshold.
  struct Pinned {
    uint64_t bound;
    uint64_t first[4];
    uint64_t digest;
    uint64_t next_raw;
  };
  const Pinned pinned[] = {
      {1u, {0u, 0u, 0u, 0u}, 0x7da144b97d054b25u, 12320641863159184273u},
      {3u, {2u, 2u, 2u, 0u}, 0x808eb65947e89f07u, 12320641863159184273u},
      {1245u, {341u, 701u, 263u, 156u}, 0x4e47fd650873f04au, 12320641863159184273u},
      {4294967295u,
       {953854781u, 643720946u, 1753704998u, 3497369766u},
       0x41f118596d63327bu,
       12320641863159184273u},
      {4294967297u,
       {478312253u, 3460224311u, 4179707584u, 4122632659u},
       0xabf5b4887746cd05u,
       12320641863159184273u},
      {9223372036854775809u,
       {4013571156380768369u, 8553008537481577333u, 4130356882116092799u,
        8897282507865326556u},
       0xad6fb4dbdda70795u,
       18365605444440442172u},
      {18446744073709551615u,
       {1021219803524665661u, 3174977118032272916u, 13236943193235544178u,
        7880630202246103356u},
       0xe039b389497a36c5u,
       12320641863159184273u},
  };
  for (const Pinned& p : pinned) {
    Rng rng(7);
    uint64_t digest = 14695981039346656037u;
    for (int i = 0; i < 64; ++i) {
      const uint64_t v = rng.NextBounded(p.bound);
      ASSERT_LT(v, p.bound);
      if (i < 4) {
        EXPECT_EQ(v, p.first[i]) << "bound " << p.bound << " draw " << i;
      }
      for (int shift = 0; shift < 64; shift += 8) {
        digest = (digest ^ ((v >> shift) & 0xffu)) * 1099511628211u;
      }
    }
    EXPECT_EQ(digest, p.digest) << "bound " << p.bound;
    EXPECT_EQ(rng.Next(), p.next_raw) << "bound " << p.bound;
  }

  // One sample per membership structure, drawn in sequence from one
  // stream: dense Fisher-Yates, Floyd with a linear scan, Floyd with stamps.
  Rng rng(11);
  std::vector<uint32_t> sample;
  rng.SampleWithoutReplacement(50, 50, &sample);
  EXPECT_EQ(sample, (std::vector<uint32_t>{
                        22, 21, 43, 37, 36, 2,  14, 3,  44, 38, 46, 13, 24, 15, 18, 47, 5,
                        49, 32, 25, 0,  16, 31, 17, 10, 1,  35, 45, 26, 34, 23, 29, 19, 42,
                        7,  40, 20, 28, 8,  6,  9,  33, 39, 27, 4,  41, 11, 12, 48, 30}));
  rng.SampleWithoutReplacement(1245, 10, &sample);
  EXPECT_EQ(sample,
            (std::vector<uint32_t>{290, 1163, 553, 1033, 210, 829, 188, 1070, 259, 827}));
  rng.SampleWithoutReplacement(1'000'000, 35, &sample);
  EXPECT_EQ(sample, (std::vector<uint32_t>{
                        233360, 57621,  370673, 383817, 437636, 283773, 217910, 737405, 891519,
                        430941, 687241, 912397, 333490, 621103, 655598, 507298, 703197, 754814,
                        301594, 279380, 523580, 527643, 726539, 191103, 236289, 119269, 659016,
                        260585, 163464, 49068,  268856, 730111, 569051, 693607, 989312}));
  EXPECT_EQ(rng.Next(), 4501795081210253356u);
}

TEST(SamplesTest, PercentileExactValues) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(SamplesTest, SingleValue) {
  Samples s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.Min(), 42.0);
  EXPECT_DOUBLE_EQ(s.Max(), 42.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 42.0);
}

TEST(SamplesTest, PercentileMatchesSortedReference) {
  Rng rng(5);
  Samples s;
  std::vector<double> reference;
  for (int i = 0; i < 997; ++i) {
    const double v = rng.Exponential(10.0);
    s.Add(v);
    reference.push_back(v);
  }
  std::sort(reference.begin(), reference.end());
  // Interpolated percentile must be bracketed by neighboring order stats.
  for (const double pct : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double rank = pct / 100.0 * static_cast<double>(reference.size() - 1);
    const double lo = reference[static_cast<size_t>(rank)];
    const double hi = reference[std::min(reference.size() - 1,
                                         static_cast<size_t>(rank) + 1)];
    const double v = s.Percentile(pct);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

TEST(SamplesTest, Mean) {
  Samples s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
}

TEST(SamplesTest, CdfAtBounds) {
  Samples s;
  for (int i = 1; i <= 10; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.CdfAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.CdfAt(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.CdfAt(10.0), 1.0);
  EXPECT_DOUBLE_EQ(s.CdfAt(100.0), 1.0);
}

TEST(SamplesTest, CdfSeriesMonotonic) {
  Rng rng(3);
  Samples s;
  for (int i = 0; i < 1000; ++i) {
    s.Add(rng.Exponential(5.0));
  }
  const auto series = s.CdfSeries(30);
  for (size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].first, series[i - 1].first);
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",          "--alpha=3",  "--beta", "4.5", "--gamma",
                        "--name=hello",  "positional", "--list=1,2,3"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0.0), 4.5);
  EXPECT_EQ(flags.GetString("gamma", ""), "true");  // Bare flag.
  EXPECT_EQ(flags.GetString("name", ""), "hello");
  EXPECT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_EQ(flags.GetString("list", ""), "1,2,3");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("missing", "x"), "x");
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, UnknownNamesListsFlagsOutsideTheKnownSet) {
  const char* argv[] = {"prog", "--jobs=10", "--num_jobs=1000", "positional", "--alpha"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.UnknownNames({"jobs", "seed"}),
            (std::vector<std::string>{"alpha", "num_jobs"}));
  EXPECT_TRUE(flags.UnknownNames({"alpha", "jobs", "num_jobs"}).empty());
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(StatusOrTest, HoldsValueOrError) {
  StatusOr<int> v(7);
  EXPECT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
  StatusOr<int> e(Status::Error("nope"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().message(), "nope");
}

// --- RingBuffer ----------------------------------------------------------------

std::vector<int> Contents(const RingBuffer<int>& ring) {
  std::vector<int> out;
  for (size_t i = 0; i < ring.Size(); ++i) {
    out.push_back(ring.At(i));
  }
  return out;
}

// A ring of `size` entries 0..size-1 whose head sits at physical slot `head`
// of a buffer of power-of-two `capacity` (`capacity` pushes grow it to
// exactly that from any start of at most `capacity`; popping them all leaves
// the head at slot 0, and push/pop pairs then move it round). `size` must
// not exceed `capacity`, or the ring grows and the head moves to slot 0.
RingBuffer<int> WrappedRing(size_t capacity, size_t head, size_t size) {
  RingBuffer<int> ring;
  for (size_t i = 0; i < capacity; ++i) {
    ring.PushBack(-1);
  }
  for (size_t i = 0; i < capacity; ++i) {
    ring.PopFront();
  }
  for (size_t i = 0; i < head; ++i) {
    ring.PushBack(-1);
    ring.PopFront();
  }
  for (size_t i = 0; i < size; ++i) {
    ring.PushBack(static_cast<int>(i));
  }
  return ring;
}

TEST(RingBufferTest, GrowsAcrossWraparound) {
  // Fill a capacity-8 ring that has wrapped, then keep pushing so every
  // doubling happens with the live entries split across the storage end.
  // Eight pushes size the ring at 8 whatever its first allocation; popping
  // them and five push/pop pairs leave the empty ring's head at slot 5.
  RingBuffer<int> ring = WrappedRing(8, 5, 0);
  std::deque<int> model;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    ring.PushBack(next);
    model.push_back(next++);
    ring.PushBack(next);
    model.push_back(next++);
    if (round % 3 == 0) {
      EXPECT_EQ(ring.PopFront(), model.front());
      model.pop_front();
    }
    ASSERT_EQ(ring.Size(), model.size());
    EXPECT_EQ(ring.Front(), model.front());
    EXPECT_EQ(ring.Back(), model.back());
  }
  EXPECT_EQ(Contents(ring), std::vector<int>(model.begin(), model.end()));
  while (!ring.Empty()) {
    EXPECT_EQ(ring.PopFront(), model.front());
    model.pop_front();
  }
  EXPECT_TRUE(model.empty());
}

TEST(RingBufferTest, EraseRangeOnBothSidesOfTheGap) {
  // Every [begin, end) of a wrapped 12-entry ring, for head positions that
  // put the storage end before, inside and after the erased range; shorter
  // head sides shift right, shorter tail sides shift left.
  for (size_t head : {0u, 6u, 9u, 13u}) {
    for (size_t begin = 0; begin <= 12; ++begin) {
      for (size_t end = begin; end <= 12; ++end) {
        RingBuffer<int> ring = WrappedRing(16, head, 12);
        std::vector<int> model = Contents(ring);
        ring.EraseRange(begin, end);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(begin),
                    model.begin() + static_cast<std::ptrdiff_t>(end));
        ASSERT_EQ(Contents(ring), model) << "head " << head << " erase [" << begin << ", "
                                         << end << ")";
        // Head and size stay consistent: the ring keeps working as a FIFO.
        ring.PushBack(100);
        model.push_back(100);
        EXPECT_EQ(ring.PopFront(), model.front());
        model.erase(model.begin());
        EXPECT_EQ(Contents(ring), model);
      }
    }
  }
}

TEST(RingBufferTest, GrowsFromOneEntryWithEveryDoublingWrapped) {
  // A ring's storage starts at one entry, held inline, and doubles; the
  // first doubling moves the inline entry to the heap. Before each doubling
  // from 2 on, one pop and one push move the full ring's head off slot 0, so
  // the doubling copies entries split across the storage end; then the
  // grown ring is filled to its new capacity. Checked against a deque after
  // every operation, up to the doubling to 64.
  RingBuffer<int> ring;
  std::deque<int> model;
  int next = 0;
  auto push = [&] {
    ring.PushBack(next);
    model.push_back(next++);
  };
  auto check = [&] {
    ASSERT_EQ(ring.Size(), model.size());
    EXPECT_EQ(Contents(ring), std::vector<int>(model.begin(), model.end()));
  };
  push();  // Capacity 1, full.
  check();
  for (size_t capacity = 1; capacity < 64; capacity *= 2) {
    // Full at `capacity`: rotate the head by one, staying full.
    EXPECT_EQ(ring.PopFront(), model.front());
    model.pop_front();
    push();
    check();
    // Grow to 2 * capacity, then fill it.
    while (ring.Size() < 2 * capacity) {
      push();
      check();
    }
  }
  ASSERT_EQ(ring.Size(), 64u);
  while (!ring.Empty()) {
    EXPECT_EQ(ring.PopFront(), model.front());
    model.pop_front();
  }
  EXPECT_TRUE(model.empty());
}

TEST(RingBufferTest, EraseRangeAtSmallCapacities) {
  // Rings of capacity 1 (the inline entry), 2 and 4, the sizes most worker
  // queues stay at: every head slot, every size up to the capacity, every
  // [begin, end). Refilling then grows capacity-1 rings out of inline
  // storage.
  for (size_t capacity : {1u, 2u, 4u}) {
    for (size_t head = 0; head < capacity; ++head) {
      for (size_t size = 0; size <= capacity; ++size) {
        for (size_t begin = 0; begin <= size; ++begin) {
          for (size_t end = begin; end <= size; ++end) {
            RingBuffer<int> ring = WrappedRing(capacity, head, size);
            std::vector<int> model = Contents(ring);
            ring.EraseRange(begin, end);
            model.erase(model.begin() + static_cast<std::ptrdiff_t>(begin),
                        model.begin() + static_cast<std::ptrdiff_t>(end));
            ASSERT_EQ(Contents(ring), model)
                << "capacity " << capacity << " head " << head << " size " << size
                << " erase [" << begin << ", " << end << ")";
            // Refill past the capacity: the ring keeps working as a FIFO.
            for (int i = 0; i < 5; ++i) {
              ring.PushBack(100 + i);
              model.push_back(100 + i);
            }
            EXPECT_EQ(Contents(ring), model);
            EXPECT_EQ(ring.PopFront(), model.front());
          }
        }
      }
    }
  }
}

TEST(RingBufferTest, CopiesAndMovesAtEveryCapacity) {
  // Copy and move construction and assignment, including self-assignment,
  // of inline (capacity 1) and heap rings, into inline and heap targets.
  // Copies are deep, moved-from rings are empty, and every result keeps
  // working as a FIFO past its capacity.
  auto keeps_working = [](RingBuffer<int>& ring, std::vector<int> model) {
    for (int i = 0; i < 9; ++i) {
      ring.PushBack(200 + i);
      model.push_back(200 + i);
    }
    ASSERT_EQ(Contents(ring), model);
    while (!ring.Empty()) {
      ASSERT_EQ(ring.PopFront(), model.front());
      model.erase(model.begin());
    }
  };
  for (size_t capacity : {1u, 2u, 8u}) {
    for (size_t head = 0; head < capacity; ++head) {
      for (size_t size = 0; size <= capacity; ++size) {
        SCOPED_TRACE(testing::Message() << "capacity " << capacity << " head " << head
                                        << " size " << size);
        RingBuffer<int> ring = WrappedRing(capacity, head, size);
        const std::vector<int> model = Contents(ring);

        RingBuffer<int> copy(ring);
        EXPECT_EQ(Contents(copy), model);
        keeps_working(copy, model);
        EXPECT_EQ(Contents(ring), model) << "a copy shares storage with its source";

        RingBuffer<int> inline_target = WrappedRing(1, 0, 1);
        inline_target = ring;
        EXPECT_EQ(Contents(inline_target), model);
        RingBuffer<int> heap_target = WrappedRing(4, 3, 3);
        heap_target = ring;
        EXPECT_EQ(Contents(heap_target), model);
        keeps_working(heap_target, model);
        EXPECT_EQ(Contents(ring), model);

        RingBuffer<int>& alias = ring;
        ring = alias;
        EXPECT_EQ(Contents(ring), model);
        ring = std::move(alias);
        EXPECT_EQ(Contents(ring), model);

        RingBuffer<int> moved(std::move(inline_target));
        EXPECT_EQ(Contents(moved), model);
        EXPECT_TRUE(inline_target.Empty());
        keeps_working(inline_target, {});
        keeps_working(moved, model);

        RingBuffer<int> move_inline = WrappedRing(1, 0, 1);
        move_inline = std::move(ring);
        EXPECT_EQ(Contents(move_inline), model);
        EXPECT_TRUE(ring.Empty());
        RingBuffer<int> move_heap = WrappedRing(8, 5, 6);
        move_heap = std::move(move_inline);
        EXPECT_EQ(Contents(move_heap), model);
        EXPECT_TRUE(move_inline.Empty());
        keeps_working(move_heap, model);
        keeps_working(ring, {});
      }
    }
  }
}

}  // namespace
}  // namespace hawk
