// IngestRing tests: bounded capacity, FIFO order, both backpressure
// policies with shed accounting, retire markers in stream order, and a
// multi-producer stress run (the TSan CI job runs this suite to vet the
// memory ordering).

#include "daemon/ingest_ring.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon_test_util.hpp"

namespace ssdfail::daemon {
namespace {

core::FleetObservation obs_with(std::uint32_t index, std::int32_t day) {
  core::FleetObservation obs;
  obs.drive_model = trace::DriveModel::MlcA;
  obs.drive_index = index;
  obs.record.day = day;
  return obs;
}

TEST(IngestRing, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(IngestRing(1).capacity(), 2u);
  EXPECT_EQ(IngestRing(8).capacity(), 8u);
  EXPECT_EQ(IngestRing(9).capacity(), 16u);
  EXPECT_EQ(IngestRing(1000).capacity(), 1024u);
}

TEST(IngestRing, SingleThreadFifo) {
  IngestRing ring(8);
  for (std::int32_t day = 0; day < 8; ++day)
    ASSERT_TRUE(ring.try_push(obs_with(1, day)));
  EXPECT_FALSE(ring.try_push(obs_with(1, 99)));  // full
  std::vector<core::FleetObservation> out;
  std::vector<std::uint64_t> retires;
  EXPECT_EQ(ring.pop_into(out, retires, 100), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (std::int32_t day = 0; day < 8; ++day)
    EXPECT_EQ(out[static_cast<std::size_t>(day)].record.day, day);
  EXPECT_TRUE(ring.empty_approx());
  // Wrap around: the ring is reusable after a full drain.
  ASSERT_TRUE(ring.try_push(obs_with(1, 100)));
  out.clear();
  EXPECT_EQ(ring.pop_into(out, retires, 100), 1u);
  EXPECT_EQ(out[0].record.day, 100);
}

TEST(IngestRing, PopRespectsTheBatchCap) {
  IngestRing ring(16);
  for (std::int32_t day = 0; day < 10; ++day)
    ASSERT_TRUE(ring.try_push(obs_with(1, day)));
  std::vector<core::FleetObservation> out;
  std::vector<std::uint64_t> retires;
  EXPECT_EQ(ring.pop_into(out, retires, 4), 4u);
  EXPECT_EQ(ring.pop_into(out, retires, 4), 4u);
  EXPECT_EQ(ring.pop_into(out, retires, 4), 2u);
  ASSERT_EQ(out.size(), 10u);
  for (std::int32_t day = 0; day < 10; ++day)
    EXPECT_EQ(out[static_cast<std::size_t>(day)].record.day, day);
}

TEST(IngestRing, ShedPolicyDropsImmediatelyWhenFull) {
  IngestRing ring(2);
  using std::chrono::milliseconds;
  EXPECT_EQ(ring.push(obs_with(1, 0), Backpressure::kShed, milliseconds(1000)),
            PushResult::kAccepted);
  EXPECT_EQ(ring.push(obs_with(1, 1), Backpressure::kShed, milliseconds(1000)),
            PushResult::kAccepted);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ring.push(obs_with(1, 2), Backpressure::kShed, milliseconds(1000)),
            PushResult::kShed);
  // Shed must not consume the block timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, milliseconds(500));
}

TEST(IngestRing, BlockPolicyTimesOutThenSheds) {
  IngestRing ring(2);
  using std::chrono::milliseconds;
  ASSERT_TRUE(ring.try_push(obs_with(1, 0)));
  ASSERT_TRUE(ring.try_push(obs_with(1, 1)));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(ring.push(obs_with(1, 2), Backpressure::kBlock, milliseconds(30)),
            PushResult::kShed);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, milliseconds(30));
}

TEST(IngestRing, BlockPolicySucceedsWhenTheConsumerDrains) {
  IngestRing ring(2);
  ASSERT_TRUE(ring.try_push(obs_with(1, 0)));
  ASSERT_TRUE(ring.try_push(obs_with(1, 1)));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<core::FleetObservation> out;
    std::vector<std::uint64_t> retires;
    ring.pop_into(out, retires, 1);
  });
  EXPECT_EQ(ring.push(obs_with(1, 2), Backpressure::kBlock,
                      std::chrono::milliseconds(5000)),
            PushResult::kAccepted);
  consumer.join();
}

TEST(IngestRing, RetireMarkersPopInStreamOrder) {
  // Records pushed before a marker pop before it, in the same pop as the
  // marker; records pushed after it wait for the next pop.
  IngestRing ring(16);
  const auto open = [] { return true; };
  ASSERT_TRUE(ring.try_push(obs_with(1, 0)));
  ASSERT_TRUE(ring.try_push(obs_with(2, 0)));
  ASSERT_TRUE(ring.push_retire(obs_with(1, 0), open));
  ASSERT_TRUE(ring.push_retire(obs_with(2, 0), open));
  ASSERT_TRUE(ring.try_push(obs_with(3, 0)));
  ASSERT_TRUE(ring.push_retire(obs_with(3, 0), open));

  std::vector<core::FleetObservation> out;
  std::vector<std::uint64_t> retires;
  EXPECT_EQ(ring.pop_into(out, retires, 100), 4u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].drive_index, 1u);
  EXPECT_EQ(out[1].drive_index, 2u);
  EXPECT_EQ(retires, (std::vector<std::uint64_t>{obs_with(1, 0).uid(),
                                                  obs_with(2, 0).uid()}));

  out.clear();
  retires.clear();
  EXPECT_EQ(ring.pop_into(out, retires, 100), 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].drive_index, 3u);
  EXPECT_EQ(retires, std::vector<std::uint64_t>{obs_with(3, 0).uid()});
  EXPECT_TRUE(ring.empty_approx());
}

TEST(IngestRing, RetireMarkerWaitsForSpaceAndIsNeverShed) {
  IngestRing ring(2);
  ASSERT_TRUE(ring.try_push(obs_with(1, 0)));
  ASSERT_TRUE(ring.try_push(obs_with(1, 1)));
  // Full ring, closed input: the marker is refused, not shed.
  EXPECT_FALSE(ring.push_retire(obs_with(1, 0), [] { return false; }));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<core::FleetObservation> out;
    std::vector<std::uint64_t> retires;
    ring.pop_into(out, retires, 1);
  });
  EXPECT_TRUE(ring.push_retire(obs_with(1, 0), [] { return true; }));
  consumer.join();
  std::vector<core::FleetObservation> out;
  std::vector<std::uint64_t> retires;
  EXPECT_EQ(ring.pop_into(out, retires, 100), 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].record.day, 1);
  EXPECT_EQ(retires, std::vector<std::uint64_t>{obs_with(1, 0).uid()});
}

// Multi-producer correctness: nothing lost, nothing duplicated, and each
// producer's records arrive in its own push order (the per-drive day-order
// invariant the sanitizer depends on).
TEST(IngestRing, MultiProducerPreservesPerProducerOrder) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::int32_t kPerProducer = 5000;
  IngestRing ring(64);
  std::vector<core::FleetObservation> drained;
  std::vector<std::uint64_t> retires;
  drained.reserve(kProducers * kPerProducer);
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    while (true) {
      const std::size_t got = ring.pop_into(drained, retires, 128);
      if (got == 0) {
        if (done.load(std::memory_order_acquire) && ring.empty_approx()) break;
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int32_t day = 0; day < kPerProducer; ++day) {
        while (ring.push(obs_with(p, day), Backpressure::kBlock,
                         std::chrono::milliseconds(10)) != PushResult::kAccepted) {
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  ASSERT_EQ(drained.size(), static_cast<std::size_t>(kProducers) * kPerProducer);
  std::unordered_map<std::uint32_t, std::int32_t> next_day;
  for (const core::FleetObservation& obs : drained) {
    EXPECT_EQ(obs.record.day, next_day[obs.drive_index])
        << "producer " << obs.drive_index << " out of order";
    ++next_day[obs.drive_index];
  }
  for (std::uint32_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_day[p], kPerProducer);
}

}  // namespace
}  // namespace ssdfail::daemon
