// MbufPool and zero-copy PacketBuffer tests: exhaustion overflow to the
// heap (never-failing alloc), slab growth accounting, refcounted
// clone/copy semantics, cross-worker MPSC returns (run under TSan in
// CI), and the headroom/tailroom invariants that make ESP encap→decap a
// pure offset adjustment within one pooled segment.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/worker_slot.hpp"
#include "nnf/ipsec.hpp"
#include "packet/buffer.hpp"
#include "packet/builder.hpp"
#include "packet/mbuf.hpp"

namespace nnfv::packet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t start = 0) {
  std::vector<std::uint8_t> out(n);
  std::iota(out.begin(), out.end(), start);
  return out;
}

// Drops a raw segment's refcount to zero and returns it, the way
// PacketBuffer::release() does. Pool-level tests work on MbufSegment
// directly so they can pin down overflow accounting per pool instance.
void drop(MbufSegment* seg) {
  seg->refcount.store(0, std::memory_order_release);
  MbufPool::free_segment(seg);
}

TEST(MbufPool, ExhaustedNonGrowingPoolOverflowsToHeapAndNeverFails) {
  MbufPool pool(/*prealloc_segments=*/2, /*slab_segments=*/0);
  MbufSegment* a = pool.alloc(64);
  MbufSegment* b = pool.alloc(64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->owner, &pool);
  EXPECT_EQ(b->owner, &pool);
  EXPECT_EQ(pool.stats().heap_allocs, 0u);

  // Pool dry, growth disabled: allocation keeps succeeding off the heap
  // and every overflow is counted.
  MbufSegment* c = pool.alloc(64);
  MbufSegment* d = pool.alloc(64);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(c->owner, nullptr);
  EXPECT_EQ(d->owner, nullptr);
  EXPECT_EQ(pool.stats().heap_allocs, 2u);
  EXPECT_EQ(pool.stats().slab_allocs, 0u);
  EXPECT_EQ(pool.stats().segment_allocs, 4u);

  drop(a);
  drop(b);
  drop(c);
  drop(d);

  // The pooled segments are reclaimable: the next alloc drains the
  // return stack instead of touching the heap again.
  MbufSegment* e = pool.alloc(64);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, &pool);
  EXPECT_TRUE(e == a || e == b);
  EXPECT_EQ(pool.stats().heap_allocs, 2u);
  drop(e);
}

TEST(MbufPool, OversizeAllocTakesDedicatedHeapSegment) {
  MbufPool pool(/*prealloc_segments=*/1, /*slab_segments=*/0);
  MbufSegment* seg = pool.alloc(MbufPool::kDataCapacity + 1);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->owner, nullptr);
  EXPECT_GE(seg->capacity, MbufPool::kDataCapacity + 1);
  EXPECT_EQ(pool.stats().heap_allocs, 1u);
  drop(seg);
}

TEST(MbufPool, SlabGrowthIsCountedOnceAndSegmentsRecycle) {
  MbufPool pool(/*prealloc_segments=*/0, /*slab_segments=*/4);
  std::vector<MbufSegment*> segs;
  for (int i = 0; i < 5; ++i) segs.push_back(pool.alloc(64));
  // 5 allocs from 4-segment slabs: exactly two growths, no heap one-offs.
  EXPECT_EQ(pool.stats().slab_allocs, 2u);
  EXPECT_EQ(pool.stats().heap_allocs, 0u);
  for (MbufSegment* seg : segs) drop(seg);

  // Recycled warm pool: another round grows nothing.
  segs.clear();
  for (int i = 0; i < 5; ++i) segs.push_back(pool.alloc(64));
  EXPECT_EQ(pool.stats().slab_allocs, 2u);
  EXPECT_EQ(pool.stats().segment_frees, 5u);
  for (MbufSegment* seg : segs) drop(seg);
}

TEST(MbufPool, BurstAllocAndFreeRecycleWithoutHeapEvents) {
  // Warm the calling slot's pool, then verify steady-state burst
  // traffic is pure recycling: segment churn with zero heap events.
  constexpr std::size_t kBurst = 64;
  PacketBuffer::free_burst(PacketBuffer::alloc_burst(kBurst));

  const MbufPoolStats before = MbufPool::local().stats();
  for (int round = 0; round < 10; ++round) {
    PacketBurst burst = PacketBuffer::alloc_burst(kBurst);
    ASSERT_EQ(burst.size(), kBurst);
    for (PacketBuffer& frame : burst) {
      EXPECT_TRUE(frame.empty());
      EXPECT_EQ(frame.headroom(), PacketBuffer::kDefaultHeadroom);
      frame.push_back(100);
    }
    PacketBuffer::free_burst(std::move(burst));
  }
  const MbufPoolStats after = MbufPool::local().stats();
  EXPECT_EQ(after.segment_allocs - before.segment_allocs, 10 * kBurst);
  EXPECT_EQ(after.segment_frees - before.segment_frees, 10 * kBurst);
  EXPECT_EQ(after.slab_allocs, before.slab_allocs);
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
}

TEST(MbufPool, CrossWorkerFreeReturnsSegmentsToOwningPool) {
  // Frames allocated on the control slot (0) and destroyed on a worker
  // slot must come back through the owner's MPSC stack and become
  // allocatable again — the handoff-ring ownership transfer in miniature.
  constexpr std::size_t kRounds = 16;
  constexpr std::size_t kBurst = 32;
  const MbufPoolStats before = MbufPool::for_slot(0).stats();

  for (std::size_t round = 0; round < kRounds; ++round) {
    PacketBurst burst = PacketBuffer::alloc_burst(kBurst);
    for (PacketBuffer& frame : burst) {
      std::memset(frame.push_back(64).data(), static_cast<int>(round), 64);
    }
    std::thread worker([&burst] {
      exec::ScopedWorkerSlot slot(1);
      for (PacketBuffer& frame : burst) {
        ASSERT_EQ(frame.size(), 64u);
        EXPECT_EQ(frame.data()[0], frame.data()[63]);
      }
      burst.clear();  // destruction on slot 1 → foreign push to pool 0
    });
    worker.join();
  }

  const MbufPoolStats after = MbufPool::for_slot(0).stats();
  EXPECT_GE(after.cross_worker_frees - before.cross_worker_frees,
            kRounds * kBurst);
  // The foreign stack drains back into circulation: all that traffic
  // grew the owner pool at most once and never hit the oversize path.
  EXPECT_LE(after.slab_allocs - before.slab_allocs, 1u);
  EXPECT_EQ(after.heap_allocs, before.heap_allocs);
}

TEST(MbufPool, ConcurrentForeignReturnsUnderOwnerTraffic) {
  // Two foreign slots hammer the Treiber stack while the owner keeps
  // allocating and freeing locally; TSan checks the interleavings.
  constexpr std::size_t kPerThread = 128;
  PacketBurst a = PacketBuffer::alloc_burst(kPerThread);
  PacketBurst b = PacketBuffer::alloc_burst(kPerThread);
  const MbufPoolStats before = MbufPool::for_slot(0).stats();

  std::thread t1([&a] {
    exec::ScopedWorkerSlot slot(1);
    a.clear();
  });
  std::thread t2([&b] {
    exec::ScopedWorkerSlot slot(2);
    b.clear();
  });
  for (int i = 0; i < 200; ++i) {
    PacketBuffer::free_burst(PacketBuffer::alloc_burst(8));
  }
  t1.join();
  t2.join();

  const MbufPoolStats after = MbufPool::for_slot(0).stats();
  EXPECT_EQ(after.cross_worker_frees - before.cross_worker_frees,
            2 * kPerThread);
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(NDEBUG)
TEST(MbufPoolDeathTest, FreeingLiveSegmentAsserts) {
  MbufPool pool(/*prealloc_segments=*/1, /*slab_segments=*/0);
  MbufSegment* seg = pool.alloc(64);
  ASSERT_EQ(seg->refcount.load(), 1u);
  // Returning a segment somebody still references is the double-free /
  // premature-free class of bug; debug builds refuse.
  EXPECT_DEATH(MbufPool::free_segment(seg), "still referenced");
  drop(seg);
}
#endif

TEST(PacketBufferRefcount, CloneSharesBytesUntilExplicitCopy) {
  auto bytes = pattern(48);
  PacketBuffer original = PacketBuffer::copy_of(bytes);
  EXPECT_FALSE(original.shared());

  PacketBuffer clone = original.clone();
  EXPECT_TRUE(original.shared());
  EXPECT_TRUE(clone.shared());
  // Same segment, same bytes — no copy happened.
  EXPECT_EQ(clone.data().data(), original.data().data());

  PacketBuffer deep = clone.copy();
  EXPECT_NE(deep.data().data(), original.data().data());
  deep.data()[0] = 0xFF;
  EXPECT_EQ(original[0], bytes[0]);

  // Dropping the last clone returns the original to exclusive ownership.
  { PacketBuffer sink = std::move(clone); }
  EXPECT_FALSE(original.shared());
}

TEST(PacketBufferRefcount, GeometryChangeOnCloneUnsharesAutomatically) {
  auto bytes = pattern(32, 5);
  PacketBuffer original = PacketBuffer::copy_of(bytes);
  PacketBuffer clone = original.clone();
  const std::uint8_t* shared_ptr = original.data().data();

  // push_front must not scribble headroom the sibling can see: the clone
  // silently goes private before its layout diverges.
  std::memset(clone.push_front(14).data(), 0xEE, 14);
  EXPECT_NE(clone.data().data(), shared_ptr);
  EXPECT_FALSE(original.shared());
  EXPECT_EQ(original.size(), bytes.size());
  EXPECT_EQ(std::memcmp(original.data().data(), bytes.data(), bytes.size()),
            0);
  EXPECT_EQ(clone.size(), bytes.size() + 14);
  EXPECT_EQ(std::memcmp(clone.data().data() + 14, bytes.data(), bytes.size()),
            0);
}

TEST(PacketBufferRefcount, ViewOnlyOpsStaySharedAndIndependent) {
  auto bytes = pattern(40);
  PacketBuffer original = PacketBuffer::copy_of(bytes);
  PacketBuffer clone = original.clone();

  // pull_front/trim adjust only this view's offsets; the sibling keeps
  // the full frame and the bytes are still shared.
  clone.pull_front(8);
  clone.trim(16);
  EXPECT_TRUE(original.shared());
  EXPECT_EQ(clone.size(), 16u);
  EXPECT_EQ(clone.data().data(), original.data().data() + 8);
  EXPECT_EQ(original.size(), bytes.size());
}

TEST(PacketBufferRefcount, UnshareCopiesOnlyWhenShared) {
  auto bytes = pattern(24);
  PacketBuffer original = PacketBuffer::copy_of(bytes);
  const std::uint8_t* before = original.data().data();
  original.unshare();  // exclusive: must be a no-op
  EXPECT_EQ(original.data().data(), before);

  PacketBuffer clone = original.clone();
  original.unshare();
  EXPECT_NE(original.data().data(), clone.data().data());
  EXPECT_FALSE(original.shared());
  EXPECT_FALSE(clone.shared());
  EXPECT_EQ(std::memcmp(original.data().data(), clone.data().data(),
                        bytes.size()),
            0);
}

// --- ESP zero-copy: encap and decap move offsets inside one segment ---

nnf::NfConfig esp_config(const char* local, const char* peer,
                         const char* spi_out, const char* spi_in,
                         const char* transform) {
  return {{"local_ip", local},
          {"peer_ip", peer},
          {"spi_out", spi_out},
          {"spi_in", spi_in},
          {"esp_transform", transform},
          {"enc_key", "000102030405060708090a0b0c0d0e0f"},
          {"auth_key",
           "202122232425262728292a2b2c2d2e2f"
           "303132333435363738393a3b3c3d3e3f"}};
}

PacketBuffer udp_frame(std::size_t payload_size) {
  UdpFrameSpec spec;
  spec.eth_src = MacAddress::from_id(1);
  spec.eth_dst = MacAddress::from_id(2);
  spec.ip_src = *Ipv4Address::parse("192.168.1.10");
  spec.ip_dst = *Ipv4Address::parse("10.8.0.5");
  spec.src_port = 5001;
  spec.dst_port = 5001;
  const std::vector<std::uint8_t> payload = pattern(payload_size);
  spec.payload = payload;
  return build_udp_frame(spec);
}

TEST(EspZeroCopy, GcmEncapDecapRoundTripStaysInOneSegment) {
  nnf::IpsecEndpoint initiator;
  nnf::IpsecEndpoint responder;
  ASSERT_TRUE(initiator
                  .configure(nnf::kDefaultContext,
                             esp_config("198.51.100.1", "198.51.100.2",
                                        "1001", "2002", "gcm"))
                  .is_ok());
  ASSERT_TRUE(responder
                  .configure(nnf::kDefaultContext,
                             esp_config("198.51.100.2", "198.51.100.1",
                                        "2002", "1001", "gcm"))
                  .is_ok());

  PacketBuffer frame = udp_frame(400);
  const std::vector<std::uint8_t> plain(frame.data().begin(),
                                        frame.data().end());
  const std::uint8_t* base = frame.data().data();
  const std::size_t headroom_before = frame.headroom();
  const std::size_t tailroom_before = frame.tailroom();
  ASSERT_EQ(headroom_before, PacketBuffer::kDefaultHeadroom);

  // Encap: pop inner Ethernet (14), prepend outer Eth+IP+ESP+IV (50) —
  // the output's first byte sits 36 before the input's within the SAME
  // segment; nothing was copied or reallocated.
  auto enc = initiator.process(nnf::kDefaultContext, 0, 0, std::move(frame));
  ASSERT_EQ(enc.size(), 1u);
  PacketBuffer& wire = enc[0].frame;
  EXPECT_EQ(wire.data().data(), base + 14 - 50);
  EXPECT_EQ(wire.headroom(), headroom_before - (50 - 14));
  // Trailer + ICV grew into the tailroom.
  EXPECT_LT(wire.tailroom(), tailroom_before);

  // Decap: authenticate+decrypt in place, then pure offset adjustment
  // back to the original geometry — same first byte as the input frame.
  auto dec = responder.process(nnf::kDefaultContext, 1, 0,
                               std::move(enc[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  PacketBuffer& inner = dec[0].frame;
  EXPECT_EQ(inner.data().data(), base);
  EXPECT_EQ(inner.headroom(), headroom_before);
  EXPECT_EQ(inner.size(), plain.size());
  // Inner IP packet bytes identical (the Ethernet header is rebuilt).
  EXPECT_EQ(std::memcmp(inner.data().data() + 14, plain.data() + 14,
                        plain.size() - 14),
            0);
}

TEST(EspZeroCopy, CbcEncapReusesTheInputSegment) {
  nnf::IpsecEndpoint initiator;
  nnf::IpsecEndpoint responder;
  ASSERT_TRUE(initiator
                  .configure(nnf::kDefaultContext,
                             esp_config("198.51.100.1", "198.51.100.2",
                                        "1001", "2002", "cbc-hmac"))
                  .is_ok());
  ASSERT_TRUE(responder
                  .configure(nnf::kDefaultContext,
                             esp_config("198.51.100.2", "198.51.100.1",
                                        "2002", "1001", "cbc-hmac"))
                  .is_ok());

  PacketBuffer frame = udp_frame(256);
  const std::vector<std::uint8_t> plain(frame.data().begin(),
                                        frame.data().end());
  const std::uint8_t* base = frame.data().data();

  // Encap: pop inner Ethernet (14), prepend outer Eth+IP+ESP+IV (58);
  // CBC encrypts in place, so the output's first byte sits 44 before the
  // input's within the SAME segment.
  auto enc = initiator.process(nnf::kDefaultContext, 0, 0, std::move(frame));
  ASSERT_EQ(enc.size(), 1u);
  EXPECT_EQ(enc[0].frame.data().data(), base + 14 - 58);

  auto dec = responder.process(nnf::kDefaultContext, 1, 0,
                               std::move(enc[0].frame));
  ASSERT_EQ(dec.size(), 1u);
  // Decap decrypts in place and rebuilds the inner Ethernet header in the
  // vacated headroom: back to the input's first byte.
  EXPECT_EQ(dec[0].frame.data().data(), base);
  ASSERT_EQ(dec[0].frame.size(), plain.size());
  EXPECT_EQ(std::memcmp(dec[0].frame.data().data() + 14, plain.data() + 14,
                        plain.size() - 14),
            0);
}

}  // namespace
}  // namespace nnfv::packet
