// Allocation accounting for packets: the channel clones one packet per
// decodable receiver, and each clone must be exactly one heap allocation.
// Verified with the same counting global operator new as
// test_scheduler_alloc.cc.
//
// Sanitizer builds replace the allocator and may allocate internally, so
// the counting tests skip themselves there; the plain tier-1 build
// exercises them.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "net/drop_tail_queue.h"
#include "pkt/packet.h"

namespace {
std::size_t g_allocations = 0;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#define MUZHA_SKIP_IF_SANITIZED() \
  if (kSanitized) GTEST_SKIP() << "allocator replaced by sanitizer"
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace muzha {
namespace {

TEST(PacketAlloc, CountingAllocatorSeesAllocations) {
  MUZHA_SKIP_IF_SANITIZED();
  const std::size_t before = g_allocations;
  std::unique_ptr<int> p = std::make_unique<int>(1);
  EXPECT_GT(g_allocations, before);
}

// Packet must stay free of heap-owning members: a std::vector smuggled into
// a header would compile but add an allocation to every clone. TcpHeader's
// SACK list is the member that used to be a vector, so the clone carries a
// full option's worth of blocks.
TEST(PacketAlloc, ClonePacketIsOneAllocation) {
  MUZHA_SKIP_IF_SANITIZED();
  Packet proto;
  proto.uid = 7;
  proto.size_bytes = 1500;
  TcpHeader h;
  h.seqno = 41;
  h.sacks = {{5, 9}, {12, 14}, {20, 23}};
  proto.l4 = h;

  const std::size_t before = g_allocations;
  PacketPtr p = clone_packet(proto);
  EXPECT_EQ(g_allocations - before, 1u)
      << "a clone must be the Packet's own allocation and nothing else";
  EXPECT_EQ(p->uid, 7u);
  EXPECT_TRUE(p->tcp().sacks == h.sacks);
}

TEST(PacketAlloc, MakePacketAdvancesCallerCounter) {
  std::uint64_t uid = 10;
  PacketPtr a = make_packet(uid);
  PacketPtr b = make_packet(uid);
  EXPECT_EQ(a->uid, 11u);
  EXPECT_EQ(b->uid, 12u);
  EXPECT_EQ(uid, 12u);
}

TEST(PacketAlloc, AllocPacketIsDefaultInitialised) {
  PacketPtr fresh = alloc_packet();
  EXPECT_EQ(fresh->uid, 0u);
  EXPECT_EQ(fresh->size_bytes, 0u);
  EXPECT_FALSE(fresh->has_tcp());
}

// An IFQ allocates its ring at the first enqueue and never again, so a
// node whose queue stays empty (most of a city's) allocates nothing for it.
TEST(PacketAlloc, IfqRingIsOneAllocationAtFirstEnqueue) {
  MUZHA_SKIP_IF_SANITIZED();
  std::uint64_t uid = 0;
  std::vector<PacketPtr> pkts;
  pkts.reserve(40);
  for (int i = 0; i < 40; ++i) pkts.push_back(make_packet(uid));

  const std::size_t before = g_allocations;
  DropTailQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.occupancy(), 0.0);
  EXPECT_EQ(g_allocations, before) << "an unused IFQ allocated";

  for (PacketPtr& p : pkts) {
    q.enqueue(std::move(p), 1);
    if (q.size() == q.capacity()) {
      q.dequeue();
      q.dequeue();
    }
  }
  EXPECT_EQ(g_allocations, before + 1);
}

}  // namespace
}  // namespace muzha
