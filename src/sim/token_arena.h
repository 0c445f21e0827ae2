/**
 * @file
 * Contiguous ring-slot arena for the Machine's bounded queues.
 *
 * The simulator's hot loop spends its time pushing and popping
 * depth-2 operand FIFOs and small in-flight response queues. Backing
 * each of those with a `std::deque` means one heap-chunked container
 * per (node, port) and pointer chasing on every access. A TokenArena
 * instead lays every ring out in one flat slot array sized at
 * construction — `numRings * depth` slots plus a (head, size) pair
 * per ring — so a queue operation is two array indexations into
 * memory that stays hot, and constructing a Machine performs two
 * allocations instead of thousands.
 *
 * Rings are addressed by a flat index the owner precomputes (the
 * Machine's per-node port base tables); all rings share one fixed
 * capacity. Overflow is a caller bug (the Machine's credit checks
 * make it unreachable) and asserts.
 */

#ifndef NUPEA_SIM_TOKEN_ARENA_H
#define NUPEA_SIM_TOKEN_ARENA_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.h"

namespace nupea
{

template <typename T>
class TokenArena
{
  public:
    TokenArena() = default;

    /** Size the arena: `num_rings` rings of capacity `depth` each. */
    void
    init(std::size_t num_rings, std::size_t depth)
    {
        NUPEA_ASSERT(depth >= 1);
        // depth_ is a 32-bit ring coordinate; a depth that truncates
        // would wrap the head/slot arithmetic silently. Huge generated
        // shapes must fail loudly here, not corrupt slot indexing.
        NUPEA_ASSERT(depth <= 0xffffffffull,
                     "ring depth ", depth, " truncates to 32 bits");
        std::size_t total_slots = 0;
        NUPEA_ASSERT(!__builtin_mul_overflow(num_rings, depth,
                                             &total_slots) &&
                         total_slots / sizeof(T) <=
                             static_cast<std::size_t>(-1) / sizeof(T),
                     "slot count overflows: ", num_rings, " rings x ",
                     depth, " deep");
        depth_ = static_cast<std::uint32_t>(depth);
        rings_.assign(num_rings, Ring{});
        // Slots are written before they are ever read (size tracks
        // occupancy), so skip the value-initializing memset.
        slots_ = std::make_unique_for_overwrite<T[]>(total_slots);
    }

    std::uint32_t size(std::size_t ring) const { return rings_[ring].size; }
    bool empty(std::size_t ring) const { return rings_[ring].size == 0; }
    bool full(std::size_t ring) const { return rings_[ring].size == depth_; }

    /** Oldest element (ring must be non-empty). */
    const T &
    front(std::size_t ring) const
    {
        const Ring &r = rings_[ring];
        NUPEA_ASSERT(r.size > 0);
        return slots_[ring * depth_ + r.head];
    }

    /** Oldest element, or nullptr when the ring is empty — one ring
     *  lookup for the readiness probes that dominate the hot loop. */
    const T *
    peek(std::size_t ring) const
    {
        const Ring &r = rings_[ring];
        if (r.size == 0)
            return nullptr;
        return &slots_[ring * depth_ + r.head];
    }

    /** Append one element (ring must not be full). */
    void
    push(std::size_t ring, const T &value)
    {
        Ring &r = rings_[ring];
        NUPEA_ASSERT(r.size < depth_, "ring overflow");
        std::uint32_t slot = r.head + r.size;
        if (slot >= depth_)
            slot -= depth_;
        slots_[ring * depth_ + slot] = value;
        ++r.size;
    }

    /** Drop the oldest element (ring must be non-empty). */
    void
    pop(std::size_t ring)
    {
        Ring &r = rings_[ring];
        NUPEA_ASSERT(r.size > 0);
        if (++r.head == depth_)
            r.head = 0;
        --r.size;
    }

  private:
    struct Ring
    {
        std::uint32_t head = 0;
        std::uint32_t size = 0;
    };

    std::uint32_t depth_ = 0;
    std::vector<Ring> rings_;
    std::unique_ptr<T[]> slots_;
};

} // namespace nupea

#endif // NUPEA_SIM_TOKEN_ARENA_H
