/**
 * @file
 * Set-associative cache tag model.
 *
 * Tracks presence and LRU age of 64B lines (SetAssocTags, the shared
 * LLCs) and, for the per-core private L2 caches, each way's local
 * MESI-style state, dirtiness and fill-complete time (readyAt) as
 * well (SetAssocCache). Only tags and states are modeled; data
 * contents live in the access-accurate layer above.
 */

#ifndef CCN_MEM_CACHE_HH
#define CCN_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/time.hh"

namespace ccn::mem {

/** Local state of a line within one cache. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,    ///< Read-only copy (S or F).
    Exclusive, ///< Sole clean copy (E).
    Modified,  ///< Sole dirty copy (M).
};

/**
 * The state of one valid L2 way, packed into 8 bytes. Its tag and LRU
 * stamp live apart, and the tag alone says whether the way is valid.
 * The 60-bit fill time bounds readyAt at 2^60 ps, about 13 simulated
 * days.
 */
struct CacheEntry
{
    sim::Tick readyAt : 60 = 0; ///< Fill completion (for prefetch hits).
    LineState state : 2 = LineState::Invalid;
    bool dirty : 1 = false;
    bool wasPrefetch : 1 = false; ///< Installed by the prefetcher.
};

static_assert(sizeof(CacheEntry) == 8);

/** Victim description returned by SetAssocCache::insert(). */
struct Eviction
{
    bool valid = false;
    Addr line = 0;
    LineState state = LineState::Invalid;
    bool dirty = false;
};

/**
 * Set-associative LRU array of 64B line tags, with nothing else per
 * way but an LRU stamp: 16 bytes a way.
 *
 * Laid out for the host's cache: each set's tags are contiguous, with
 * kNoLine in an invalid way, so a lookup compares at most `ways`
 * addresses (160 B for a 20-way set) and reads nothing else. Ways are
 * numbered by set then way, from 0 to sets x ways; erase() and clear()
 * write only tags. Stamps count every insert and touch in 64 bits, so
 * they never wrap.
 */
class SetAssocTags
{
  public:
    /** Tag of an invalid way; no line address is odd. */
    static constexpr Addr kNoLine = ~Addr{0};

    /** The way of an absent line. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /**
     * @param total_lines Configured capacity in lines. The set count
     *                    is the largest power of two not above
     *                    total_lines / ways (at least one), so the
     *                    modeled capacity is sets x ways, which can be
     *                    well under this (DESIGN §6, item 8).
     * @param ways        Associativity.
     */
    SetAssocTags(std::uint32_t total_lines, std::uint32_t ways);

    /** The way holding @p line, or kNoWay. Does not touch LRU. */
    std::size_t find(Addr line) const;

    /** As find(), and mark the way most-recently-used. */
    std::size_t touch(Addr line);

    /**
     * Insert @p line (which must not be present) into the first
     * invalid way of its set, else the least recently used one, and
     * return that way. @p evicted, if not null, receives the line the
     * way held, or kNoLine if it was invalid.
     */
    std::size_t insert(Addr line, Addr *evicted);

    /** Remove @p line if present; returns true if it was. */
    bool erase(Addr line);

    /** Drop every line (used between experiment repetitions). */
    void clear();

    /** Ways in all sets: sets x ways. */
    std::size_t size() const { return tags_.size(); }

    /** Call fn(line, way) for every valid way, in way order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t w = 0; w < tags_.size(); ++w) {
            if (tags_[w] != kNoLine)
                fn(tags_[w], w);
        }
    }

  private:
    /** Index of the first way of @p line's set. */
    std::size_t setBase(Addr line) const;

    std::uint32_t numSets_;
    std::uint32_t ways_;
    std::uint64_t stamp_ = 0;
    // numSets_ x ways_ each, by set then way.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_; ///< Last insert or touch.
};

/**
 * Set-associative LRU cache of 64B lines with a CacheEntry per way:
 * SetAssocTags (same set mapping, same victim) plus an array of way
 * state parallel to its ways, 24 bytes a way.
 */
class SetAssocCache
{
  public:
    /** As SetAssocTags. */
    SetAssocCache(std::uint32_t total_lines, std::uint32_t ways);

    /** Find the entry for @p line, or nullptr. Does not touch LRU. */
    CacheEntry *find(Addr line);

    /** Find and mark most-recently-used. */
    CacheEntry *touch(Addr line);

    /**
     * Insert @p line (which must not be present), evicting the LRU way
     * of its set if necessary. Returns the inserted entry; the evicted
     * victim, if any, is described through @p evicted.
     */
    CacheEntry *insert(Addr line, LineState state, bool dirty,
                       Eviction *evicted);

    /** Remove @p line if present; returns true if it was. */
    bool erase(Addr line) { return tags_.erase(line); }

    /** Drop every line (used between experiment repetitions). */
    void clear() { tags_.clear(); }

    /** Call fn(line, entry) for every valid way, in way order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        tags_.forEachValid([&](Addr line, std::size_t w) {
            fn(line, entries_[w]);
        });
    }

  private:
    /** The entry of way @p w, or nullptr for kNoWay. */
    CacheEntry *
    entry(std::size_t w)
    {
        return w == SetAssocTags::kNoWay ? nullptr : &entries_[w];
    }

    SetAssocTags tags_;
    std::vector<CacheEntry> entries_; ///< One per way of tags_.
};

} // namespace ccn::mem

#endif // CCN_MEM_CACHE_HH
