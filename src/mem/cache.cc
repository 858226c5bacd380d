#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ccn::mem {

namespace {

/** Largest power of two not exceeding @p v (v >= 1). */
std::uint32_t
floorPow2(std::uint32_t v)
{
    return std::uint32_t{1} << (31 - std::countl_zero(v));
}

} // namespace

SetAssocCache::SetAssocCache(std::uint32_t total_lines, std::uint32_t ways)
    : numSets_(floorPow2(std::max<std::uint32_t>(1, total_lines / ways))),
      ways_(ways),
      tags_(static_cast<std::size_t>(numSets_) * ways_, kNoLine),
      stamps_(tags_.size()),
      entries_(tags_.size())
{
}

std::size_t
SetAssocCache::setBase(Addr line) const
{
    // Hash the line number over the sets. Using the raw line index
    // modulo sets preserves the real stride-conflict behaviour that the
    // paper's small-buffer optimization depends on (4KB-strided buffers
    // landing in a fraction of the sets).
    return static_cast<std::size_t>((line / kLineBytes) & (numSets_ - 1)) *
           ways_;
}

std::size_t
SetAssocCache::wayOf(Addr line) const
{
    const std::size_t base = setBase(line);
    for (std::size_t w = base; w < base + ways_; ++w) {
        if (tags_[w] == line)
            return w;
    }
    return kNoWay;
}

CacheEntry *
SetAssocCache::find(Addr line)
{
    const std::size_t w = wayOf(line);
    return w == kNoWay ? nullptr : &entries_[w];
}

const CacheEntry *
SetAssocCache::find(Addr line) const
{
    return const_cast<SetAssocCache *>(this)->find(line);
}

CacheEntry *
SetAssocCache::touch(Addr line)
{
    const std::size_t w = wayOf(line);
    if (w == kNoWay)
        return nullptr;
    stamps_[w] = ++stamp_;
    return &entries_[w];
}

CacheEntry *
SetAssocCache::insert(Addr line, LineState state, bool dirty,
                      Eviction *evicted)
{
    assert(find(line) == nullptr && "line already present");
    assert(state != LineState::Invalid);
    if (evicted)
        evicted->valid = false;

    // The first invalid way, else the least recently used one.
    const std::size_t base = setBase(line);
    std::size_t v = base;
    while (v < base + ways_ && tags_[v] != kNoLine)
        ++v;
    if (v == base + ways_) {
        v = base;
        for (std::size_t w = base + 1; w < base + ways_; ++w) {
            if (stamps_[w] < stamps_[v])
                v = w;
        }
        if (evicted) {
            evicted->valid = true;
            evicted->line = tags_[v];
            evicted->state = entries_[v].state;
            evicted->dirty = entries_[v].dirty;
        }
    }

    tags_[v] = line;
    stamps_[v] = ++stamp_;
    entries_[v] = CacheEntry{state, dirty, false, 0};
    return &entries_[v];
}

bool
SetAssocCache::erase(Addr line)
{
    const std::size_t w = wayOf(line);
    if (w == kNoWay)
        return false;
    tags_[w] = kNoLine;
    return true;
}

void
SetAssocCache::clear()
{
    std::fill(tags_.begin(), tags_.end(), kNoLine);
}

} // namespace ccn::mem
