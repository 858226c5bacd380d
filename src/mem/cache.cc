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

SetAssocTags::SetAssocTags(std::uint32_t total_lines, std::uint32_t ways)
    : numSets_(floorPow2(std::max<std::uint32_t>(1, total_lines / ways))),
      ways_(ways),
      tags_(static_cast<std::size_t>(numSets_) * ways_, kNoLine),
      stamps_(tags_.size())
{
}

std::size_t
SetAssocTags::setBase(Addr line) const
{
    // Hash the line number over the sets. Using the raw line index
    // modulo sets preserves the real stride-conflict behaviour that the
    // paper's small-buffer optimization depends on (4KB-strided buffers
    // landing in a fraction of the sets).
    return static_cast<std::size_t>((line / kLineBytes) & (numSets_ - 1)) *
           ways_;
}

std::size_t
SetAssocTags::find(Addr line) const
{
    const std::size_t base = setBase(line);
    for (std::size_t w = base; w < base + ways_; ++w) {
        if (tags_[w] == line)
            return w;
    }
    return kNoWay;
}

std::size_t
SetAssocTags::touch(Addr line)
{
    const std::size_t w = find(line);
    if (w != kNoWay)
        stamps_[w] = ++stamp_;
    return w;
}

std::size_t
SetAssocTags::insert(Addr line, Addr *evicted)
{
    assert(find(line) == kNoWay && "line already present");

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
    }

    if (evicted)
        *evicted = tags_[v];
    tags_[v] = line;
    stamps_[v] = ++stamp_;
    return v;
}

bool
SetAssocTags::erase(Addr line)
{
    const std::size_t w = find(line);
    if (w == kNoWay)
        return false;
    tags_[w] = kNoLine;
    return true;
}

void
SetAssocTags::clear()
{
    std::fill(tags_.begin(), tags_.end(), kNoLine);
}

SetAssocCache::SetAssocCache(std::uint32_t total_lines, std::uint32_t ways)
    : tags_(total_lines, ways), entries_(tags_.size())
{
}

CacheEntry *
SetAssocCache::find(Addr line)
{
    return entry(tags_.find(line));
}

CacheEntry *
SetAssocCache::touch(Addr line)
{
    return entry(tags_.touch(line));
}

CacheEntry *
SetAssocCache::insert(Addr line, LineState state, bool dirty,
                      Eviction *evicted)
{
    assert(state != LineState::Invalid);
    Addr victim = SetAssocTags::kNoLine;
    const std::size_t v = tags_.insert(line, &victim);
    CacheEntry &e = entries_[v];
    if (evicted) {
        *evicted = victim == SetAssocTags::kNoLine
                       ? Eviction{}
                       : Eviction{true, victim, e.state, e.dirty};
    }
    e = CacheEntry{0, state, dirty, false};
    return &e;
}

} // namespace ccn::mem
