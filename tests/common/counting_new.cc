#include "common/counting_new.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};
/** Requested bytes live now, and their peak while counting. */
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
int64_t g_base = 0;

/** Each block carries its requested size in a header that keeps the
 *  default new alignment. */
constexpr size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void *
countedAlloc(std::size_t sz)
{
    auto *base = static_cast<char *>(std::malloc(sz + kHeader));
    if (base == nullptr)
        throw std::bad_alloc();
    std::memcpy(base, &sz, sizeof sz);
    const int64_t live =
        g_live.fetch_add(int64_t(sz), std::memory_order_relaxed) +
        int64_t(sz);
    if (g_counting.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        if (live > g_peak.load(std::memory_order_relaxed))
            g_peak.store(live, std::memory_order_relaxed);
    }
    return base + kHeader;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    char *base = static_cast<char *>(p) - kHeader;
    std::size_t sz = 0;
    std::memcpy(&sz, base, sizeof sz);
    g_live.fetch_sub(int64_t(sz), std::memory_order_relaxed);
    std::free(base);
}

} // namespace

void *
operator new(std::size_t sz)
{
    return countedAlloc(sz);
}

void *
operator new[](std::size_t sz)
{
    return countedAlloc(sz);
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

namespace qzz::test {

AllocCounter::AllocCounter()
{
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_base = g_live.load(std::memory_order_relaxed);
    g_peak.store(g_base, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
}

AllocCounter::~AllocCounter() { g_counting.store(false); }

uint64_t
AllocCounter::count() const
{
    g_counting.store(false, std::memory_order_relaxed);
    return g_alloc_count.load(std::memory_order_relaxed);
}

size_t
AllocCounter::peakBytes() const
{
    return size_t(g_peak.load(std::memory_order_relaxed) - g_base);
}

} // namespace qzz::test
