/**
 * @file
 * InlineVec: a fixed-capacity vector whose elements live inside the
 * object, so building, copying and appending never touch the heap.
 *
 * It carries only the slice of the std::vector API the gate IR uses
 * (size/empty/[]/iteration/push_back/resize/==/< and a braced list).
 * Growing past the capacity is a caller error and raises fatal(),
 * never std::length_error.
 */

#ifndef QZZ_COMMON_INLINE_VEC_H
#define QZZ_COMMON_INLINE_VEC_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <type_traits>

#include "common/error.h"

namespace qzz {

template <typename T, size_t N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "InlineVec holds trivially copyable elements only");
    static_assert(N > 0 && N <= UINT8_MAX, "InlineVec: bad capacity");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    constexpr InlineVec() = default;

    InlineVec(std::initializer_list<T> init)
    {
        checkFits(init.size());
        std::copy(init.begin(), init.end(), data_);
        size_ = uint8_t(init.size());
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static constexpr size_t capacity() { return N; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

    void
    push_back(const T &v)
    {
        if (size_ == N)
            overflow();
        data_[size_++] = v;
    }

    /** Grow with value-initialized elements, or shrink. */
    void
    resize(size_t n)
    {
        checkFits(n);
        if (n < size_)
            std::fill(data_ + n, data_ + size_, T{});
        size_ = uint8_t(n);
    }

    friend bool
    operator==(const InlineVec &a, const InlineVec &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    friend bool
    operator<(const InlineVec &a, const InlineVec &b)
    {
        return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                            b.end());
    }

  private:
    static void
    checkFits(size_t n)
    {
        if (n > N)
            overflow();
    }

    [[noreturn]] static void
    overflow()
    {
        fatal("InlineVec: capacity exceeded");
    }

    // Slots past size_ stay value-initialized, so a copy never reads
    // indeterminate values.
    T data_[N]{};
    uint8_t size_ = 0;
};

} // namespace qzz

#endif // QZZ_COMMON_INLINE_VEC_H
