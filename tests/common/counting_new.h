/**
 * @file
 * Allocation audits.  counting_new.cc replaces the global operator
 * new and delete with counting ones, for the whole executable it is
 * linked into, which is why the audits get an executable of their own.
 */

#ifndef QZZ_TESTS_COMMON_COUNTING_NEW_H
#define QZZ_TESTS_COMMON_COUNTING_NEW_H

#include <cstddef>
#include <cstdint>

namespace qzz::test {

/** Counts operator new calls, and the peak of the bytes they hold at
 *  once, between construction and count(). */
class AllocCounter
{
  public:
    AllocCounter();
    ~AllocCounter();

    /** Stops counting; the blocks allocated since construction. */
    uint64_t count() const;

    /** The most bytes allocated since construction that were live at
     *  one time (requested sizes, net of frees in between). */
    size_t peakBytes() const;
};

} // namespace qzz::test

#endif // QZZ_TESTS_COMMON_COUNTING_NEW_H
