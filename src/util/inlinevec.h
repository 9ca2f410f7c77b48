/**
 * @file
 * A fixed-capacity vector stored inline.
 *
 * The lowered program holds hundreds of thousands of instructions,
 * each with a handful of operands and FU uses. Keeping those lists
 * inline (no heap block per list) makes building, copying and freeing
 * a Program allocation-free per instruction. The capacity is a hard
 * bound: exceeding it is a programming error and aborts.
 */

#ifndef CL_UTIL_INLINEVEC_H
#define CL_UTIL_INLINEVEC_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "util/common.h"

namespace cl {

template <class T, std::size_t N>
class InlineVec
{
    static_assert(N > 0 && N < 256, "capacity must fit the size byte");

  public:
    InlineVec() = default;

    InlineVec(std::initializer_list<T> init)
    {
        assign(init.begin(), init.end());
    }

    template <class It>
    void
    assign(It first, It last)
    {
        size_ = 0;
        for (; first != last; ++first)
            push_back(*first);
    }

    void
    push_back(const T &v)
    {
        CL_ASSERT(size_ < N, "InlineVec capacity ", N, " exceeded");
        data_[size_++] = v;
    }

    std::size_t size() const { return size_; }

    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

  private:
    T data_[N] = {};
    std::uint8_t size_ = 0;
};

} // namespace cl

#endif // CL_UTIL_INLINEVEC_H
