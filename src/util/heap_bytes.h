// Heap bytes held by a std::string: its capacity plus the terminator when
// the characters live on the heap, 0 when they fit in the object itself
// (the small-string buffer).

#ifndef BBSMINE_UTIL_HEAP_BYTES_H_
#define BBSMINE_UTIL_HEAP_BYTES_H_

#include <cstddef>
#include <string>

namespace bbsmine {

inline size_t StringHeapBytes(const std::string& s) {
  const char* self = reinterpret_cast<const char*>(&s);
  const char* data = s.data();
  const bool inline_chars = data >= self && data < self + sizeof(s);
  return inline_chars ? 0 : s.capacity() + 1;
}

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_HEAP_BYTES_H_
