#pragma once
// Heap high-water counter for the traced run.  The benchmark binary
// replaces the global operator new/delete (alloc_counter.cpp); while a
// HeapWindow is open every allocation and free adjusts a net byte count, and
// the window reports the highest net growth it saw.  Outside a window the
// replacement costs one relaxed atomic load per call.

#include <cstddef>

namespace perfbench {

class HeapWindow {
 public:
  HeapWindow();   ///< resets the counters and starts counting
  ~HeapWindow();  ///< stops counting
  HeapWindow(const HeapWindow&) = delete;
  HeapWindow& operator=(const HeapWindow&) = delete;

  /// Highest net heap growth (bytes) since the window opened.
  std::size_t peak_bytes() const noexcept;
};

}  // namespace perfbench
