// expect-fail: a callable over the 48-byte inline callback budget
#include <cstdint>

#include "sim/inline_callback.h"
struct SevenWords {
  std::uint64_t w[7];
  void operator()() {}
};
void f(muzha::InlineFunction<void()>& cb) { cb = SevenWords{}; }
