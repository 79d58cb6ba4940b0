// Control fixture: dimensionally sound code that MUST compile. The harness
// self-test runs check_compile_fail.cmake over this file under WILL_FAIL,
// proving the driver really fails when a fixture compiles.
#include "sim/units.h"
using namespace muzha;
Seconds propagation_delay() {
  return Meters(250.0) / MetersPerSecond(3.0e8);
}
Seconds serialization_delay() {
  return to_bits(Bytes(1500)) / BitsPerSecond(2e6);
}
Segments grown(Segments w) { return w + Segments(1.0); }
