// Fuzz target for ParseRareEventSpec: arbitrary spec strings must produce
// a parsed spec or a structured error — no throw, abort, or UB. Accepted
// specs must round-trip through FormatRareEventSpec.
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/rare_event_spec.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  const auto spec = zonestream::sim::ParseRareEventSpec(text);
  if (spec.ok()) {
    const std::string formatted = zonestream::sim::FormatRareEventSpec(*spec);
    if (!zonestream::sim::ParseRareEventSpec(formatted).ok()) {
      __builtin_trap();
    }
  }
  return 0;
}

#ifndef ZS_HAVE_LIBFUZZER
#include "fuzz_driver.h"

int main(int argc, char** argv) {
  return zonestream::fuzz::RunStandaloneDriver(
      argc, argv,
      {"streams=30,rounds=20000,reps=8,seed=42,m=1200,g=12,theta=auto,"
       "confidence=0.99",
       "theta=34.5,rounds=100,reps=2"});
}
#endif
