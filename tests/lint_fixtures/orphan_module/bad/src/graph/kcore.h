// Fixture: reached only by its own .cc and its own test.
#pragma once
namespace demo {
int CoreNumber(int v);
}  // namespace demo
