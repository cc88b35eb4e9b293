// Fixture: a header nothing includes at all.
#pragma once
namespace demo {
inline int Components() { return 2; }
}  // namespace demo
