// Fixture: live through another src file.
#pragma once
namespace demo {
inline int Stream() { return 1; }
}  // namespace demo
