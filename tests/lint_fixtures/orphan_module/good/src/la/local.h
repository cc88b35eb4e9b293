// Fixture: live through a same-directory include.
#pragma once
namespace demo {
inline int Local() { return 3; }
}  // namespace demo
