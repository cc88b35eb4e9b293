// Fixture: included by a program, so live.
#pragma once
namespace demo {
inline int Used() { return 1; }
}  // namespace demo
