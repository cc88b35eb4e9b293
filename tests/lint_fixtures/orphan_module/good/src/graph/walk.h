// Fixture: live through an examples/ program (.cpp).
#pragma once
namespace demo {
inline int Walk() { return 0; }
}  // namespace demo
