// galign-lint: allow(orphan-module): fixture for a reasoned suppression
#pragma once
namespace demo {
inline int Kept() { return 4; }
}  // namespace demo
