#include "graph/kcore.h"
namespace demo {
int CoreNumber(int v) { return v; }
}  // namespace demo
