// Fixture: a src user of align/stream.h.
#include "align/stream.h"
namespace demo {
int Pipeline() { return Stream(); }
}  // namespace demo
