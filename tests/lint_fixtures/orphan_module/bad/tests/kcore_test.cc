// Fixture: a test include keeps nothing live.
#include "graph/kcore.h"
int TestCore() { return demo::CoreNumber(1); }
