// Fixture: includes la/local.h relative to its own directory.
#include "local.h"
namespace demo {
int User() { return Local(); }
}  // namespace demo
