// Fixture: the program that keeps graph/walk.h live.
#include "graph/walk.h"
int main() { return demo::Walk(); }
