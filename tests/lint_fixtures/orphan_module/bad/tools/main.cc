// Fixture: the program that keeps graph/used.h live.
#include "graph/used.h"
int main() { return demo::Used() - 1; }
