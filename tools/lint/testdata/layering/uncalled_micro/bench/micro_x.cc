// A micro bench is not a caller: this include does not keep util/kernel.h
// alive.
#include "util/kernel.h"

int main() { return static_cast<int>(fixture::Kernel()); }
