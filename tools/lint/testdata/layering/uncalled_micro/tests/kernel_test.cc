// A test is not a caller either.
#include "util/kernel.h"

int main() { return static_cast<int>(fixture::Kernel()); }
