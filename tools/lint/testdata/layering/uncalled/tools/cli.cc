#include "util/clock.h"

int main() { return static_cast<int>(fixture::Now()); }
