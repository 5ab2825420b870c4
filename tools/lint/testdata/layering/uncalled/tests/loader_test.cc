// A test is not a caller: this include does not keep data/loader.h alive.
#include "data/loader.h"

int main() { return static_cast<int>(fixture::LoadFirstKey()); }
