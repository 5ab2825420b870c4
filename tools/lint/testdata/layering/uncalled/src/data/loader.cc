#include "data/loader.h"

#include "util/base.h"

namespace fixture { Key LoadFirstKey() { return 0; } }
