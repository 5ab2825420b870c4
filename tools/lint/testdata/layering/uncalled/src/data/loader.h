// Only its own .cc and a test include this header. Must fire:
// uncalled-module.
#ifndef UNCALLED_DATA_LOADER_H_
#define UNCALLED_DATA_LOADER_H_
#include "util/base.h"
namespace fixture { Key LoadFirstKey(); }
#endif
