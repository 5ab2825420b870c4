// Called: tools/cli.cc includes it.
#ifndef UNCALLED_UTIL_CLOCK_H_
#define UNCALLED_UTIL_CLOCK_H_
namespace fixture { long Now(); }
#endif
