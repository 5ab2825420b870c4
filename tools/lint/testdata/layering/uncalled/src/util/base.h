// Called: src/data/loader.cc includes it.
#ifndef UNCALLED_UTIL_BASE_H_
#define UNCALLED_UTIL_BASE_H_
namespace fixture { using Key = unsigned long; }
#endif
