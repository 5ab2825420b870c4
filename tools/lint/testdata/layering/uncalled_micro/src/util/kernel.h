// Only a micro bench and a test include this header. Must fire:
// uncalled-module.
#ifndef UNCALLED_MICRO_UTIL_KERNEL_H_
#define UNCALLED_MICRO_UTIL_KERNEL_H_
namespace fixture { long Kernel(); }
#endif
