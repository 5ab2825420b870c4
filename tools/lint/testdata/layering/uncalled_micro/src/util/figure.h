// Called: bench/fig_x.cc, a figure bench, includes it.
#ifndef UNCALLED_MICRO_UTIL_FIGURE_H_
#define UNCALLED_MICRO_UTIL_FIGURE_H_
namespace fixture { long FigurePoint(); }
#endif
