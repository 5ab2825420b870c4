#include "util/figure.h"

int main() { return static_cast<int>(fixture::FigurePoint()); }
