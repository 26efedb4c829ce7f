// expect-lint: concrete-linkage
#include "baselines/dep_graph.h"
