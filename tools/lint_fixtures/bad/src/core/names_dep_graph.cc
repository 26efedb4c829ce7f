// expect-lint: concrete-linkage
namespace snaps {

const char* DepGraphName() { return DepGraphClusterer().name(); }

}  // namespace snaps
