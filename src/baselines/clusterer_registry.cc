#include "baselines/clusterer_registry.h"

#include <map>
#include <mutex>
#include <utility>

#include "baselines/graph_clusterer.h"

namespace snaps {

namespace {

/// Name -> factory map behind a mutex; the map is ordered so name
/// listings come out sorted for free.
class Registry {
 public:
  static Registry& Instance() {
    static Registry instance;
    return instance;
  }

  void Register(const std::string& name, ClustererFactory factory) {
    const std::lock_guard<std::mutex> lock(mu_);
    factories_[name] = std::move(factory);
  }

  Result<std::unique_ptr<Clusterer>> Create(const ClustererSpec& spec) {
    ClustererFactory factory;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = factories_.find(spec.name);
      if (it == factories_.end()) {
        return Status::InvalidArgument("unknown clusterer '" + spec.name +
                                       "' (registered: " + NamesLocked() +
                                       ")");
      }
      factory = it->second;
    }
    return factory(spec);
  }

  std::vector<std::string> Names() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) names.push_back(name);
    return names;
  }

 private:
  Registry() {
    factories_["graph"] =
        [](const ClustererSpec& spec) -> Result<std::unique_ptr<Clusterer>> {
      Result<GraphClusterer> clusterer = GraphClusterer::Create(spec.graph);
      if (!clusterer.ok()) return clusterer.status();
      return std::unique_ptr<Clusterer>(
          std::make_unique<GraphClusterer>(std::move(clusterer).value()));
    };
    factories_["depgraph"] =
        [](const ClustererSpec& spec) -> Result<std::unique_ptr<Clusterer>> {
      Result<DepGraphClusterer> clusterer =
          DepGraphClusterer::Create(spec.depgraph);
      if (!clusterer.ok()) return clusterer.status();
      return std::unique_ptr<Clusterer>(std::make_unique<DepGraphClusterer>(
          std::move(clusterer).value()));
    };
    factories_["hier"] =
        [](const ClustererSpec& spec) -> Result<std::unique_ptr<Clusterer>> {
      Result<HierarchicalClusterer> clusterer =
          HierarchicalClusterer::Create(spec.hier);
      if (!clusterer.ok()) return clusterer.status();
      return std::unique_ptr<Clusterer>(std::make_unique<HierarchicalClusterer>(
          std::move(clusterer).value()));
    };
    factories_["relcluster"] =
        [](const ClustererSpec& spec) -> Result<std::unique_ptr<Clusterer>> {
      Result<RelClusterBaseline> clusterer =
          RelClusterBaseline::Create(spec.relcluster);
      if (!clusterer.ok()) return clusterer.status();
      return std::unique_ptr<Clusterer>(std::make_unique<RelClusterBaseline>(
          std::move(clusterer).value()));
    };
  }

  std::string NamesLocked() const {
    std::string out;
    for (const auto& [name, factory] : factories_) {
      if (!out.empty()) out += ", ";
      out += name;
    }
    return out;
  }

  std::mutex mu_;
  std::map<std::string, ClustererFactory> factories_;
};

}  // namespace

void RegisterClusterer(const std::string& name, ClustererFactory factory) {
  Registry::Instance().Register(name, std::move(factory));
}

Result<std::unique_ptr<Clusterer>> CreateClusterer(const ClustererSpec& spec) {
  return Registry::Instance().Create(spec);
}

std::vector<std::string> RegisteredClustererNames() {
  return Registry::Instance().Names();
}

Result<void> ClustererSpec::Validate() const {
  Result<std::unique_ptr<Clusterer>> clusterer = CreateClusterer(*this);
  if (!clusterer.ok()) return clusterer.status();
  return Result<void>::Ok();
}

}  // namespace snaps
