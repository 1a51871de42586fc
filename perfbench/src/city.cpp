// The deployment every workload shares: the small-preset city, the
// server's candidate configuration, and the trip generator's settings.
#include "bench.h"
#include "graph/network_builder.h"

namespace perfbench {

pathrank::graph::RoadNetwork BuildCity() {
  pathrank::graph::SyntheticNetworkConfig config;
  config.rows = 20;
  config.cols = 20;
  config.seed = 42;
  return pathrank::graph::BuildSyntheticNetwork(config);
}

pathrank::data::CandidateGenConfig ServerCandidates() {
  pathrank::data::CandidateGenConfig gen;
  gen.strategy = pathrank::data::CandidateStrategy::kDiversifiedTopK;
  gen.k = 10;
  gen.similarity_threshold = 0.6;
  gen.max_enumerated = 300;
  return gen;
}

std::vector<pathrank::traj::TripPath> Trips(
    const pathrank::graph::RoadNetwork& network, int count, uint64_t seed,
    double commute_fraction) {
  pathrank::traj::TrajectoryGeneratorConfig config;
  config.num_drivers = 40;
  config.num_trips = count;
  config.min_trip_distance_m = 2500.0;
  config.max_path_vertices = 45;
  config.commute_fraction = commute_fraction;
  config.seed = seed;
  return pathrank::traj::TrajectoryGenerator(network, config).Generate();
}

}  // namespace perfbench
