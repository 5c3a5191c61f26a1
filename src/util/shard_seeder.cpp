#include "util/shard_seeder.hpp"

namespace reorder::util {

TargetSeeds ShardSeeder::target(std::uint64_t global_index) const {
  // One avalanche over the survey seed decorrelates nearby seeds; a second
  // over the index separates the per-target streams; distinct additive
  // constants then split each target's state into independent lanes.
  const std::uint64_t base = splitmix64(splitmix64(survey_seed_) + global_index);
  TargetSeeds seeds;
  seeds.host_seed = splitmix64(base + 0x01);
  seeds.ipid_initial = static_cast<std::uint16_t>(splitmix64(base + 0x02));
  seeds.forward_tag = splitmix64(base + 0x03);
  seeds.reverse_tag = splitmix64(base + 0x04);
  return seeds;
}

}  // namespace reorder::util
