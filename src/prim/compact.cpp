#include "prim/compact.hpp"

namespace sfcp::prim {

std::vector<u32> pack_index(std::span<const u8> flags) {
  return pack_index_if(flags.size(), [&](std::size_t i) { return flags[i] != 0; });
}

}  // namespace sfcp::prim
