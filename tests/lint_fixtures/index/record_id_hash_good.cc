// lint-fixture-expect: clean
// Dense id-indexed bookkeeping, a hash container keyed by something else,
// and one documented exception.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using RecordId = int32_t;

struct Bookkeeping {
  std::vector<char> processed;            // bitmap indexed by record id
  std::vector<int> index;                 // record id -> slot, -1 if absent
  std::unordered_map<int, RecordId> by_node;  // keyed by node id
  // Its iteration order is the output order.
  std::unordered_set<RecordId> fallback;  // lint:allow(record-id-hash)
};

bool Seen(const Bookkeeping& b, RecordId rid) {
  return b.processed[static_cast<size_t>(rid)] != 0;
}
