// lint-fixture-expect: record-id-hash
// Per-query bookkeeping keyed by record id in a node-based hash container:
// ids are dense, so this is a bitmap's job.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using RecordId = int32_t;

struct Bookkeeping {
  std::unordered_set<RecordId> processed;
  std::unordered_map< RecordId, int> neg_on_path;
};

bool Seen(const Bookkeeping& b, RecordId rid) {
  return b.processed.contains(rid);
}
