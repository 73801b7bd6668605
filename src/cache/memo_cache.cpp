#include "cache/memo_cache.h"

#include <algorithm>
#include <cassert>

namespace fpopt {

std::size_t approx_entry_bytes(const NodeResult& result) {
  std::size_t b = sizeof(CacheKey) + sizeof(NodeResult) + sizeof(NodeProfileRecord) +
                  sizeof(std::size_t);
  b += result.rlist.size() * sizeof(RectImpl);
  b += result.rprov.size() * sizeof(Prov);
  for (const LList& list : result.lset.lists()) {
    b += sizeof(LList) + list.size() * sizeof(LEntry);
  }
  b += result.lprov.size() * sizeof(Prov);
  return b;
}

const MemoCache::Entry* MemoCache::find(const CacheKey& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
  return &*it->second;
}

const MemoCache::Entry* MemoCache::peek(const CacheKey& key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : &*it->second;
}

void MemoCache::insert(const CacheKey& key, std::shared_ptr<const NodeResult> result,
                       const NodeProfileRecord& profile) {
  if (const auto it = map_.find(key); it != map_.end()) erase(it->second);
  const std::size_t entry_bytes = approx_entry_bytes(*result);
  lru_.push_front(Entry{key, std::move(result), profile, entry_bytes});
  map_.emplace(key, lru_.begin());
  bytes_ += entry_bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, bytes_);
  ++stats_.insertions;
  if (epoch_open_) epoch_inserts_.push_back(key);
  evict_to_budget(lru_.begin());
}

void MemoCache::begin_epoch() {
  assert(!epoch_open_ && "MemoCache epochs do not nest");
  epoch_open_ = true;
  epoch_inserts_.clear();
}

void MemoCache::commit_epoch() {
  assert(epoch_open_);
  epoch_open_ = false;
  epoch_inserts_.clear();
}

void MemoCache::rollback_epoch() {
  assert(epoch_open_);
  epoch_open_ = false;
  for (const CacheKey& key : epoch_inserts_) {
    const auto it = map_.find(key);
    if (it == map_.end()) continue;  // already evicted by the byte budget
    erase(it->second);
    ++stats_.rollback_discards;
  }
  epoch_inserts_.clear();
}

void MemoCache::clear() {
  lru_.clear();
  map_.clear();
  epoch_inserts_.clear();
  epoch_open_ = false;
  bytes_ = 0;
}

void MemoCache::erase(LruList::iterator it) {
  bytes_ -= it->bytes;
  map_.erase(it->key);
  lru_.erase(it);
}

void MemoCache::evict_to_budget(LruList::iterator keep) {
  if (byte_budget_ == 0) return;
  while (bytes_ > byte_budget_ && !lru_.empty()) {
    const auto victim = std::prev(lru_.end());
    if (victim == keep) break;  // never evict the entry just inserted
    erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace fpopt
