#include "cache/shared_cache.h"

#include <cassert>
#include <utility>

namespace fpopt {

bool SharedMemoCache::lookup(const CacheKey& key, CacheEntry& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const CacheEntry* entry = base_.peek(key);
  if (entry == nullptr) return false;
  out = *entry;
  return true;
}

void SharedMemoCache::commit(std::vector<CacheEntry>&& inserts, std::size_t hits,
                             std::size_t misses) {
  const std::lock_guard<std::mutex> lock(mu_);
  base_.note_probes(hits, misses);
  for (CacheEntry& e : inserts) {
    base_.insert(e.key, std::move(e.result), e.profile);
  }
}

MemoCacheStats SharedMemoCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return base_.stats();
}

std::size_t SharedMemoCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return base_.size();
}

std::size_t SharedMemoCache::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return base_.bytes();
}

std::size_t SharedMemoCache::byte_budget() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return base_.byte_budget();
}

const CacheEntry* CacheSession::find(const CacheKey& key) {
  assert(open_ && "CacheSession was already committed / rolled back");
  if (const auto it = index_.find(key); it != index_.end()) {
    ++stats_.hits;
    return &it->second.entry;
  }
  CacheEntry fetched;
  if (!shared_->lookup(key, fetched)) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &index_.emplace(key, Slot{std::move(fetched), false}).first->second.entry;
}

void CacheSession::insert(const CacheKey& key, std::shared_ptr<const NodeResult> result,
                          const NodeProfileRecord& profile) {
  assert(open_ && "CacheSession was already committed / rolled back");
  const std::size_t entry_bytes = approx_entry_bytes(*result);
  ++stats_.insertions;
  // A new key, or an overwrite in place. A fetched slot becomes
  // provisional: the session recomputed the node, so its version wins at
  // commit time.
  Slot& slot = index_.try_emplace(key).first->second;
  slot.entry = CacheEntry{key, std::move(result), profile, entry_bytes};
  if (!slot.provisional) {
    slot.provisional = true;
    insert_order_.push_back(key);
  }
}

void CacheSession::commit() {
  assert(open_ && "CacheSession commit/rollback is one-shot");
  open_ = false;
  std::vector<CacheEntry> inserts;
  inserts.reserve(insert_order_.size());
  for (const CacheKey& key : insert_order_) {
    const auto it = index_.find(key);
    assert(it != index_.end() && it->second.provisional);
    inserts.push_back(std::move(it->second.entry));
  }
  shared_->commit(std::move(inserts), stats_.hits, stats_.misses);
  index_.clear();
  insert_order_.clear();
}

void CacheSession::rollback() {
  assert(open_ && "CacheSession commit/rollback is one-shot");
  open_ = false;
  index_.clear();
  insert_order_.clear();
}

}  // namespace fpopt
