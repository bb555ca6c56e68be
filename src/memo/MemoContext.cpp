//===- memo/MemoContext.cpp - Cross-run memoization context ---------------===//
//
// Part of the pseq project, reproducing "Sequential Reasoning for Optimizing
// Compilers under Weak Memory Concurrency" (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "memo/MemoContext.h"

#include <algorithm>

using namespace pseq;
using namespace pseq::memo;

MemoContext::MemoContext() : Shards(new Shard[NumTables * ShardsPerTable]) {}

const MemoContext::Shard &MemoContext::shardFor(Table T,
                                                const Fp128 &Key) const {
  unsigned TableBase = static_cast<unsigned>(T) * ShardsPerTable;
  unsigned Idx = static_cast<unsigned>(Key.Lo >> 6) & (ShardsPerTable - 1);
  return Shards[TableBase + Idx];
}

std::shared_ptr<const void> MemoContext::lookup(Table T,
                                                const Fp128 &Key) const {
  const Shard &S = shardFor(T, Key);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  return It == S.Map.end() ? nullptr : It->second;
}

std::shared_ptr<const void>
MemoContext::insert(Table T, const Fp128 &Key,
                    std::shared_ptr<const void> Value) {
  std::atomic<uint64_t> &Size = Sizes[static_cast<unsigned>(T)];
  const Shard &CS = shardFor(T, Key);
  Shard &S = const_cast<Shard &>(CS);
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(Key);
  if (It != S.Map.end())
    return It->second; // first writer wins
  if (Size.load(std::memory_order_relaxed) >= MaxEntriesPerTable)
    return nullptr; // table full; caller keeps its local value
  S.Map.emplace(Key, Value);
  Size.fetch_add(1, std::memory_order_relaxed);
  return Value;
}

uint64_t MemoContext::entryCount(Table T) const {
  return Sizes[static_cast<unsigned>(T)].load(std::memory_order_relaxed);
}

std::vector<MemoContext::StringEntry>
MemoContext::exportStrings(Table T) const {
  std::vector<StringEntry> Out;
  unsigned TableBase = static_cast<unsigned>(T) * ShardsPerTable;
  for (unsigned I = 0; I != ShardsPerTable; ++I) {
    const Shard &S = Shards[TableBase + I];
    std::lock_guard<std::mutex> Lock(S.Mu);
    for (const auto &KV : S.Map) {
      const auto *Str = static_cast<const std::string *>(KV.second.get());
      Out.push_back({KV.first, *Str});
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const StringEntry &A, const StringEntry &B) {
              return A.Key.Hi != B.Key.Hi ? A.Key.Hi < B.Key.Hi
                                          : A.Key.Lo < B.Key.Lo;
            });
  return Out;
}

uint64_t MemoContext::importStrings(Table T,
                                    const std::vector<StringEntry> &Entries) {
  uint64_t Inserted = 0;
  for (const StringEntry &E : Entries) {
    auto Value = std::make_shared<const std::string>(E.Value);
    if (insert(T, E.Key, Value) == Value)
      ++Inserted;
  }
  return Inserted;
}

MemoContext::ShardStats MemoContext::shardStats(Table T) const {
  ShardStats Out;
  Out.NumShards = ShardsPerTable;
  unsigned TableBase = static_cast<unsigned>(T) * ShardsPerTable;
  for (unsigned I = 0; I != ShardsPerTable; ++I) {
    const Shard &S = Shards[TableBase + I];
    std::lock_guard<std::mutex> Lock(S.Mu);
    uint64_t N = S.Map.size();
    Out.Entries += N;
    Out.MaxShard = std::max(Out.MaxShard, N);
    Out.NonEmptyShards += N != 0;
  }
  return Out;
}
