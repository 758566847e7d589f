// Hash combinators used by tuples and relation indexes.
#ifndef DATALOGO_CORE_HASH_H_
#define DATALOGO_CORE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace datalogo {

/// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit constants).
inline void HashCombine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hashes a contiguous range of integral ids.
template <typename It>
std::size_t HashRange(It first, It last) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  for (It it = first; it != last; ++it) {
    HashCombine(seed, std::hash<uint64_t>{}(static_cast<uint64_t>(*it)));
  }
  return seed;
}

/// Hash of a key: any value exposing size() and operator[] over ids (a
/// Tuple, a span, a relation row view). The same id sequence hashes
/// identically whatever form it arrives in. The splitmix64 finalizer
/// matters: the open-addressing tables this feeds (Relation's row table,
/// RelationIndex's hash tier) are masked to a power of two and probed
/// linearly, so weak low-bit dispersion (dense interned ids are highly
/// structured) would cluster catastrophically. Declared inline on
/// purpose: it sits on every row-table probe, and the inline hint keeps
/// GCC inlining it there as it did when it was a member of Relation.
template <typename Key>
inline std::size_t KeyHash(const Key& key) {
  std::size_t h = 0xcbf29ce484222325ULL;
  const std::size_t n = key.size();
  for (std::size_t i = 0; i < n; ++i) {
    HashCombine(h, static_cast<std::size_t>(key[i]));
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace datalogo

#endif  // DATALOGO_CORE_HASH_H_
