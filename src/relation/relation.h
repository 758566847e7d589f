// K-relations (Sec. 2.3): finite-support maps GA(R, D) → P, stored
// column-major. Only tuples with value ≠ ⊥ are in the support — exactly
// the paper's notion, and the reason semi-naive evaluation pays off
// (Sec. 1.1 discussion of ⊖).
//
// Storage layout (struct-of-arrays): one contiguous ConstId column per
// argument position plus a parallel value column, addressed by row id.
// Point lookups (Get/Set/Merge) go through an open-addressing row-id hash
// table probed with a lightweight key view — no Tuple is materialized on
// the probe path. Erasing a tuple tombstones its row (the row id and its
// hash slot stay put, so a later Set of the same key revives the row in
// place); Compact() squeezes tombstones out between fixpoint iterations.
// Index construction and key projection become sequential column scans.
#ifndef DATALOGO_RELATION_RELATION_H_
#define DATALOGO_RELATION_RELATION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/check.h"
#include "src/core/hash.h"
#include "src/relation/domain.h"
#include "src/relation/tuple.h"
#include "src/semiring/traits.h"

namespace datalogo {

/// Process-unique id for one Relation object; never reused, so a cache
/// entry keyed by a dead relation's id can never match a live relation.
inline uint64_t NextRelationUid() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Sentinel row id: "no such row" (also the empty-slot marker of the
/// row-id hash table).
inline constexpr uint32_t kNoRow = 0xFFFFFFFFu;

/// A list of row ids into one relation's columnar storage — the currency
/// of RelationIndex lookups and the engine's join programs.
using RowIdList = std::vector<uint32_t>;

/// Index-tier selection policy (per (relation, key-spec); see
/// RelationIndex). kAuto picks per key column: direct when the live key
/// range is dense enough, hash otherwise. kDirect forces the direct tier
/// whenever the key span fits the hard cap; kHash forces hashing
/// everywhere — the pre-tier behaviour, kept as the reference.
enum class IndexKind : uint8_t { kHash = 0, kDirect = 1, kAuto = 2 };

/// Non-owning view of one row's key columns in a columnar store. Usable
/// as a probe/upsert key against any Relation (of any value space)
/// without materializing a Tuple: it reads straight out of the source
/// relation's columns.
class RowView {
 public:
  RowView(const std::vector<std::vector<ConstId>>* cols, uint32_t row)
      : cols_(cols), row_(row) {}

  std::size_t size() const { return cols_->size(); }
  ConstId operator[](std::size_t pos) const { return (*cols_)[pos][row_]; }

 private:
  const std::vector<std::vector<ConstId>>* cols_;
  uint32_t row_;
};

/// A P-relation of fixed arity; absent tuples implicitly map to ⊥.
template <Pops P>
class Relation {
 public:
  using Value = typename P::Value;

  explicit Relation(int arity = 0) : arity_(arity), cols_(arity) {}

  // Every object carries a unique id plus a mutation counter so index
  // caches can tell "same content as when I indexed it" apart from "same
  // address by coincidence". Copies and moves are new objects: they get a
  // fresh uid instead of inheriting cached-index validity.
  Relation(const Relation& other)
      : arity_(other.arity_),
        cols_(other.cols_),
        values_(other.values_),
        live_flags_(other.live_flags_),
        live_(other.live_),
        slots_(other.slots_),
        mask_(other.mask_) {}
  Relation(Relation&& other) noexcept
      : arity_(other.arity_),
        cols_(std::move(other.cols_)),
        values_(std::move(other.values_)),
        live_flags_(std::move(other.live_flags_)),
        live_(other.live_),
        slots_(std::move(other.slots_)),
        mask_(other.mask_) {
    other.ResetToEmpty();
    other.BumpHard();
  }
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      arity_ = other.arity_;
      cols_ = other.cols_;
      values_ = other.values_;
      live_flags_ = other.live_flags_;
      live_ = other.live_;
      slots_ = other.slots_;
      mask_ = other.mask_;
      BumpHard();  // wholesale replacement: row ids mean something new
    }
    return *this;
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      arity_ = other.arity_;
      cols_ = std::move(other.cols_);
      values_ = std::move(other.values_);
      live_flags_ = std::move(other.live_flags_);
      live_ = other.live_;
      slots_ = std::move(other.slots_);
      mask_ = other.mask_;
      other.ResetToEmpty();
      other.BumpHard();
      BumpHard();
    }
    return *this;
  }

  int arity() const { return arity_; }
  std::size_t support_size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // ------------------------------------------------------ row accessors
  /// Total rows in the store, tombstoned ones included. Valid row ids are
  /// [0, num_rows()); only rows with RowLive() belong to the support.
  uint32_t num_rows() const { return static_cast<uint32_t>(values_.size()); }
  bool RowLive(uint32_t row) const { return live_flags_[row] != 0; }
  ConstId Cell(uint32_t row, int pos) const { return cols_[pos][row]; }
  const Value& ValueAt(uint32_t row) const { return values_[row].v; }
  /// A key view of `row` — valid until this relation's columns mutate.
  RowView View(uint32_t row) const { return RowView(&cols_, row); }
  /// One whole key column — the sequential-scan surface for index builds.
  const std::vector<ConstId>& column(int pos) const { return cols_[pos]; }
  /// Raw span of one key column, indexable by row id — what the join
  /// kernel's innermost drain reads bound cells from. Valid until the
  /// columns mutate.
  const ConstId* column_data(int pos) const { return cols_[pos].data(); }
  std::size_t tombstones() const { return values_.size() - live_; }

  /// Calls fn(row_id) for every live (support) row, in row order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    const uint32_t n = num_rows();
    for (uint32_t r = 0; r < n; ++r) {
      if (live_flags_[r]) fn(r);
    }
  }

  /// Live row ids in lexicographic tuple order (deterministic renderings).
  std::vector<uint32_t> SortedLiveRows() const {
    std::vector<uint32_t> rows;
    rows.reserve(live_);
    ForEachRow([&](uint32_t r) { rows.push_back(r); });
    std::sort(rows.begin(), rows.end(), [this](uint32_t a, uint32_t b) {
      for (int p = 0; p < arity_; ++p) {
        if (cols_[p][a] != cols_[p][b]) return cols_[p][a] < cols_[p][b];
      }
      return false;
    });
    return rows;
  }

  // ----------------------------------------------------- point operations
  /// The value of a ground atom (⊥ when outside the support).
  Value Get(const Tuple& t) const { return GetKey(t); }
  /// Same, keyed by another relation's row — no Tuple materialized.
  Value Get(const RowView& key) const { return GetKey(key); }

  bool Contains(const Tuple& t) const {
    if (static_cast<int>(t.size()) != arity_) return false;
    uint32_t r = FindRow(t);
    return r != kNoRow && live_flags_[r] != 0;
  }

  /// Sets the value, maintaining the support invariant (⊥ tombstones).
  void Set(const Tuple& t, Value v) { SetKey(t, std::move(v)); }
  void Set(const RowView& key, Value v) { SetKey(key, std::move(v)); }

  /// r(t) ← r(t) ⊕ v — a single-probe upsert (one hash walk, not the
  /// Get-then-Set double lookup of the row-major store).
  void Merge(const Tuple& t, const Value& v) { MergeKey(t, v); }
  void Merge(const RowView& key, const Value& v) { MergeKey(key, v); }

  /// Removes a tuple from the support (r(t) ← ⊥); returns true iff the
  /// tuple was live. Equivalent to Set(t, ⊥): membership shrinks, which
  /// appending cannot express, so a successful Erase is a HARD mutation —
  /// cached indexes rebuild on next use, not refresh. Bulk deletions
  /// (Engine::Update's prune/apply phases) therefore batch their Erases
  /// between evaluations and follow them with one Compact, paying one
  /// rebuild per touched relation instead of one per tuple.
  bool Erase(const Tuple& t) { return EraseKey(t); }
  bool Erase(const RowView& key) { return EraseKey(key); }

  /// r ← r ⊕ other, consuming `other` (left empty but structurally valid):
  /// the reduce primitive for the engine's parallel per-task partials.
  /// When this relation holds no rows at all the partial's storage is
  /// adopted wholesale — one move, with the uid (and therefore cached-
  /// index identity) of *this preserved. Otherwise every live row of
  /// `other` is upserted in row order, which is exactly the Merge-call
  /// sequence a sequential evaluation of the same contributions would
  /// have issued — the foundation of the parallel step's determinism.
  void MergeFrom(Relation&& other) {
    DLO_CHECK(arity_ == other.arity_);
    if (this == &other || other.live_ == 0) return;
    if (values_.empty()) {
      *this = std::move(other);  // keeps this->uid_, bumps both versions
      return;
    }
    const uint32_t n = other.num_rows();
    for (uint32_t r = 0; r < n; ++r) {
      if (!other.live_flags_[r]) continue;
      MergeKey(other.View(r), other.values_[r].v);
    }
    other.Clear();
  }

  /// Empties the relation but keeps column/slot capacity, so a Clear +
  /// refill cycle (persistent delta relations) does not reallocate.
  void Clear() {
    ++version_;
    clear_version_ = version_;
    for (auto& col : cols_) col.clear();
    values_.clear();
    live_flags_.clear();
    live_ = 0;
    std::fill(slots_.begin(), slots_.end(), kNoRow);
  }

  /// Squeezes tombstoned rows out of the columns and rebuilds the row-id
  /// table. Row ids change, so the version is bumped (cached indexes over
  /// the old ids must rebuild); with no tombstones this is a no-op that
  /// leaves the version — and therefore cached indexes — untouched.
  void Compact() {
    if (live_ == values_.size()) return;
    for (int p = 0; p < arity_; ++p) {
      std::vector<ConstId>& col = cols_[p];
      uint32_t w = 0;
      for (uint32_t r = 0; r < num_rows(); ++r) {
        if (live_flags_[r]) col[w++] = col[r];
      }
      col.resize(w);
    }
    uint32_t w = 0;
    for (uint32_t r = 0; r < num_rows(); ++r) {
      if (!live_flags_[r]) continue;
      if (w != r) values_[w].v = std::move(values_[r].v);
      ++w;
    }
    values_.resize(w);
    live_flags_.assign(w, 1);
    live_ = w;
    BumpHard();  // surviving rows were renumbered
    Rehash(SlotCountFor(w));
  }

  /// Identity of this object (stable for its lifetime, never reused).
  uint64_t uid() const { return uid_; }
  /// Bumped on every mutation; (uid, version) identifies one content state.
  uint64_t version() const { return version_; }
  /// Version of the last *hard* discontinuity — any mutation after which
  /// previously handed-out row ids are renumbered, reordered, or revived
  /// (tombstone, revival, Compact, copy/move assignment). Everything in
  /// between is appends of fresh live rows and value overwrites of live
  /// rows, so an index built at version v with hard_version() <= v can be
  /// refreshed by appending rows added since v instead of rebuilding.
  uint64_t hard_version() const { return hard_version_; }
  /// Version of the last Clear(). A Clear between an index's version and
  /// now means "reset the entry lists, then re-append from row 0" — still
  /// no re-hash of retained structure, and no allocation churn.
  uint64_t clear_version() const { return clear_version_; }

  bool Equals(const Relation& other) const {
    if (arity_ != other.arity_ || live_ != other.live_) return false;
    const uint32_t n = num_rows();
    for (uint32_t r = 0; r < n; ++r) {
      if (!live_flags_[r]) continue;
      uint32_t o = other.FindRow(View(r));
      if (o == kNoRow || !other.live_flags_[o] ||
          !P::Eq(values_[r].v, other.values_[o].v)) {
        return false;
      }
    }
    return true;
  }

  /// Registers every constant in the support with `out` — one sequential
  /// scan per column.
  void CollectConstants(std::vector<ConstId>& out) const {
    const uint32_t n = num_rows();
    for (int p = 0; p < arity_; ++p) {
      const std::vector<ConstId>& col = cols_[p];
      for (uint32_t r = 0; r < n; ++r) {
        if (live_flags_[r]) out.push_back(col[r]);
      }
    }
  }

  /// Deterministic rendering (sorted by tuple) for goldens and debugging.
  std::string ToString(const Domain& dom) const {
    std::ostringstream os;
    for (uint32_t r : SortedLiveRows()) {
      os << "(";
      for (int p = 0; p < arity_; ++p) {
        if (p) os << ",";
        os << dom.ToString(cols_[p][r]);
      }
      os << ") -> " << P::ToString(values_[r].v) << "\n";
    }
    return os.str();
  }

 private:
  template <typename Key>
  bool RowMatchesKey(uint32_t row, const Key& key) const {
    for (int p = 0; p < arity_; ++p) {
      if (cols_[p][row] != key[static_cast<std::size_t>(p)]) return false;
    }
    return true;
  }

  /// Linear probe: the slot holding the key's row, or the empty slot
  /// where it would be inserted. Requires a non-empty table.
  template <typename Key>
  std::size_t Probe(const Key& key) const {
    std::size_t s = KeyHash(key) & mask_;
    for (;;) {
      uint32_t r = slots_[s];
      if (r == kNoRow || RowMatchesKey(r, key)) return s;
      s = (s + 1) & mask_;
    }
  }

  /// Row id (live or tombstoned) of `key`, or kNoRow. At most one row per
  /// distinct key ever exists — erasure tombstones the row in place.
  template <typename Key>
  uint32_t FindRow(const Key& key) const {
    if (slots_.empty()) return kNoRow;
    return slots_[Probe(key)];
  }

  static std::size_t SlotCountFor(std::size_t rows) {
    std::size_t n = 16;
    while (rows * 4 >= n * 3) n <<= 1;  // keep load factor under 3/4
    return n;
  }

  void Rehash(std::size_t n_slots) {
    slots_.assign(n_slots, kNoRow);
    mask_ = n_slots - 1;
    for (uint32_t r = 0; r < num_rows(); ++r) {
      std::size_t s = KeyHash(View(r)) & mask_;
      while (slots_[s] != kNoRow) s = (s + 1) & mask_;
      slots_[s] = r;
    }
  }

  /// Grows the slot table ahead of a potential one-row append, so a slot
  /// index obtained from Probe() stays valid through the insertion.
  void ReserveOneRow() {
    if (slots_.empty()) {
      Rehash(SlotCountFor(values_.size() + 1));
    } else if ((values_.size() + 1) * 4 >= slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
  }

  /// Appends a fresh live row for `key` into the empty slot `slot`.
  /// Reading key[p] before growing column p keeps self-referential views
  /// (key aliasing this relation's own columns) safe.
  template <typename Key>
  void AppendRow(std::size_t slot, const Key& key, Value v) {
    const uint32_t row = num_rows();
    for (int p = 0; p < arity_; ++p) {
      ConstId c = key[static_cast<std::size_t>(p)];
      cols_[p].push_back(c);
    }
    values_.push_back(ValueCell{std::move(v)});
    live_flags_.push_back(1);
    slots_[slot] = row;
  }

  template <typename Key>
  Value GetKey(const Key& key) const {
    if (static_cast<int>(key.size()) != arity_) return P::Bottom();
    uint32_t r = FindRow(key);
    return (r == kNoRow || !live_flags_[r]) ? P::Bottom() : values_[r].v;
  }

  template <typename Key>
  void SetKey(const Key& key, Value v) {
    DLO_CHECK(static_cast<int>(key.size()) == arity_);
    if (P::Eq(v, P::Bottom())) {
      // Erasing an absent tuple leaves the content unchanged; bumping the
      // version would invalidate cached indexes for nothing.
      uint32_t r = FindRow(key);
      if (r != kNoRow && live_flags_[r]) {
        live_flags_[r] = 0;
        --live_;
        BumpHard();  // membership shrank: appended-row refresh can't see it
      }
      return;
    }
    ReserveOneRow();
    std::size_t slot = Probe(key);
    uint32_t r = slots_[slot];
    if (r == kNoRow) {
      AppendRow(slot, key, std::move(v));
      ++live_;
      ++version_;
    } else if (!live_flags_[r]) {
      // Revive the tombstoned row in place. Hard: the row id re-enters
      // the support out of row order, which appending cannot express.
      values_[r].v = std::move(v);
      live_flags_[r] = 1;
      ++live_;
      BumpHard();
    } else {
      values_[r].v = std::move(v);  // value-only overwrite: soft
      ++version_;
    }
  }

  template <typename Key>
  bool EraseKey(const Key& key) {
    if (static_cast<int>(key.size()) != arity_) return false;
    uint32_t r = FindRow(key);
    if (r == kNoRow || !live_flags_[r]) return false;
    live_flags_[r] = 0;
    --live_;
    BumpHard();  // membership shrank: appended-row refresh can't see it
    return true;
  }

  template <typename Key>
  void MergeKey(const Key& key, const Value& v) {
    DLO_CHECK(static_cast<int>(key.size()) == arity_);
    ReserveOneRow();
    std::size_t slot = Probe(key);
    uint32_t r = slots_[slot];
    if (r != kNoRow && live_flags_[r]) {
      Value nv = P::Plus(values_[r].v, v);
      if (P::Eq(nv, P::Bottom())) {
        live_flags_[r] = 0;
        --live_;
        BumpHard();  // ⊕ annihilated the row: membership shrank
      } else {
        values_[r].v = std::move(nv);
        ++version_;
      }
      return;
    }
    Value nv = P::Plus(P::Bottom(), v);
    if (P::Eq(nv, P::Bottom())) return;  // ⊥ ⊕ v = ⊥: nothing to store
    if (r != kNoRow) {
      values_[r].v = std::move(nv);  // revival: hard (see SetKey)
      live_flags_[r] = 1;
      ++live_;
      BumpHard();
    } else {
      AppendRow(slot, key, std::move(nv));
      ++live_;
      ++version_;
    }
  }

  /// Bumps the version and marks it a hard discontinuity (see
  /// hard_version()): cached indexes must rebuild, not refresh.
  void BumpHard() {
    ++version_;
    hard_version_ = version_;
  }

  /// Leaves a moved-from object empty but structurally valid (arity and
  /// uid retained, columns re-sized to arity).
  void ResetToEmpty() {
    cols_.assign(static_cast<std::size_t>(arity_), {});
    values_.clear();
    live_flags_.clear();
    live_ = 0;
    slots_.clear();
    mask_ = 0;
  }

  /// One value-column element. The wrapper defeats the std::vector<bool>
  /// bit-packing specialization: ValueAt must hand out stable
  /// `const Value&` references into the column (the join kernel keeps
  /// them across bind/check ops), which a packed proxy cannot provide.
  struct ValueCell {
    Value v;
  };

  int arity_;
  std::vector<std::vector<ConstId>> cols_;  ///< one column per position
  std::vector<ValueCell> values_;           ///< parallel value column
  std::vector<uint8_t> live_flags_;         ///< 0 = tombstoned row
  std::size_t live_ = 0;                    ///< support size
  RowIdList slots_;     ///< open-addressing row-id table (kNoRow = empty)
  std::size_t mask_ = 0;
  uint64_t uid_ = NextRelationUid();
  uint64_t version_ = 0;
  uint64_t hard_version_ = 0;   ///< version of the last hard discontinuity
  uint64_t clear_version_ = 0;  ///< version of the last Clear()
};

/// How one RelationIndex actually serves lookups. Tier choice is a pure
/// function of (key positions, IndexKind, live key-column min/max and
/// support size), so the same relation state always gets the same tier —
/// a prerequisite for the engine's cross-configuration determinism pins.
enum class IndexRepr : uint8_t {
  kHashMap,      ///< flat open-addressing hash table — the general tier
  kDirectArray,  ///< single key column, dense ids: offset-indexed buckets
  kAllRows,      ///< empty key: one list of all live rows
};

/// Span cap for the direct tier: above this, bucket storage (one vector
/// header per id in [min, max]) stops being worth skipping the hash.
/// Applies even under IndexKind::kDirect.
inline constexpr uint64_t kDirectSpanCap = uint64_t{1} << 20;

/// An index over a relation keyed by a subset of argument positions;
/// built on demand by the engine (index nested-loop joins) and reused
/// across joining steps through IndexCache below. Entries are row ids
/// into the relation's columnar store, in ascending row order whatever
/// the tier — Lookup results are bit-identical across representations.
///
/// Tiers: multi-column keys always hash. Single-column keys use the
/// direct tier when the live ids are dense (kAuto: span <= 4*live + 256,
/// always under kDirectSpanCap) — Lookup is then one subtraction and a
/// bounds check, with no hashing and no key-Tuple walk. Empty keys (full
/// scans) keep the single live-row list directly. IndexKind::kHash
/// forces the general tier everywhere.
///
/// The hash tier groups rows by key value. Each distinct key is a group
/// id; its k key ids sit contiguously in one flat vector and its entry
/// list in a dense vector indexed by group id. A power-of-two slot array
/// of {32-bit hash tag, group id} pairs (load factor <= 1/2, linear
/// probing) maps keys to groups, so a miss — the common case for a
/// join's closing atom — ends on the slot array without reading a key.
template <Pops P>
class RelationIndex {
 public:
  using EntryList = RowIdList;

  /// Builds an index of `rel` on the given positions.
  explicit RelationIndex(const Relation<P>& rel, std::vector<int> positions,
                         IndexKind kind = IndexKind::kAuto)
      : rel_(&rel), positions_(std::move(positions)), kind_(kind) {
    ChooseRepr();
    if (repr_ == IndexRepr::kDirectArray) {
      buckets_.assign(static_cast<std::size_t>(span_), EntryList{});
    } else if (repr_ == IndexRepr::kHashMap) {
      // Groups never outnumber live rows: sized once, the build never
      // rehashes.
      ResizeSlots(SlotCountFor(rel.support_size()));
    }
    bool ok = AppendRange(0, rel.num_rows());
    DLO_CHECK(ok);  // a fresh build chose its range from the same data
  }

  /// All row ids whose projection matches `key`, in row order.
  const EntryList& Lookup(const Tuple& key) const {
    static const EntryList kEmpty;
    switch (repr_) {
      case IndexRepr::kAllRows:
        return all_;
      case IndexRepr::kDirectArray: {
        // Unsigned wrap makes one compare cover both `key < base` and
        // `key >= base + span`.
        const uint32_t off = static_cast<uint32_t>(key[0]) - base_;
        return off < buckets_.size() ? buckets_[off] : kEmpty;
      }
      case IndexRepr::kHashMap:
        break;
    }
    const EntryList* list = FindGroupList(key);
    return list ? *list : kEmpty;
  }

  /// The relation the row ids point into. Only valid while the index is —
  /// i.e. while the relation's version is unchanged (IndexCache's guard).
  const Relation<P>& relation() const { return *rel_; }

  const std::vector<int>& positions() const { return positions_; }

  IndexRepr repr() const { return repr_; }
  /// True when Lookup hashes a key Tuple (the probe-counter split).
  bool is_hash() const { return repr_ == IndexRepr::kHashMap; }

  /// Rows this index has incorporated (== the relation's num_rows() as of
  /// the version it is valid for).
  uint32_t indexed_rows() const { return indexed_rows_; }
  /// Rows examined by this object's build/refresh column scans (including
  /// the dense-detection min/max pass) — the "did a cache hit really skip
  /// the scan" accounting surface.
  uint64_t rows_scanned() const { return rows_scanned_; }

  // ---------------------------------------------------- incremental refresh
  // IndexCache-only surface. Both calls require that every row in
  // [indexed_rows_, rel.num_rows()) is live and in its final position —
  // guaranteed by the caller's hard_version() check (appends of fresh
  // rows and value overwrites are the only soft mutations).

  /// Appends the rows added since the last build/refresh. Returns false —
  /// leaving the index unusable — iff a new key falls outside the direct
  /// tier's bucket range; the caller rebuilds (and re-picks the tier).
  bool AppendNewRows() { return AppendRange(indexed_rows_, rel_->num_rows()); }

  /// Refresh after a Clear + refill cycle: empties every entry list
  /// (keeping their allocations and, for the hash tier, the groups and
  /// their slots — a key seen before the Clear lands in its old group)
  /// and re-appends from row 0. Same false-means-rebuild contract.
  bool ResetAndReappend() {
    all_.clear();
    for (EntryList& b : buckets_) b.clear();
    for (EntryList& g : groups_) g.clear();
    indexed_rows_ = 0;
    return AppendRange(0, rel_->num_rows());
  }

 private:
  /// Picks the representation (and, for the direct tier, base/span) from
  /// the relation's current content.
  void ChooseRepr() {
    if (positions_.size() != 1) {
      repr_ = (positions_.empty() && kind_ != IndexKind::kHash)
                  ? IndexRepr::kAllRows
                  : IndexRepr::kHashMap;
      return;
    }
    if (kind_ == IndexKind::kHash) {
      repr_ = IndexRepr::kHashMap;
      return;
    }
    const std::size_t live = rel_->support_size();
    if (live == 0) {  // trivially dense: zero buckets, every lookup misses
      repr_ = IndexRepr::kDirectArray;
      base_ = 0;
      span_ = 0;
      return;
    }
    const std::vector<ConstId>& col = rel_->column(positions_[0]);
    uint32_t lo = 0, hi = 0;
    bool first = true;
    for (uint32_t r = 0; r < rel_->num_rows(); ++r) {
      if (!rel_->RowLive(r)) continue;
      if (first || col[r] < lo) lo = col[r];
      if (first || col[r] > hi) hi = col[r];
      first = false;
    }
    rows_scanned_ += rel_->num_rows();  // the min/max detection pass
    const uint64_t span = static_cast<uint64_t>(hi) - lo + 1;
    const bool dense =
        kind_ == IndexKind::kDirect ||
        span <= 4 * static_cast<uint64_t>(live) + 256;
    if (span <= kDirectSpanCap && dense) {
      repr_ = IndexRepr::kDirectArray;
      base_ = lo;
      span_ = span;
    } else {
      repr_ = IndexRepr::kHashMap;
    }
  }

  /// Scans rows [from, to) into the structure (skipping dead rows only
  /// when a full build may see them; refresh ranges are all-live).
  bool AppendRange(uint32_t from, uint32_t to) {
    const bool may_have_dead = from == 0 && rel_->tombstones() != 0;
    switch (repr_) {
      case IndexRepr::kAllRows:
        // The entry list IS the live-row compaction.
        for (uint32_t r = from; r < to; ++r) {
          if (may_have_dead && !rel_->RowLive(r)) continue;
          all_.push_back(r);
        }
        break;
      case IndexRepr::kDirectArray: {
        const std::vector<ConstId>& col = rel_->column(positions_[0]);
        // Range check first: a failed append must not leave the buckets
        // half-updated (the caller keeps the object on failure paths
        // until it replaces it).
        for (uint32_t r = from; r < to; ++r) {
          if (may_have_dead && !rel_->RowLive(r)) continue;
          if (static_cast<uint32_t>(col[r]) - base_ >= span_) return false;
        }
        for (uint32_t r = from; r < to; ++r) {
          if (may_have_dead && !rel_->RowLive(r)) continue;
          buckets_[col[r] - base_].push_back(r);
        }
        break;
      }
      case IndexRepr::kHashMap:
        AppendHashed(from, to, may_have_dead);
        break;
    }
    rows_scanned_ += to - from;
    indexed_rows_ = to;
    return true;
  }

  // ------------------------------------------------------------ hash tier
  // The two entry points below stay out of line: inlined, the hashing and
  // probe loops bloat Lookup and AppendRange, whose direct-tier paths the
  // join kernel and refreshes run hot.

  /// The hash tier's entry list for `key`, or null if no row has it.
  [[gnu::noinline]] const EntryList* FindGroupList(const Tuple& key) const {
    if (key.size() != positions_.size()) return nullptr;
    const std::span<const ConstId> ids(key.data(), key.size());
    const Slot slot = slots_[FindSlot(ids, TagOf(ids))];
    return slot.group == kNoRow ? nullptr : &groups_[slot.group];
  }

  /// AppendRange's hash-tier case.
  [[gnu::noinline]] void AppendHashed(uint32_t from, uint32_t to,
                                      bool may_have_dead) {
    Tuple key(positions_.size(), 0);
    for (uint32_t r = from; r < to; ++r) {
      if (may_have_dead && !rel_->RowLive(r)) continue;
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        key[i] = rel_->Cell(r, positions_[i]);
      }
      groups_[FindOrAddGroup(std::span<const ConstId>(key.data(), key.size()))]
          .push_back(r);
    }
  }

  /// One slot of the hash tier's table; group == kNoRow marks it empty.
  /// The tag is the low 32 bits of KeyHash, which also pick the home
  /// slot, so growing the table re-places slots without reading keys.
  struct Slot {
    uint32_t tag;
    uint32_t group;
  };

  /// Smallest power-of-two slot count keeping `groups` at load <= 1/2.
  static std::size_t SlotCountFor(std::size_t groups) {
    std::size_t n = 8;
    while (n < 2 * groups) n <<= 1;
    return n;
  }

  /// Re-places every occupied slot into a table of `n` (a power of two
  /// holding at least twice the groups) slots.
  void ResizeSlots(std::size_t n) {
    std::vector<Slot> old(n, Slot{0, kNoRow});
    old.swap(slots_);
    mask_ = n - 1;
    for (const Slot& slot : old) {
      if (slot.group == kNoRow) continue;
      std::size_t s = slot.tag & mask_;
      while (slots_[s].group != kNoRow) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  static uint32_t TagOf(std::span<const ConstId> key) {
    return static_cast<uint32_t>(KeyHash(key));
  }

  bool GroupKeyEquals(uint32_t group, std::span<const ConstId> key) const {
    const ConstId* stored = keys_.data() + std::size_t{group} * key.size();
    for (std::size_t i = 0; i < key.size(); ++i) {
      if (stored[i] != key[i]) return false;
    }
    return true;
  }

  /// Linear probe for `key` (positions_.size() ids, tag == TagOf(key)):
  /// the slot holding its group, or the empty slot where it would go.
  /// Only a tag match reads a stored key.
  std::size_t FindSlot(std::span<const ConstId> key, uint32_t tag) const {
    for (std::size_t s = tag & mask_;; s = (s + 1) & mask_) {
      const Slot slot = slots_[s];
      if (slot.group == kNoRow ||
          (slot.tag == tag && GroupKeyEquals(slot.group, key))) {
        return s;
      }
    }
  }

  /// The group of `key` (positions_.size() ids), created empty if new.
  uint32_t FindOrAddGroup(std::span<const ConstId> key) {
    const uint32_t tag = TagOf(key);
    const std::size_t s = FindSlot(key, tag);
    if (slots_[s].group != kNoRow) return slots_[s].group;
    const auto group = static_cast<uint32_t>(groups_.size());
    keys_.insert(keys_.end(), key.begin(), key.end());
    groups_.emplace_back();
    slots_[s] = Slot{tag, group};
    if (groups_.size() * 2 > slots_.size()) ResizeSlots(slots_.size() * 2);
    return group;
  }

  const Relation<P>* rel_;
  std::vector<int> positions_;
  IndexKind kind_;
  IndexRepr repr_ = IndexRepr::kHashMap;
  // Hash tier: slots_ maps keys to group ids (mask_ == slots_.size() - 1);
  // group g's key is keys_[g*k, (g+1)*k) and its entry list groups_[g].
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::vector<ConstId> keys_;
  std::vector<EntryList> groups_;
  // Direct tier: buckets_[key - base_], span_ == buckets_.size().
  uint32_t base_ = 0;
  uint64_t span_ = 0;
  std::vector<EntryList> buckets_;
  // Empty-key tier.
  EntryList all_;
  uint32_t indexed_rows_ = 0;
  uint64_t rows_scanned_ = 0;
};

/// Memoizes RelationIndexes keyed by (relation identity, position set).
/// A cached index is reused only while the relation's version is unchanged
/// — i.e. the relation has not been mutated since the index was built — so
/// EDB indexes survive an entire fixpoint run and IDB indexes survive all
/// rule evaluations within one ICO application. An index holds row ids
/// into the relation's columnar storage; the version guard ensures they
/// are only ever decoded while they are valid (mutation, Compact and Clear
/// all bump the version), and entries for mutated or destroyed relations
/// become unreachable (uids are never reused).
template <Pops P>
class IndexCache {
 public:
  /// Index-tier policy for every index built through this cache. Set
  /// before the first Get (the engine does, at construction).
  void set_kind(IndexKind kind) { kind_ = kind; }

  /// Returns an index of `rel` on `positions`, building it if no current
  /// one is cached. The reference stays valid until `rel` is mutated, the
  /// cache is cleared, or MaybeEvict() runs — Get itself never evicts, so
  /// references obtained during one joining step cannot be invalidated by
  /// later lookups in that same step.
  ///
  /// `pin` marks the entry eviction-exempt: the engine pins EDB entries,
  /// which never mutate during a run, so an EDB index that falls idle
  /// for a while (e.g. one only a lower stratum's rules or an Update
  /// seed read) is never evicted and then fully re-scanned.
  ///
  /// A version mismatch does not always mean a scan: when the relation
  /// reports no hard discontinuity since the entry's version, the cached
  /// index is *refreshed* — appended rows only, or reset-and-reappend
  /// after a Clear + refill cycle — instead of rebuilt. Refreshes still
  /// count into builds() (keeping the build/hit counters bit-identical
  /// to the rebuild-everything behaviour); the appended rows count into
  /// incremental_appends() so journals show the rebuild work saved.
  const RelationIndex<P>& Get(const Relation<P>& rel,
                              const std::vector<int>& positions,
                              bool pin = false) {
    // Two-level lookup (uid, then a linear scan of the few position sets a
    // predicate is ever joined on) keeps cache hits allocation-free; the
    // positions vector is copied only when an index is first built.
    std::vector<Entry>& entries = cache_[rel.uid()];
    for (Entry& e : entries) {
      if (e.positions != positions) continue;
      e.pinned = e.pinned || pin;
      if (e.version == rel.version()) {
        ++hits_;
        e.last_used = sweep_;
        return *e.index;
      }
      ++builds_;
      if (!RefreshEntry(rel, &e)) {
        // Build before updating the entry: a throwing constructor must
        // not leave the stale index tagged with the fresh version.
        auto rebuilt =
            std::make_unique<RelationIndex<P>>(rel, positions, kind_);
        scan_rows_ += rebuilt->rows_scanned();
        e.index = std::move(rebuilt);
      }
      e.version = rel.version();
      e.last_used = sweep_;
      return *e.index;
    }
    ++builds_;
    // Growing `entries` may relocate other Entry objects, but never the
    // heap RelationIndexes that outstanding Get() references point to.
    entries.push_back(
        Entry{positions, rel.version(),
              std::make_unique<RelationIndex<P>>(rel, positions, kind_),
              sweep_, pin});
    scan_rows_ += entries.back().index->rows_scanned();
    return *entries.back().index;
  }

  /// Eviction — call only when no Get() references are live (e.g. between
  /// fixpoint iterations, which also advances the "recently used" epoch).
  /// Callers that index short-lived relations orphan their entries — each
  /// a fully built index the size of its relation — so everything idle for
  /// a full epoch is dropped; hot (persistent-delta) indexes are looked up
  /// every epoch and survive, and pinned (EDB) entries are exempt.
  void MaybeEvict() {
    ++sweep_;
    for (auto it = cache_.begin(); it != cache_.end();) {
      std::erase_if(it->second, [this](const Entry& e) {
        return !e.pinned && e.last_used + 1 < sweep_;
      });
      it = it->second.empty() ? cache_.erase(it) : std::next(it);
    }
  }

  void Clear() { cache_.clear(); }

  /// Number of indexes constructed or refreshed through this cache.
  uint64_t builds() const { return builds_; }
  /// Number of lookups served without rebuilding.
  uint64_t hits() const { return hits_; }
  /// Rows appended to cached indexes by incremental refreshes — each one
  /// a row the rebuild path would have re-scanned along with its whole
  /// relation.
  uint64_t incremental_appends() const { return incremental_appends_; }
  /// Rows examined by index build/refresh scans through this cache (cache
  /// hits contribute nothing — the "hit path never scans" assertion
  /// surface).
  uint64_t scan_rows() const { return scan_rows_; }

 private:
  struct Entry {
    std::vector<int> positions;
    uint64_t version;
    std::unique_ptr<RelationIndex<P>> index;
    uint64_t last_used = 0;  ///< sweep epoch of the most recent lookup
    bool pinned = false;     ///< eviction-exempt (EDB entries)
  };

  /// Tries the incremental-refresh paths; returns true iff the cached
  /// index was brought current without a rebuild.
  bool RefreshEntry(const Relation<P>& rel, Entry* e) {
    if (rel.hard_version() > e->version) return false;
    const uint64_t scans_before = e->index->rows_scanned();
    const uint32_t rows_before = e->index->indexed_rows();
    bool ok;
    uint32_t appended;
    if (rel.clear_version() > e->version) {
      ok = e->index->ResetAndReappend();
      appended = ok ? e->index->indexed_rows() : 0;
    } else {
      ok = e->index->AppendNewRows();
      appended = ok ? e->index->indexed_rows() - rows_before : 0;
    }
    if (ok) {
      incremental_appends_ += appended;
      scan_rows_ += e->index->rows_scanned() - scans_before;
    }
    return ok;
  }

  IndexKind kind_ = IndexKind::kAuto;
  std::unordered_map<uint64_t, std::vector<Entry>> cache_;
  uint64_t sweep_ = 0;
  uint64_t builds_ = 0;
  uint64_t hits_ = 0;
  uint64_t incremental_appends_ = 0;
  uint64_t scan_rows_ = 0;
};

}  // namespace datalogo

#endif  // DATALOGO_RELATION_RELATION_H_
