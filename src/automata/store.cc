#include "automata/store.h"

#include <atomic>

#include "automata/ops.h"
#include "base/budget.h"
#include "obs/trace.h"

namespace strq {

namespace {

// Intern ids are drawn from one process-global counter so that ids issued
// by different stores (or by the same store across Clear()) never collide.
uint64_t NextInternId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Approximate heap footprint of one retained table entry (hash node, key,
// handle). Exact malloc overhead is allocator-specific; fixed charges keep
// the gauge proportional and its conservation exact (every insert's charge
// is returned on Clear/destruction).
constexpr int64_t kUniqueEntryBytes = 64;
constexpr int64_t kComputedEntryBytes = 96;
constexpr int64_t kDecidedEntryBytes = 64;

int64_t InternedDfaBytes(const Dfa& dfa) {
  return static_cast<int64_t>(sizeof(Dfa)) + dfa.TableBytesCondensed();
}

}  // namespace

internal::InternedDfa::~InternedDfa() {
  if (profile) obs::MemAdd(obs::MemCategory::kStore, -profile->bytes());
}

const AcceptProfile& DfaRef::Profile() const {
  std::call_once(payload_->profile_once, [this] {
    payload_->profile = std::make_unique<const AcceptProfile>(payload_->dfa);
    obs::MemAdd(obs::MemCategory::kStore, payload_->profile->bytes());
    obs::Count(obs::kStoreProfilesBuilt);
  });
  return *payload_->profile;
}

const AutomatonStore& AutomatonStore::Default() {
  static AutomatonStore* store = new AutomatonStore(true);
  return *store;
}

void AutomatonStore::AddBytes(int64_t delta) const {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes += delta;
  }
  obs::MemAdd(obs::MemCategory::kStore, delta);
}

void AutomatonStore::CountUnique(bool hit) const {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (hit) {
      ++stats_.unique_hits;
    } else {
      ++stats_.unique_misses;
    }
  }
  obs::Count(hit ? obs::kStoreUniqueHits : obs::kStoreUniqueMisses);
}

void AutomatonStore::CountOp(bool hit) const {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (hit) {
      ++stats_.op_hits;
    } else {
      ++stats_.op_misses;
    }
  }
  obs::Count(hit ? obs::kStoreOpHits : obs::kStoreOpMisses);
}

DfaRef AutomatonStore::InternCanonical(Dfa canonical) const {
  if (!caching_enabled_) {
    CountUnique(false);
    return DfaRef(std::make_shared<const internal::InternedDfa>(
                      std::move(canonical)),
                  NextInternId());
  }
  uint64_t hash = canonical.StructuralHash();
  UniqueStripe& stripe = UniqueStripeFor(hash);
  uint64_t id = 0;
  std::shared_ptr<const internal::InternedDfa> payload;
  int64_t added = 0;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto [lo, hi] = stripe.entries.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.second->dfa.StructurallyEqual(canonical)) {
        CountUnique(true);
        return DfaRef(it->second.second, it->second.first);
      }
    }
    id = NextInternId();
    payload = std::make_shared<const internal::InternedDfa>(
        std::move(canonical));
    stripe.entries.emplace(hash, std::make_pair(id, payload));
    added = InternedDfaBytes(payload->dfa) + kUniqueEntryBytes;
  }
  CountUnique(false);
  AddBytes(added);
  return DfaRef(std::move(payload), id);
}

DfaRef AutomatonStore::Intern(const Dfa& dfa) const {
  return InternCanonical(dfa.Minimized());
}

DfaRef AutomatonStore::InternWords(
    int alphabet_size, const std::vector<std::vector<Symbol>>& words) const {
  return InternCanonical(Dfa::MinimalFromWords(alphabet_size, words));
}

std::optional<DfaRef> AutomatonStore::Lookup(const OpKey& key) const {
  if (caching_enabled_) {
    OpStripe& stripe = OpStripeFor(key);
    std::unique_lock<std::mutex> lock(stripe.mu);
    auto it = stripe.computed.find(key);
    if (it != stripe.computed.end()) {
      DfaRef hit = it->second;
      lock.unlock();
      CountOp(true);
      return hit;
    }
  }
  CountOp(false);
  return std::nullopt;
}

void AutomatonStore::Memoize(const OpKey& key, const DfaRef& value) const {
  if (!caching_enabled_ || !value) return;
  OpStripe& stripe = OpStripeFor(key);
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    inserted = stripe.computed.emplace(key, value).second;
  }
  if (inserted) {
    AddBytes(kComputedEntryBytes +
             static_cast<int64_t>(key.params.size() * sizeof(int64_t)));
  }
}

Result<DfaRef> AutomatonStore::BinaryOp(int op, const DfaRef& a,
                                        const DfaRef& b,
                                        int max_states) const {
  if (!a || !b) return InvalidArgumentError("null DfaRef operand");
  // Resolve the effective product budget up front so the memoization policy
  // and the kernel agree on one number. 0 means "whatever the request says".
  int effective = max_states > 0
                      ? max_states
                      : CurrentMaxProductStates(kDefaultMaxProductStates);
  bool budgeted = effective < kDefaultMaxProductStates;
  // Commutative ops: normalize the operand order so (a,b) and (b,a) share
  // one computed-table entry.
  uint64_t ia = a.id();
  uint64_t ib = b.id();
  const Dfa* da = &*a;
  const Dfa* db = &*b;
  if ((op == kOpIntersect || op == kOpUnion) && ia > ib) {
    std::swap(ia, ib);
    std::swap(da, db);
  }
  // A memoized full result is exact no matter what the current budget is, so
  // the canonical (budget-free) key is always consulted first. The peek is
  // manual rather than Lookup() so an exhausted-memo hit below is not also
  // charged as an op miss — it IS answered from memo.
  OpKey key{op, ia, ib, {}};
  if (caching_enabled_) {
    OpStripe& stripe = OpStripeFor(key);
    std::unique_lock<std::mutex> lock(stripe.mu);
    auto it = stripe.computed.find(key);
    if (it != stripe.computed.end()) {
      DfaRef hit = it->second;
      lock.unlock();
      CountOp(true);
      return hit;
    }
  }
  if (budgeted && caching_enabled_) {
    OpKey exhausted_key{op, ia, ib, {effective}};
    OpStripe& stripe = OpStripeFor(exhausted_key);
    bool fail_fast = false;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      fail_fast = stripe.exhausted.count(exhausted_key) > 0;
    }
    if (fail_fast) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.exhausted_hits;
      }
      obs::Count(obs::kStoreExhaustedHits);
      return ResourceExhaustedError(
          "product state budget exhausted (memoized)");
    }
  }
  CountOp(false);

  Result<Dfa> raw = op == kOpIntersect
                        ? strq::Intersect(*da, *db, effective)
                    : op == kOpUnion ? strq::Union(*da, *db, effective)
                                     : strq::Difference(*da, *db, effective);
  if (!raw.ok()) {
    // Running out of the requested budget is a property of (op, operands,
    // budget) and is safe to replay — but only to callers with the SAME
    // effective budget; an unbudgeted caller must get the real product. A
    // deadline abort says nothing about the operands and is never memoized.
    if (budgeted && caching_enabled_ &&
        raw.status().code() == StatusCode::kResourceExhausted) {
      OpKey exhausted_key{op, ia, ib, {effective}};
      OpStripe& stripe = OpStripeFor(exhausted_key);
      bool inserted = false;
      {
        std::lock_guard<std::mutex> lock(stripe.mu);
        inserted = stripe.exhausted.insert(exhausted_key).second;
      }
      if (inserted) AddBytes(kDecidedEntryBytes);
    }
    return raw.status();
  }
  DfaRef out = Intern(*raw);
  Memoize(key, out);
  return out;
}

Result<DfaRef> AutomatonStore::Intersect(const DfaRef& a, const DfaRef& b,
                                         int max_states) const {
  return BinaryOp(kOpIntersect, a, b, max_states);
}

Result<DfaRef> AutomatonStore::Union(const DfaRef& a, const DfaRef& b,
                                     int max_states) const {
  return BinaryOp(kOpUnion, a, b, max_states);
}

Result<DfaRef> AutomatonStore::Difference(const DfaRef& a, const DfaRef& b,
                                          int max_states) const {
  return BinaryOp(kOpDifference, a, b, max_states);
}

Result<bool> AutomatonStore::IsIntersectionEmpty(const DfaRef& a,
                                                 const DfaRef& b) const {
  if (!a || !b) return InvalidArgumentError("null DfaRef operand");
  uint64_t ia = a.id();
  uint64_t ib = b.id();
  const Dfa* da = &*a;
  const Dfa* db = &*b;
  if (ia > ib) {
    std::swap(ia, ib);
    std::swap(da, db);
  }
  OpKey key{kOpIntersectEmpty, ia, ib, {}};
  if (caching_enabled_) {
    // A materialized intersection already knows the answer. Note the product
    // key and the verdict key generally live in different stripes; two short
    // lock sections, never held together.
    OpKey product_key{kOpIntersect, ia, ib, {}};
    {
      OpStripe& stripe = OpStripeFor(product_key);
      std::unique_lock<std::mutex> lock(stripe.mu);
      auto mat = stripe.computed.find(product_key);
      if (mat != stripe.computed.end()) {
        bool empty = mat->second->IsEmpty();
        lock.unlock();
        CountOp(true);
        return empty;
      }
    }
    {
      OpStripe& stripe = OpStripeFor(key);
      std::unique_lock<std::mutex> lock(stripe.mu);
      auto it = stripe.decided.find(key);
      if (it != stripe.decided.end()) {
        bool empty = it->second;
        lock.unlock();
        CountOp(true);
        return empty;
      }
    }
    CountOp(false);
  }
  STRQ_ASSIGN_OR_RETURN(bool empty, strq::IntersectionEmpty(*da, *db));
  if (caching_enabled_) {
    OpStripe& stripe = OpStripeFor(key);
    bool inserted = false;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      inserted = stripe.decided.emplace(key, empty).second;
    }
    if (inserted) AddBytes(kDecidedEntryBytes);
  }
  return empty;
}

DfaRef AutomatonStore::Complemented(const DfaRef& a) const {
  if (!a) return DfaRef();
  OpKey key{kOpComplement, a.id(), 0, {}};
  if (std::optional<DfaRef> hit = Lookup(key)) return *hit;
  DfaRef out = Intern(a->Complemented());
  Memoize(key, out);
  // The complement of a minimal DFA is minimal, so complementation is an
  // involution on interned handles; prime the reverse entry too.
  Memoize(OpKey{kOpComplement, out.id(), 0, {}}, a);
  return out;
}

AutomatonStore::Stats AutomatonStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

size_t AutomatonStore::unique_size() const {
  size_t n = 0;
  for (UniqueStripe& stripe : unique_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    n += stripe.entries.size();
  }
  return n;
}

size_t AutomatonStore::computed_size() const {
  size_t n = 0;
  for (OpStripe& stripe : op_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    n += stripe.computed.size();
  }
  return n;
}

void AutomatonStore::Clear() const {
  for (UniqueStripe& stripe : unique_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.entries.clear();
  }
  for (OpStripe& stripe : op_stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.computed.clear();
    stripe.decided.clear();
    stripe.exhausted.clear();
  }
  int64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    released = stats_.bytes;
    stats_.bytes = 0;
  }
  obs::MemAdd(obs::MemCategory::kStore, -released);
}

AutomatonStore::~AutomatonStore() {
  // Return this store's retained bytes to the process-wide gauge (local
  // stores come and go; the gauge must conserve).
  obs::MemAdd(obs::MemCategory::kStore, -stats_.bytes);
}

}  // namespace strq
