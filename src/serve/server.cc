#include "serve/server.h"

#include <chrono>

#include "obs/trace.h"

namespace strq {
namespace serve {

namespace {

int64_t LatencyNsSince(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

QueryServer::QueryServer(Alphabet alphabet, ServerOptions options)
    : options_(options),
      db_(std::move(alphabet)),
      cache_(std::make_shared<AtomCache>(db_.alphabet())),
      planner_(std::make_shared<plan::Planner>(options.planner)) {
  InstallCommitHook();
}

QueryServer::QueryServer(Database initial, ServerOptions options)
    : options_(options),
      db_(std::move(initial)),
      cache_(std::make_shared<AtomCache>(db_.alphabet())),
      planner_(std::make_shared<plan::Planner>(options.planner)) {
  InstallCommitHook();
}

void QueryServer::InstallCommitHook() {
  // Every commit (whatever API produced it) reclaims the cache entries
  // that only snapshots it just orphaned could read.
  db_.SetCommitHook([this](const CommitDelta&) { ReclaimDeadSnapshots(); });
}

QueryServer::~QueryServer() { db_.SetCommitHook(nullptr); }

Result<CommitDelta> QueryServer::CommitDeltas(
    const std::vector<TupleDelta>& ops) {
  return db_.ApplyDeltas(ops);
}

std::unique_ptr<Session> QueryServer::OpenSession() {
  sessions_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::kServeSessions);
  return std::unique_ptr<Session>(new Session(this));
}

void QueryServer::Ticket::Release() {
  if (server_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(server_->adm_mu_);
    --server_->active_;
  }
  server_->adm_cv_.notify_one();
  server_ = nullptr;
}

Result<QueryServer::Ticket> QueryServer::Admit(const RequestBudget& budget) {
  if (options_.max_concurrent <= 0) return Ticket(nullptr);
  std::unique_lock<std::mutex> lock(adm_mu_);
  if (active_ < options_.max_concurrent) {
    ++active_;
    return Ticket(this);
  }
  if (options_.max_queued >= 0 && queued_ >= options_.max_queued) {
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::kServeAdmissionRejects);
    return ResourceExhaustedError("admission queue full");
  }
  ++queued_;
  bool admitted;
  if (budget.has_deadline) {
    admitted = adm_cv_.wait_until(lock, budget.deadline, [this] {
      return active_ < options_.max_concurrent;
    });
  } else {
    adm_cv_.wait(lock,
                 [this] { return active_ < options_.max_concurrent; });
    admitted = true;
  }
  --queued_;
  if (!admitted) {
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::kServeAdmissionRejects);
    return DeadlineExceededError("deadline expired waiting for admission");
  }
  ++active_;
  return Ticket(this);
}

Result<TrackAutomaton> QueryServer::CompileShared(Session& session,
                                                  const FormulaPtr& f) {
  AutomataEvaluator& eval = *session.eval_;
  const Database* db = &session.snapshot_.db();
  auto outcome = answers_.Get(
      {db->revision(), planner_->QueryKey(f, db)},
      [&] { return CompiledEntry{f, eval.Compile(f)}; },
      [](const CompiledEntry& entry) { return entry.result.ok(); });
  if (outcome.leader) return outcome.value->result;
  // The hashed key collided with a different formula: compile privately
  // (the plan cache and the store's computed table still help).
  if (!StructurallyEqual(outcome.value->formula, f)) return eval.Compile(f);
  const Result<TrackAutomaton>& shared = outcome.value->result;
  if (!outcome.waited) {
    answer_hits_.fetch_add(1, std::memory_order_relaxed);
    return shared;
  }
  // A leader that died of its OWN budget (deadline/state ceiling) says
  // nothing about what this request's budget allows.
  if (!shared.ok() &&
      (shared.status().code() == StatusCode::kDeadlineExceeded ||
       shared.status().code() == StatusCode::kResourceExhausted)) {
    return eval.Compile(f);
  }
  dedup_hits_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::kServeInflightDedupHits);
  return shared;
}

size_t QueryServer::ReclaimDeadSnapshots() {
  // Pin the head before listing live revisions: a revision pinned later is
  // no older than this head, so it reads no stamp older than the head's.
  DbSnapshot head = db_.Snapshot();
  const std::vector<int64_t> live = db_.LiveRevisions();
  answers_.EraseDeadRevisions(live);
  planner_->EvictDeadRevisions(live);
  size_t evicted =
      cache_->EvictRevisionEntries(live, head.db().relation_revisions());
  if (evicted > 0) {
    entries_reclaimed_.fetch_add(static_cast<int64_t>(evicted),
                                 std::memory_order_relaxed);
    obs::Count(obs::kServeSnapshotsReclaimed,
               static_cast<int64_t>(evicted));
    obs::Count(obs::kSnapshotReclaimed, static_cast<int64_t>(evicted));
  }
  return evicted;
}

QueryServer::Stats QueryServer::stats() const {
  Stats s;
  s.sessions = sessions_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  s.inflight_dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  s.answer_hits = answer_hits_.load(std::memory_order_relaxed);
  s.answer_entries = static_cast<int64_t>(answers_.size());
  s.budget_rejects = budget_rejects_.load(std::memory_order_relaxed);
  s.entries_reclaimed = entries_reclaimed_.load(std::memory_order_relaxed);
  s.live_pins = static_cast<int64_t>(db_.pinned_revisions());
  return s;
}

Session::Session(QueryServer* server) : server_(server) {
  Refresh();
}

void Session::Refresh() {
  snapshot_ = server_->versioned_db().Snapshot();
  eval_ = std::make_unique<AutomataEvaluator>(
      &snapshot_.db(), server_->atom_cache(), server_->planner());
  eval_->set_parallel_options(parallel_);
}

void Session::set_parallel_options(ParallelOptions options) {
  parallel_ = options;
  eval_->set_parallel_options(options);
}

RequestBudget Session::MakeBudget() const {
  RequestBudget budget;
  if (budget_.timeout.count() > 0) {
    budget.deadline = std::chrono::steady_clock::now() + budget_.timeout;
    budget.has_deadline = true;
  }
  budget.max_product_states = budget_.max_product_states;
  budget.max_answer_tuples = budget_.max_answer_tuples;
  return budget;
}

template <typename Fn>
auto Session::Serve(Fn&& body) -> decltype(body()) {
  auto start = std::chrono::steady_clock::now();
  server_->requests_.fetch_add(1, std::memory_order_relaxed);
  obs::Count(obs::kServeRequests);
  RequestBudget budget = MakeBudget();
  // Queue wait is recorded on its own histogram; serve.latency_ns stays
  // end-to-end, so service time = latency − queue_wait.
  Result<QueryServer::Ticket> ticket = server_->Admit(budget);
  obs::Observe(obs::kHistServeQueueWaitNs, LatencyNsSince(start));
  if (!ticket.ok()) {
    obs::Observe(obs::kHistServeLatencyNs, LatencyNsSince(start));
    return ticket.status();
  }
  ScopedRequestBudget scope(&budget);
  auto result = body();
  if (!result.ok() &&
      (result.status().code() == StatusCode::kDeadlineExceeded ||
       result.status().code() == StatusCode::kResourceExhausted)) {
    server_->budget_rejects_.fetch_add(1, std::memory_order_relaxed);
    obs::Count(obs::kServeBudgetRejects);
  }
  obs::Observe(obs::kHistServeLatencyNs, LatencyNsSince(start));
  return result;
}

Result<Relation> Session::Query(const FormulaPtr& f, size_t max_tuples) {
  return Serve([&]() -> Result<Relation> {
    auto start = std::chrono::steady_clock::now();
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, server_->CompileShared(*this, f));
    // Mirror AutomataEvaluator::Evaluate's enumeration (and its metrics) so
    // served answers are bit-identical to direct evaluation; the session
    // budget's tuple cap applies through CurrentMaxAnswerTuples.
    obs::Span span("eval.enumerate");
    span.Attr("answer_states", rel.NumStates());
    Result<std::vector<std::vector<std::string>>> tuples =
        rel.AllTuples(CurrentMaxAnswerTuples(max_tuples));
    if (!tuples.ok()) return tuples.status();
    span.Attr("tuples", static_cast<int64_t>(tuples->size()));
    obs::Count(obs::kEvalTuplesEnumerated,
               static_cast<int64_t>(tuples->size()));
    obs::Observe(obs::kHistQueryLatencyNs, LatencyNsSince(start));
    return Relation::Create(rel.arity(), *std::move(tuples));
  });
}

Result<bool> Session::QuerySentence(const FormulaPtr& f) {
  return Serve([&]() -> Result<bool> {
    if (!FreeVars(f).empty()) {
      return InvalidArgumentError("sentence expected, found free variables");
    }
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, server_->CompileShared(*this, f));
    return rel.TruthValue();
  });
}

Result<TrackAutomaton> Session::Compile(const FormulaPtr& f) {
  return Serve([&]() -> Result<TrackAutomaton> {
    return server_->CompileShared(*this, f);
  });
}

Result<bool> Session::Contains(const FormulaPtr& f,
                               const std::vector<std::string>& tuple) {
  return Serve([&]() -> Result<bool> { return eval_->Contains(f, tuple); });
}

Result<std::optional<std::vector<std::string>>> Session::ExistsWitness(
    const FormulaPtr& f) {
  return Serve([&]() -> Result<std::optional<std::vector<std::string>>> {
    return eval_->ExistsWitness(f);
  });
}

Result<std::vector<std::vector<std::string>>> Session::TopK(
    const FormulaPtr& f, size_t k, int max_len) {
  return Serve([&]() -> Result<std::vector<std::vector<std::string>>> {
    return eval_->TopK(f, k, max_len);
  });
}

Result<bool> Session::IsSafe(const FormulaPtr& f) {
  return Serve([&]() -> Result<bool> {
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, server_->CompileShared(*this, f));
    return rel.IsFinite();
  });
}

}  // namespace serve
}  // namespace strq
