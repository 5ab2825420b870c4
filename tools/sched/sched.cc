#include "sched/sched.h"

// The machinery beneath the sanctioned primitives. Like util/sync.h, this
// file is allowed to touch raw std synchronization: it implements the
// cooperative scheduler the wrappers defer to, so it cannot itself be built
// on the wrappers (a modeled mutex modeling itself would recurse). The
// raw-primitive lint rules carve out tools/sched/ for exactly this reason.
//
// Threading model: one schedule = one Runner. The controller (the thread
// that called Explore) and every task thread share one std::mutex `m_` and
// one condition variable; `token_` says who may run. Exactly one thread is
// ever outside a cv wait: the token holder. Task threads park inside
// AnnounceAndWait at each visible operation; the controller parks in
// GrantAndWait while a task runs. This is what makes exploration
// deterministic — the OS scheduler has no say in anything the model can
// observe.

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/assert.h"

namespace lsbench {
namespace sched {
namespace {

/// Thrown out of a modeled CondVar::Wait when the schedule is abandoned
/// (deadlock, livelock, prune): a drained task re-entering a predicate loop
/// would spin forever, so the wait must unwind the body. This is the ONLY
/// place the engine throws through model code — a parked mutex *unlock* sits
/// inside a noexcept RAII destructor where any exception is std::terminate,
/// which is why abandonment otherwise uses the drain protocol (see Poison)
/// instead of exceptions.
struct SchedAbort {};

constexpr int kController = -1;
constexpr int kPrune = -2;

/// One announced-but-not-yet-executed visible operation.
struct PendingOp {
  SchedOp kind = SchedOp::kYield;
  const void* obj = nullptr;   ///< Primary object (atomic, mutex, condvar).
  const void* obj2 = nullptr;  ///< CondWait: the mutex it releases.
};

const char* KindName(SchedOp op) {
  switch (op) {
    case SchedOp::kAtomicLoad: return "atomic-load";
    case SchedOp::kAtomicStore: return "atomic-store";
    case SchedOp::kAtomicRmw: return "atomic-rmw";
    case SchedOp::kMutexLock: return "mutex-lock";
    case SchedOp::kMutexUnlock: return "mutex-unlock";
    case SchedOp::kCondWait: return "cond-wait";
    case SchedOp::kCondSignal: return "cond-signal";
    case SchedOp::kYield: return "yield";
  }
  return "?";
}

/// Dependence relation for the sleep-set reduction. Conservative: any two
/// operations sharing an object conflict unless both are atomic loads.
/// CondWait carries the mutex it releases as a second object, so its
/// enabling effect on pending lockers is covered; MutexUnlock conflicts
/// with pending locks of the same mutex for the same reason. Over-
/// approximating dependence only costs exploration time, never soundness.
bool Conflicts(const PendingOp& a, const PendingOp& b) {
  const auto share = [](const void* x, const void* y) {
    return x != nullptr && x == y;
  };
  if (!share(a.obj, b.obj) && !share(a.obj, b.obj2) &&
      !share(a.obj2, b.obj) && !share(a.obj2, b.obj2)) {
    return false;
  }
  return !(a.kind == SchedOp::kAtomicLoad && b.kind == SchedOp::kAtomicLoad);
}

class Runner;

/// The util-layer hook target for one task thread: forwards to the Runner
/// with the task id baked in.
class TaskObserver : public SchedObserver {
 public:
  void SchedPoint(SchedOp op, const void* obj) override;
  void MutexLock(void* mu) override;
  void MutexUnlock(void* mu) override;
  void CondWait(void* cv, void* mu) override;
  void CondSignal(void* cv, bool all) override;

  Runner* runner = nullptr;
  int id = -1;
};

/// Executes ONE schedule of a model: spawns the task threads, serializes
/// them, asks `decide` which enabled task runs at each decision point, and
/// reports the outcome. Fresh per schedule — model state is rebuilt by
/// Model::setup each time, so re-execution is a pure function of the
/// decisions.
class Runner {
 public:
  struct DecideCtx {
    std::vector<int> enabled;        ///< Task ids runnable now, ascending.
    std::vector<PendingOp> pending;  ///< Pending op per task id.
    int last_running = kController;  ///< Task granted at the previous step.
  };

  struct Outcome {
    std::vector<int> path;  ///< Decision string actually taken.
    bool pruned = false;    ///< Abandoned by the reduction, not a real run.
  };

  explicit Runner(const Model& model) : model_(model) {
    tasks_.resize(model.tasks.size());
    for (size_t i = 0; i < tasks_.size(); ++i) {
      tasks_[i].observer.runner = this;
      tasks_[i].observer.id = static_cast<int>(i);
    }
  }

  /// Runs the schedule. `decide` may return kPrune to abandon it.
  Outcome Run(const std::function<int(const DecideCtx&)>& decide,
              uint64_t max_steps);

  /// First violation recorded by sched::Check / the controller, if any.
  const std::optional<Violation>& violation() const { return violation_; }

  /// Records a violation with the current decision prefix (first wins).
  void RecordViolation(const std::string& message) {
    std::lock_guard<std::mutex> lock(violation_m_);
    if (!violation_) violation_ = Violation{message, PathString(path_)};
  }

  static std::string PathString(const std::vector<int>& path) {
    std::ostringstream out;
    for (size_t i = 0; i < path.size(); ++i) {
      if (i > 0) out << '.';
      out << path[i];
    }
    return out.str();
  }

 private:
  friend class TaskObserver;

  struct Task {
    TaskObserver observer;
    bool done = false;
    bool has_pending = false;
    PendingOp pending;
    const void* waiting_cv = nullptr;  ///< Parked on this condvar.
  };

  void TaskMain(int id) {
    SetSchedHook(&tasks_[static_cast<size_t>(id)].observer);
    bool run_body = true;
    {
      std::unique_lock<std::mutex> l(m_);
      cv_.wait(l, [&] { return token_ == id; });
      run_body = !poison_;
    }
    if (run_body) {
      try {
        model_.tasks[static_cast<size_t>(id)]();
      } catch (const SchedAbort&) {
      }
    }
    SetSchedHook(nullptr);
    std::unique_lock<std::mutex> l(m_);
    tasks_[static_cast<size_t>(id)].done = true;
    tasks_[static_cast<size_t>(id)].has_pending = false;
    token_ = kController;
    cv_.notify_all();
  }

  /// Publishes the task's next visible op and parks until granted again.
  /// Called with `l` held; returns with `l` held and the token owned.
  /// Returns false when the grant is a drain grant (schedule abandoned):
  /// the caller must skip its model updates — and, crucially, must NOT
  /// throw, because an unlock announce sits inside a noexcept destructor.
  bool AnnounceAndWait(std::unique_lock<std::mutex>& l, int id,
                       const PendingOp& op) {
    Task& task = tasks_[static_cast<size_t>(id)];
    task.pending = op;
    task.has_pending = true;
    token_ = kController;
    cv_.notify_all();
    cv_.wait(l, [&] { return token_ == id; });
    task.has_pending = false;
    return !poison_;
  }

  /// Hands the token to `id` and parks the controller until it comes back
  /// (next announcement or task completion).
  void GrantAndWait(int id) {
    std::unique_lock<std::mutex> l(m_);
    if (tasks_[static_cast<size_t>(id)].done) return;
    token_ = id;
    cv_.notify_all();
    cv_.wait(l, [&] { return token_ == kController; });
  }

  /// Whether task `t` could execute its pending op right now.
  bool EnabledLocked(size_t t) const {
    const Task& task = tasks_[t];
    if (task.done || !task.has_pending) return false;
    if (task.waiting_cv != nullptr) return false;  // Awaiting a signal.
    const PendingOp& p = task.pending;
    // A lock, including a condvar's post-wait reacquire, waits for a free
    // mutex.
    if (p.kind == SchedOp::kMutexLock && mutex_owner_.count(p.obj) != 0) {
      return false;
    }
    return true;
  }

  /// Abandons the schedule: the drain protocol. Every parked task is
  /// granted the token ONE AT A TIME (Run's drain loop) and runs its body
  /// to completion with the hooks in no-op mode — modeled locks are
  /// bypassed, nothing announces, nothing parks. Serialized draining means
  /// the bypassed locks cannot race; the (now meaningless) model state is
  /// discarded with the schedule. No exceptions are involved except inside
  /// CondVar::Wait, whose predicate loop would otherwise spin.
  void Poison() {
    std::unique_lock<std::mutex> l(m_);
    poison_ = true;
  }

  // --- Observer entry points (run on task threads, id = the caller). ---

  // Each entry checks poison_ twice: once on entry (the task is already in
  // drain mode and must not announce) and once on the grant that woke it
  // (AnnounceAndWait returning false — the wake IS the drain). Both paths
  // return without touching the model and, except for CondVar::Wait, never
  // throw: MutexUnlock runs inside a noexcept RAII destructor.

  void OnSchedPoint(int id, SchedOp op, const void* obj) {
    std::unique_lock<std::mutex> l(m_);
    if (poison_) return;
    (void)AnnounceAndWait(l, id, PendingOp{op, obj, nullptr});
    // The caller performs the atomic op / yield itself, token in hand.
    // A drain grant changes nothing: the real operation is still safe to
    // run, since drained tasks execute one at a time.
  }

  void OnMutexLock(int id, void* mu) {
    std::unique_lock<std::mutex> l(m_);
    if (poison_) return;
    if (!AnnounceAndWait(l, id, PendingOp{SchedOp::kMutexLock, mu, nullptr})) {
      return;  // Drain: lock bypassed, no ownership recorded.
    }
    // Granted only when free (EnabledLocked); a relock by the owner is a
    // self-deadlock and surfaces via the deadlock detector.
    mutex_owner_[mu] = id;
  }

  void OnMutexUnlock(int id, void* mu) {
    std::unique_lock<std::mutex> l(m_);
    if (poison_) return;
    if (!AnnounceAndWait(l, id,
                         PendingOp{SchedOp::kMutexUnlock, mu, nullptr})) {
      return;  // Drain: ownership table is already meaningless.
    }
    auto it = mutex_owner_.find(mu);
    if (it == mutex_owner_.end() || it->second != id) {
      RecordViolation("model: task " + std::to_string(id) +
                      " unlocked a mutex it does not hold");
      return;
    }
    mutex_owner_.erase(it);
  }

  void OnCondWait(int id, void* cvp, void* mu) {
    std::unique_lock<std::mutex> l(m_);
    // Drain must unwind here, not return: a no-op Wait inside a predicate
    // loop whose condition will never flip is an infinite spin.
    if (poison_) throw SchedAbort{};
    if (!AnnounceAndWait(l, id, PendingOp{SchedOp::kCondWait, cvp, mu})) {
      throw SchedAbort{};
    }
    // Scheduled: atomically release the mutex and join the wait set.
    mutex_owner_.erase(mu);
    tasks_[static_cast<size_t>(id)].waiting_cv = cvp;
    // Parks until signaled + mutex free. On a drain grant the task leaves
    // its Wait without the (modeled) lock — harmless, state is discarded —
    // and a re-entered predicate loop hits the poison check above.
    if (!AnnounceAndWait(l, id, PendingOp{SchedOp::kMutexLock, mu, nullptr})) {
      return;
    }
    mutex_owner_[mu] = id;
  }

  void OnCondSignal(int id, void* cvp, bool /*all*/) {
    std::unique_lock<std::mutex> l(m_);
    if (poison_) return;
    if (!AnnounceAndWait(l, id,
                         PendingOp{SchedOp::kCondSignal, cvp, nullptr})) {
      return;
    }
    // SignalAll semantics either way (sound under predicate loops; keeps
    // the wake-set choice out of the branching factor — see sched.h).
    for (Task& t : tasks_) {
      if (t.waiting_cv == cvp) t.waiting_cv = nullptr;
    }
  }

  const Model& model_;
  std::vector<Task> tasks_;

  std::mutex m_;
  std::condition_variable cv_;
  int token_ = kController;
  bool poison_ = false;
  /// Modeled mutex table: address -> owning task.
  std::map<const void*, int> mutex_owner_;

  std::vector<int> path_;
  int last_running_ = kController;
  std::mutex violation_m_;
  std::optional<Violation> violation_;
};

void TaskObserver::SchedPoint(SchedOp op, const void* obj) {
  runner->OnSchedPoint(id, op, obj);
}
void TaskObserver::MutexLock(void* mu) { runner->OnMutexLock(id, mu); }
void TaskObserver::MutexUnlock(void* mu) { runner->OnMutexUnlock(id, mu); }
void TaskObserver::CondWait(void* cv, void* mu) {
  runner->OnCondWait(id, cv, mu);
}
void TaskObserver::CondSignal(void* cv, bool all) {
  runner->OnCondSignal(id, cv, all);
}

/// The active runner, reachable from sched::Check on any thread. One
/// exploration at a time (asserted in Explore).
Runner* g_runner = nullptr;

Runner::Outcome Runner::Run(
    const std::function<int(const DecideCtx&)>& decide, uint64_t max_steps) {
  Outcome out;
  if (model_.setup) model_.setup();

  std::vector<std::thread> threads;
  threads.reserve(tasks_.size());
  for (size_t i = 0; i < tasks_.size(); ++i) {
    threads.emplace_back(&Runner::TaskMain, this, static_cast<int>(i));
  }

  // Initialization: march each task to its first visible operation (or to
  // completion). Everything before the first announcement is invisible to
  // other tasks, so this phase carries no scheduling decisions and the
  // order is irrelevant — and fixed, for determinism.
  for (size_t i = 0; i < tasks_.size(); ++i) {
    GrantAndWait(static_cast<int>(i));
  }

  bool aborted = false;
  for (;;) {
    DecideCtx ctx;
    bool all_done = true;
    {
      std::unique_lock<std::mutex> l(m_);
      ctx.pending.resize(tasks_.size());
      for (size_t t = 0; t < tasks_.size(); ++t) {
        if (tasks_[t].done) continue;
        all_done = false;
        LSBENCH_ASSERT(tasks_[t].has_pending);
        ctx.pending[t] = tasks_[t].pending;
        if (EnabledLocked(t)) ctx.enabled.push_back(static_cast<int>(t));
      }
      ctx.last_running = last_running_;
    }
    if (all_done) break;
    if (ctx.enabled.empty()) {
      std::ostringstream msg;
      msg << "deadlock: no task can run;";
      {
        std::unique_lock<std::mutex> l(m_);
        for (size_t t = 0; t < tasks_.size(); ++t) {
          if (tasks_[t].done) continue;
          msg << " task " << t << " blocked at "
              << KindName(tasks_[t].pending.kind)
              << (tasks_[t].waiting_cv != nullptr ? " (awaiting signal)"
                                                  : "");
        }
      }
      RecordViolation(msg.str());
      aborted = true;
      break;
    }
    if (path_.size() >= max_steps) {
      RecordViolation("livelock: schedule exceeded " +
                      std::to_string(max_steps) + " decisions");
      aborted = true;
      break;
    }
    const int choice = decide(ctx);
    if (choice == kPrune) {
      out.pruned = true;
      aborted = true;
      break;
    }
    path_.push_back(choice);
    last_running_ = choice;
    GrantAndWait(choice);
  }

  if (aborted) {
    // Drain protocol (see Poison): wake the parked tasks one at a time and
    // let each run to completion before the next — serial, so the bypassed
    // locks cannot race.
    Poison();
    for (size_t i = 0; i < tasks_.size(); ++i) {
      GrantAndWait(static_cast<int>(i));
    }
  }
  for (std::thread& t : threads) t.join();
  if (!aborted && model_.check) model_.check();
  out.path = path_;
  return out;
}

/// Default scheduling preference: keep running the last task (fewest
/// context switches — the first schedule is near-sequential and cheap),
/// then ascending task id.
std::vector<int> OrderedCandidates(const std::vector<int>& enabled,
                                   int last_running) {
  std::vector<int> order;
  order.reserve(enabled.size());
  if (last_running >= 0 &&
      std::find(enabled.begin(), enabled.end(), last_running) !=
          enabled.end()) {
    order.push_back(last_running);
  }
  for (int t : enabled) {
    if (t != last_running) order.push_back(t);
  }
  return order;
}

/// One DFS node: the state observed at a decision point plus the sleep set
/// and the choice currently being explored beneath it.
struct Frame {
  std::vector<int> enabled;
  std::vector<PendingOp> pending;
  int last_running = kController;
  int preemptions = 0;  ///< Involuntary switches consumed before this node.
  std::set<int> sleep;  ///< Tasks whose exploration here is redundant.
  int choice = -1;
};

/// Cost of choosing `candidate` at this node: 1 if it preempts a task that
/// could have continued, else 0.
int PreemptionCost(const Frame& f, int candidate) {
  if (f.last_running < 0 || candidate == f.last_running) return 0;
  return std::find(f.enabled.begin(), f.enabled.end(), f.last_running) !=
                 f.enabled.end()
             ? 1
             : 0;
}

/// First allowed candidate at `f` (not asleep, within the preemption
/// bound), or kPrune when every continuation is redundant or over budget.
int PickChoice(const Frame& f, int preemption_bound) {
  for (int t : OrderedCandidates(f.enabled, f.last_running)) {
    if (f.sleep.count(t) != 0) continue;
    if (preemption_bound >= 0 &&
        f.preemptions + PreemptionCost(f, t) > preemption_bound) {
      continue;
    }
    return t;
  }
  return kPrune;
}

}  // namespace

void Check(bool condition, const std::string& message) {
  if (condition) return;
  LSBENCH_ASSERT(g_runner != nullptr &&
                 "sched::Check outside an exploration");
  g_runner->RecordViolation(message);
}

ExploreResult Explore(const Model& model, const Options& options) {
  LSBENCH_ASSERT(!model.tasks.empty());
  LSBENCH_ASSERT(g_runner == nullptr && "nested exploration");

  ExploreResult result;
  std::vector<Frame> stack;  // Persists across schedules: the DFS spine.

  for (;;) {
    if (result.schedules >= options.max_schedules) {
      result.complete = false;
      break;
    }

    Runner runner(model);
    g_runner = &runner;
    size_t depth = 0;
    bool diverged_model = false;

    const auto decide = [&](const Runner::DecideCtx& ctx) -> int {
      if (depth < stack.size()) {
        // Replaying the committed prefix. The model must present the same
        // state it did last time — catch drift loudly, because a
        // nondeterministic model voids every guarantee this tool makes.
        if (stack[depth].enabled != ctx.enabled) {
          runner.RecordViolation(
              "model is not schedule-deterministic: enabled set changed "
              "across re-execution at depth " +
              std::to_string(depth));
          diverged_model = true;
          return kPrune;
        }
        return stack[depth++].choice;
      }
      Frame f;
      f.enabled = ctx.enabled;
      f.pending = ctx.pending;
      f.last_running = ctx.last_running;
      if (!stack.empty()) {
        const Frame& parent = stack.back();
        f.preemptions =
            parent.preemptions + PreemptionCost(parent, parent.choice);
        // Sleep-set inheritance: a task asleep at the parent stays asleep
        // here unless the parent's executed operation conflicts with it.
        const PendingOp& executed =
            parent.pending[static_cast<size_t>(parent.choice)];
        for (int t : parent.sleep) {
          if (!Conflicts(parent.pending[static_cast<size_t>(t)], executed)) {
            f.sleep.insert(t);
          }
        }
      }
      f.choice = PickChoice(f, options.preemption_bound);
      if (f.choice == kPrune) return kPrune;
      stack.push_back(std::move(f));
      ++depth;
      return stack.back().choice;
    };

    const Runner::Outcome outcome = runner.Run(decide, options.max_steps);
    g_runner = nullptr;
    ++result.schedules;

    if (runner.violation() && !outcome.pruned) {
      result.violation = runner.violation();
      result.complete = false;
      break;
    }
    if (diverged_model) {
      result.violation = runner.violation();
      result.complete = false;
      break;
    }

    // Backtrack: deepest frame with an unexplored, allowed alternative.
    bool advanced = false;
    while (!stack.empty()) {
      Frame& f = stack.back();
      f.sleep.insert(f.choice);  // This subtree is fully explored.
      const int next = PickChoice(f, options.preemption_bound);
      if (next != kPrune) {
        f.choice = next;
        advanced = true;
        break;
      }
      stack.pop_back();
    }
    if (!advanced) {
      result.complete = true;
      break;
    }
  }
  g_runner = nullptr;
  return result;
}

ExploreResult Replay(const Model& model, const std::string& schedule) {
  std::vector<int> decisions;
  std::istringstream in(schedule);
  std::string tok;
  while (std::getline(in, tok, '.')) {
    if (!tok.empty()) decisions.push_back(std::stoi(tok));
  }

  ExploreResult result;
  Runner runner(model);
  LSBENCH_ASSERT(g_runner == nullptr && "nested exploration");
  g_runner = &runner;
  size_t depth = 0;
  const auto decide = [&](const Runner::DecideCtx& ctx) -> int {
    if (depth < decisions.size()) {
      const int choice = decisions[depth++];
      if (std::find(ctx.enabled.begin(), ctx.enabled.end(), choice) ==
          ctx.enabled.end()) {
        runner.RecordViolation(
            "replay: decision " + std::to_string(depth - 1) + " chose task " +
            std::to_string(choice) + ", which is not enabled");
        return kPrune;
      }
      return choice;
    }
    // Past the recorded prefix: deterministic default policy.
    return OrderedCandidates(ctx.enabled, ctx.last_running).front();
  };
  (void)runner.Run(decide, /*max_steps=*/1000000);
  result.schedules = 1;
  result.complete = false;
  result.violation = runner.violation();
  g_runner = nullptr;
  return result;
}

}  // namespace sched
}  // namespace lsbench
