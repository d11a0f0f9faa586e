//! A loom-lite interleaving checker for the lock-free core.
//!
//! This module is the engine behind `sdnfv-check`: a bounded-exhaustive
//! model checker that runs a closure under every schedule a depth-first
//! search over thread interleavings can produce (up to a preemption
//! bound), with an acquire/release-aware memory model in which `Relaxed`
//! and `Acquire` loads may observe *stale* values that the happens-before
//! graph still permits — the class of behavior a unit test on x86 will
//! essentially never exhibit but a weakly-ordered machine (or a compiler)
//! legally can.
//!
//! # How an execution runs
//!
//! [`explore`] spawns one real OS thread per model thread and gives the
//! group a single run token: exactly one thread executes at a time, and
//! every instrumented operation (an atomic access via the
//! [`sync`](crate::sync) facade types, a [`Slot`](crate::sync::Slot)
//! access, [`spawn`]/[`ModelJoinHandle::join`]) is a rendezvous where the
//! running thread applies its effect to the model state and then asks the
//! explorer which thread runs next. The explorer records every
//! choice point (thread choices and load-value choices) on a path; after
//! the execution finishes it backtracks the deepest unexhausted choice and
//! replays, depth-first, until the whole bounded tree is covered.
//!
//! # The memory model (store-buffer / C11-lite)
//!
//! Per atomic location the checker keeps the full store history
//! (modification order). Each thread keeps a *view*: for every location,
//! the oldest store index it is still allowed to observe. A load picks
//! (via the explorer — this is a real branch of the search) any store at
//! or after the view floor; an `Acquire` load that picks a `Release` store
//! joins the storing thread's clock and view (synchronizes-with), which is
//! what makes newer stores to *other* locations mandatory afterwards.
//! Read-modify-writes always read the latest store (C11 atomicity) and
//! continue release sequences. `SeqCst` is approximated as
//! acquire/release-plus-latest-value; no code in this workspace uses
//! `SeqCst` (the invariant lint would make its introduction conspicuous),
//! so the approximation is currently vacuous.
//!
//! Non-atomic shared cells ([`Slot`](crate::sync::Slot)) are checked with
//! thread vector clocks: two accesses to the same slot, at least one a
//! write, not ordered by happens-before, abort the execution as a data
//! race. Reading a slot no write ever initialized is flagged separately
//! (that is how an off-by-one ring wrap surfaces).
//!
//! # Bounds
//!
//! The search is exhaustive up to [`CheckOpts::preemptions`] involuntary
//! context switches per execution (Chess-style preemption bounding: most
//! concurrency bugs need only one or two) and [`CheckOpts::max_executions`]
//! schedules overall; [`CheckReport::truncated`] says whether the cap was
//! hit, so callers can assert a check was genuinely exhaustive. Checked
//! closures must be bounded by construction (fixed operation counts, no
//! retry-until-success loops): a spin loop explores forever, which the
//! per-execution op budget converts into an explicit violation.
//!
//! # Caveats (by design, documented here once)
//!
//! * `compare_exchange_weak` never fails spuriously under the model (a
//!   spurious failure branch at every CAS makes retry loops unbounded).
//! * CAS failure loads and RMWs observe the modification-order-latest
//!   value only; genuine stale-read branching is exercised through plain
//!   loads.
//! * `Debug` formatting of instrumented atomics reads the mirror value
//!   without a model event.
//! * A value written through `get_mut` (an exclusive borrow) is, at the
//!   location's next op, the latest store and visible to every thread —
//!   the borrow proves nobody else can reach the location until its owner
//!   hands it on, and that hand-off synchronizes on its own.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Options, reports, violations
// ---------------------------------------------------------------------------

/// Bounds for one [`explore`] run.
#[derive(Debug, Clone, Copy)]
pub struct CheckOpts {
    /// Maximum involuntary context switches per execution (Chess-style
    /// preemption bounding). Voluntary switches (a thread blocking or
    /// finishing) are free.
    pub preemptions: usize,
    /// Hard cap on explored executions; hitting it sets
    /// [`CheckReport::truncated`].
    pub max_executions: u64,
    /// Per-execution instrumented-op budget; exceeding it is reported as a
    /// [`ViolationKind::OpBudget`] violation (an unbounded retry loop).
    pub max_ops: u64,
}

impl Default for CheckOpts {
    fn default() -> Self {
        CheckOpts {
            preemptions: 2,
            max_executions: 400_000,
            max_ops: 20_000,
        }
    }
}

/// What a violating execution did wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two unordered accesses to a non-atomic cell, at least one a write.
    DataRace,
    /// A non-atomic cell was read before any write initialized it.
    UninitRead,
    /// The checked closure (or an invariant assert inside it) panicked.
    Panic,
    /// Unfinished threads with nothing runnable (a join cycle).
    Deadlock,
    /// [`CheckOpts::max_ops`] exceeded — an unbounded loop under the model.
    OpBudget,
    /// Replaying a recorded path diverged: the checked closure made a
    /// choice the model did not control (internal error).
    Nondeterminism,
}

/// A counterexample: the violation plus the interleaving that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Category of the failure.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub message: String,
    /// The instrumented-op trace of the violating execution, in order.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:?}: {}", self.kind, self.message)?;
        writeln!(f, "interleaving ({} ops):", self.trace.len())?;
        for op in &self.trace {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

/// Result of an [`explore`] run.
#[derive(Debug)]
pub struct CheckReport {
    /// Executions (distinct schedules) explored.
    pub executions: u64,
    /// True if [`CheckOpts::max_executions`] stopped the search before the
    /// bounded schedule space was exhausted.
    pub truncated: bool,
    /// The first violation found, if any (the search stops at the first).
    pub violation: Option<Violation>,
}

impl CheckReport {
    /// True when the bounded schedule space was fully explored cleanly.
    pub fn exhaustive_pass(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

// ---------------------------------------------------------------------------
// Explorer: DFS over recorded choice points
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Choice {
    chosen: usize,
    total: usize,
    /// Kind of choice point ("sched" / "load"), for divergence debugging.
    tag: &'static str,
}

/// Depth-first enumerator of choice sequences. Forced choices (one option)
/// are not recorded, so the path is exactly the branching structure.
#[derive(Debug, Default)]
struct Explorer {
    path: Vec<Choice>,
    cursor: usize,
    diverged: bool,
    /// (position, recorded total, observed total) of a replay divergence.
    divergence: Option<(usize, usize, usize)>,
}

impl Explorer {
    fn choose(&mut self, total: usize, tag: &'static str) -> usize {
        if total <= 1 {
            return 0;
        }
        if self.cursor < self.path.len() {
            let recorded = self.path[self.cursor];
            if recorded.total != total || recorded.tag != tag {
                // Replay divergence; caller turns this into a violation.
                self.diverged = true;
                self.divergence = Some((self.cursor, recorded.total, total));
                self.cursor += 1;
                return 0;
            }
            self.cursor += 1;
            recorded.chosen
        } else {
            self.path.push(Choice {
                chosen: 0,
                total,
                tag,
            });
            self.cursor += 1;
            0
        }
    }

    /// Backtracks to the next unexplored path; false when exhausted.
    fn advance(&mut self) -> bool {
        while let Some(last) = self.path.last_mut() {
            if last.chosen + 1 < last.total {
                last.chosen += 1;
                self.cursor = 0;
                return true;
            }
            self.path.pop();
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Vector clocks and views
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VClock(Vec<u64>);

impl VClock {
    fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// `self` happens-before-or-equals `other`.
    fn le(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, v)| *v == 0 || other.0.get(i).copied().unwrap_or(0) >= *v)
    }
}

/// Per-thread view: for each atomic location, the oldest store index the
/// thread may still observe (coherence floor).
type View = HashMap<usize, usize>;

fn join_view(into: &mut View, from: &View) {
    for (addr, idx) in from {
        let floor = into.entry(*addr).or_insert(0);
        *floor = (*floor).max(*idx);
    }
}

// ---------------------------------------------------------------------------
// Model state
// ---------------------------------------------------------------------------

/// Release payload a synchronizing load joins: the storing thread's clock
/// and view at the store.
#[derive(Debug, Clone)]
struct ReleasePayload {
    clock: VClock,
    view: View,
}

#[derive(Debug)]
struct StoreEvt {
    value: u64,
    release: Option<ReleasePayload>,
}

#[derive(Debug, Default)]
struct AtomicLoc {
    stores: Vec<StoreEvt>,
}

#[derive(Debug, Default)]
struct NaLoc {
    written: bool,
    writer: Option<(usize, VClock)>,
    readers: Vec<(usize, VClock)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Joining(usize),
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    clock: VClock,
    view: View,
}

/// One instrumented op, recorded compactly (formatting a string per op
/// would dominate the search); rendered only when a violation is reported.
#[derive(Debug, Clone, Copy)]
struct TraceEntry {
    tid: usize,
    op: &'static str,
    ord: &'static str,
    addr: usize,
    a: u64,
    b: u64,
}

impl TraceEntry {
    fn render(&self) -> String {
        let TraceEntry {
            tid,
            op,
            ord,
            addr,
            a,
            b,
        } = *self;
        let site = format!("a{:04x}", addr & 0xffff);
        match op {
            "load" => {
                let stale = if b > 0 {
                    format!(" (stale, {b} behind)")
                } else {
                    String::new()
                };
                format!("t{tid} load.{ord} {site} -> {a}{stale}")
            }
            "store" => format!("t{tid} store.{ord} {site} <- {a}"),
            "cas" => {
                let outcome = if b == 1 { "->" } else { "!=" };
                format!("t{tid} cas.{ord} {site} {a} {outcome}")
            }
            "slot.read" | "slot.write" => format!("t{tid} {op} {site}"),
            "spawn" => format!("t{tid} spawn t{a}"),
            "join" => format!("t{tid} join t{a}"),
            _ => format!("t{tid} {op}.{ord} {site} {a} -> {b}"),
        }
    }
}

struct State {
    opts: CheckOpts,
    explorer: Explorer,
    threads: Vec<ThreadState>,
    /// The thread currently holding the run token.
    active: usize,
    /// Threads not yet `Finished`.
    running: usize,
    preemptions: usize,
    aborting: bool,
    ops: u64,
    atomics: HashMap<usize, AtomicLoc>,
    /// Registered locations handed out through `get_mut` since their last
    /// model op: the next op re-seeds them from the mirror.
    rewritten: Vec<usize>,
    nonatomics: HashMap<usize, NaLoc>,
    trace: Vec<TraceEntry>,
    violation: Option<Violation>,
}

struct Exec {
    state: Mutex<State>,
    cond: Condvar,
    /// Real OS-thread handles, joined by the driver at execution end.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Panic payload used to unwind model threads out of an aborted execution.
struct ModelAbort;

thread_local! {
    static ACTIVE: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

#[derive(Clone)]
struct ThreadCtx {
    exec: Arc<Exec>,
    tid: usize,
}

fn current_ctx() -> Option<ThreadCtx> {
    ACTIVE.with(|slot| slot.borrow().clone())
}

fn lock_state(exec: &Exec) -> MutexGuard<'_, State> {
    exec.state
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn ord_tag(ord: Ordering) -> &'static str {
    match ord {
        Ordering::Relaxed => "rlx",
        Ordering::Acquire => "acq",
        Ordering::Release => "rel",
        Ordering::AcqRel => "acq_rel",
        Ordering::SeqCst => "seq_cst",
        _ => "?",
    }
}

impl State {
    fn report_violation(&mut self, kind: ViolationKind, message: String) {
        if self.violation.is_none() {
            self.violation = Some(Violation {
                kind,
                message,
                trace: self.trace.iter().map(TraceEntry::render).collect(),
            });
        }
        self.aborting = true;
    }

    fn trace_op(&mut self, entry: TraceEntry) {
        // Bounded by the op budget; keep everything for the counterexample.
        self.trace.push(entry);
    }

    /// Charges one instrumented op against the budget; true if still fine.
    fn charge_op(&mut self) -> bool {
        self.ops += 1;
        if self.ops > self.opts.max_ops {
            self.report_violation(
                ViolationKind::OpBudget,
                format!(
                    "execution exceeded {} instrumented ops: unbounded loop under the model \
                     (checked closures must issue a fixed number of operations)",
                    self.opts.max_ops
                ),
            );
            return false;
        }
        true
    }

    /// Picks the next thread to hold the run token. `still_runnable` says
    /// whether the calling thread can itself continue.
    fn schedule_next(&mut self, me: usize) {
        if self.aborting {
            return;
        }
        let runnable: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(tid, _)| tid)
            .collect();
        if runnable.is_empty() {
            if self.running > 0 {
                self.report_violation(
                    ViolationKind::Deadlock,
                    format!("{} threads alive but none runnable", self.running),
                );
            }
            return;
        }
        let me_runnable = self.threads[me].status == Status::Runnable;
        let next = if me_runnable {
            if self.preemptions < self.opts.preemptions && runnable.len() > 1 {
                // Option 0 = keep running (the DFS explores the natural
                // schedule first); any other option is a preemption.
                let mut options = vec![me];
                options.extend(runnable.iter().copied().filter(|tid| *tid != me));
                let choice = self.explorer.choose(options.len(), "sched-preempt");
                if choice != 0 {
                    self.preemptions += 1;
                }
                options[choice]
            } else {
                me
            }
        } else {
            let choice = self.explorer.choose(runnable.len(), "sched-block");
            runnable[choice]
        };
        if self.explorer.diverged {
            let detail = self.explorer.divergence;
            self.report_violation(
                ViolationKind::Nondeterminism,
                format!(
                    "schedule replay diverged: the checked closure is not deterministic \
                     under a fixed schedule ({detail:?} = position, recorded total, \
                     observed total)"
                ),
            );
            return;
        }
        self.active = next;
    }
}

/// Blocks until this thread holds the run token (or the execution aborts).
fn rendezvous(exec: &Exec, tid: usize) -> MutexGuard<'_, State> {
    let mut guard = lock_state(exec);
    loop {
        if guard.aborting {
            drop(guard);
            panic::panic_any(ModelAbort);
        }
        if guard.active == tid && guard.threads[tid].status == Status::Runnable {
            return guard;
        }
        guard = exec
            .cond
            .wait(guard)
            .unwrap_or_else(|poison| poison.into_inner());
    }
}

/// Ends an op: hands the token onward and wakes everyone.
fn finish_op(exec: &Exec, mut guard: MutexGuard<'_, State>, me: usize) {
    guard.schedule_next(me);
    let abort = guard.aborting;
    drop(guard);
    exec.cond.notify_all();
    if abort {
        panic::panic_any(ModelAbort);
    }
}

// ---------------------------------------------------------------------------
// Instrumented operations (called from the facade types with a ctx active)
// ---------------------------------------------------------------------------

impl ThreadCtx {
    /// Notes that a registered location was handed out through `get_mut`
    /// (not an op: the running thread holds the token, so taking the state
    /// lock here cannot race another model thread).
    fn note_rewrite(&self, addr: usize) {
        let mut state = lock_state(&self.exec);
        if state.atomics.contains_key(&addr) && !state.rewritten.contains(&addr) {
            state.rewritten.push(addr);
        }
    }

    /// Registers the location on first touch, seeding the history with the
    /// initial value (read from the mirror atomic; no model store has
    /// happened yet, so the mirror still holds the constructor's value,
    /// visible to every thread with no synchronization required).
    ///
    /// A location handed out through `get_mut` since its last op is
    /// re-seeded instead: the mirror's value (what the `&mut` holder left)
    /// becomes the latest store and every thread's floor. The exclusive
    /// borrow proved no other thread could reach the location, and whoever
    /// reaches it next got it from the holder through a hand-off that
    /// synchronizes anyway.
    fn ensure_atomic(state: &mut State, addr: usize, initial: impl FnOnce() -> u64) {
        if let Some(at) = state.rewritten.iter().position(|&noted| noted == addr) {
            state.rewritten.swap_remove(at);
            let stores = &mut state
                .atomics
                .get_mut(&addr)
                .expect("only registered locations are noted")
                .stores;
            let idx = stores.len();
            stores.push(StoreEvt {
                value: initial(),
                release: None,
            });
            for thread in &mut state.threads {
                thread.view.insert(addr, idx);
            }
            return;
        }
        state.atomics.entry(addr).or_insert_with(|| AtomicLoc {
            stores: vec![StoreEvt {
                value: initial(),
                release: None,
            }],
        });
    }

    fn atomic_load(&self, addr: usize, initial: impl FnOnce() -> u64, ord: Ordering) -> u64 {
        let tid = self.tid;
        let mut guard = rendezvous(&self.exec, tid);
        if !guard.charge_op() {
            return finish_abort(&self.exec, guard);
        }
        Self::ensure_atomic(&mut guard, addr, initial);
        let len = guard.atomics[&addr].stores.len();
        let floor = guard.threads[tid].view.get(&addr).copied().unwrap_or(0);
        // SeqCst loads are approximated as latest-value acquire loads (no
        // SeqCst exists in this workspace; see the module docs).
        let floor = if ord == Ordering::SeqCst {
            len - 1
        } else {
            floor
        };
        // Choice 0 = the newest store, so the natural schedule reads fresh
        // values and staleness is explored on backtracking.
        let candidates = len - floor;
        let pick = guard.explorer.choose(candidates, "load");
        if guard.explorer.diverged {
            let detail = guard.explorer.divergence;
            guard.report_violation(
                ViolationKind::Nondeterminism,
                format!(
                    "load-value replay diverged ({detail:?} = position, recorded \
                     total, observed total)"
                ),
            );
            return finish_abort(&self.exec, guard);
        }
        let idx = len - 1 - pick;
        let (value, payload) = {
            let store = &guard.atomics[&addr].stores[idx];
            (store.value, store.release.clone())
        };
        guard.threads[tid].view.insert(addr, idx);
        if is_acquire(ord) {
            if let Some(payload) = payload {
                guard.threads[tid].clock.join(&payload.clock);
                join_view(&mut guard.threads[tid].view, &payload.view);
            }
        }
        guard.threads[tid].clock.tick(tid);
        let stale = len - 1 - idx;
        guard.trace_op(TraceEntry {
            tid,
            op: "load",
            ord: ord_tag(ord),
            addr,
            a: value,
            b: stale as u64,
        });
        finish_op(&self.exec, guard, tid);
        value
    }

    fn atomic_store(
        &self,
        addr: usize,
        initial: impl FnOnce() -> u64,
        value: u64,
        ord: Ordering,
        mirror: impl FnOnce(u64),
    ) {
        let tid = self.tid;
        let mut guard = rendezvous(&self.exec, tid);
        if !guard.charge_op() {
            finish_abort::<()>(&self.exec, guard);
            return;
        }
        Self::ensure_atomic(&mut guard, addr, initial);
        guard.threads[tid].clock.tick(tid);
        let idx = guard.atomics[&addr].stores.len();
        guard.threads[tid].view.insert(addr, idx);
        let release = if is_release(ord) {
            Some(ReleasePayload {
                clock: guard.threads[tid].clock.clone(),
                view: guard.threads[tid].view.clone(),
            })
        } else {
            None
        };
        guard
            .atomics
            .get_mut(&addr)
            .expect("registered above")
            .stores
            .push(StoreEvt { value, release });
        mirror(value);
        guard.trace_op(TraceEntry {
            tid,
            op: "store",
            ord: ord_tag(ord),
            addr,
            a: value,
            b: 0,
        });
        finish_op(&self.exec, guard, tid);
    }

    /// Read-modify-write: reads the modification-order-latest value (C11
    /// atomicity), applies `op`, appends the new store, and continues the
    /// release sequence of the store it read.
    fn atomic_rmw(
        &self,
        addr: usize,
        initial: impl FnOnce() -> u64,
        name: &'static str,
        ord: Ordering,
        op: impl FnOnce(u64) -> u64,
        mirror: impl FnOnce(u64),
    ) -> u64 {
        let tid = self.tid;
        let mut guard = rendezvous(&self.exec, tid);
        if !guard.charge_op() {
            return finish_abort(&self.exec, guard);
        }
        Self::ensure_atomic(&mut guard, addr, initial);
        let latest = guard.atomics[&addr].stores.len() - 1;
        let (prev, read_payload) = {
            let store = &guard.atomics[&addr].stores[latest];
            (store.value, store.release.clone())
        };
        guard.threads[tid].view.insert(addr, latest);
        if is_acquire(ord) {
            if let Some(payload) = &read_payload {
                guard.threads[tid].clock.join(&payload.clock);
                join_view(&mut guard.threads[tid].view, &payload.view);
            }
        }
        guard.threads[tid].clock.tick(tid);
        let next = op(prev);
        let idx = latest + 1;
        guard.threads[tid].view.insert(addr, idx);
        // Release-sequence continuation: an acquire load of this store
        // synchronizes with the head of the sequence even if this RMW is
        // itself relaxed, so propagate (and, if releasing, extend) the
        // payload of the store we read.
        let release = if is_release(ord) {
            let mut payload = ReleasePayload {
                clock: guard.threads[tid].clock.clone(),
                view: guard.threads[tid].view.clone(),
            };
            if let Some(read) = &read_payload {
                payload.clock.join(&read.clock);
                join_view(&mut payload.view, &read.view);
            }
            Some(payload)
        } else {
            read_payload
        };
        guard
            .atomics
            .get_mut(&addr)
            .expect("registered above")
            .stores
            .push(StoreEvt {
                value: next,
                release,
            });
        mirror(next);
        guard.trace_op(TraceEntry {
            tid,
            op: name,
            ord: ord_tag(ord),
            addr,
            a: prev,
            b: next,
        });
        finish_op(&self.exec, guard, tid);
        prev
    }

    /// Compare-exchange. Success is an RMW; failure is a load of the
    /// modification-order-latest value (see the module caveats).
    #[allow(clippy::too_many_arguments)]
    fn atomic_cas(
        &self,
        addr: usize,
        initial: impl FnOnce() -> u64,
        expected: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
        mirror: impl FnOnce(u64),
    ) -> Result<u64, u64> {
        let tid = self.tid;
        let mut guard = rendezvous(&self.exec, tid);
        if !guard.charge_op() {
            return Err(finish_abort(&self.exec, guard));
        }
        Self::ensure_atomic(&mut guard, addr, initial);
        let latest = guard.atomics[&addr].stores.len() - 1;
        let (prev, read_payload) = {
            let store = &guard.atomics[&addr].stores[latest];
            (store.value, store.release.clone())
        };
        let (ok, ord) = if prev == expected {
            (true, success)
        } else {
            (false, failure)
        };
        guard.threads[tid].view.insert(addr, latest);
        if is_acquire(ord) {
            if let Some(payload) = &read_payload {
                guard.threads[tid].clock.join(&payload.clock);
                join_view(&mut guard.threads[tid].view, &payload.view);
            }
        }
        guard.threads[tid].clock.tick(tid);
        if ok {
            let idx = latest + 1;
            guard.threads[tid].view.insert(addr, idx);
            let release = if is_release(ord) {
                let mut payload = ReleasePayload {
                    clock: guard.threads[tid].clock.clone(),
                    view: guard.threads[tid].view.clone(),
                };
                if let Some(read) = &read_payload {
                    payload.clock.join(&read.clock);
                    join_view(&mut payload.view, &read.view);
                }
                Some(payload)
            } else {
                read_payload
            };
            guard
                .atomics
                .get_mut(&addr)
                .expect("registered above")
                .stores
                .push(StoreEvt {
                    value: new,
                    release,
                });
            mirror(new);
        }
        guard.trace_op(TraceEntry {
            tid,
            op: "cas",
            ord: ord_tag(ord),
            addr,
            a: prev,
            b: ok as u64,
        });
        finish_op(&self.exec, guard, tid);
        if ok {
            Ok(prev)
        } else {
            Err(prev)
        }
    }

    fn na_access(&self, addr: usize, is_write: bool) {
        let tid = self.tid;
        let mut guard = rendezvous(&self.exec, tid);
        if !guard.charge_op() {
            finish_abort::<()>(&self.exec, guard);
            return;
        }
        let my_clock = guard.threads[tid].clock.clone();
        let loc = guard.nonatomics.entry(addr).or_default();
        let mut race: Option<String> = None;
        if let Some((wtid, wclock)) = &loc.writer {
            if *wtid != tid && !wclock.le(&my_clock) {
                race = Some(format!(
                    "t{tid} {} slot a{:04x} races t{wtid}'s write",
                    if is_write { "write to" } else { "read of" },
                    addr & 0xffff
                ));
            }
        }
        if is_write {
            for (rtid, rclock) in &loc.readers {
                if *rtid != tid && !rclock.le(&my_clock) {
                    race = Some(format!(
                        "t{tid} write to slot a{:04x} races t{rtid}'s read",
                        addr & 0xffff
                    ));
                }
            }
        } else if !loc.written {
            guard.report_violation(
                ViolationKind::UninitRead,
                format!("t{tid} read slot a{:04x} before any write", addr & 0xffff),
            );
            finish_abort::<()>(&self.exec, guard);
            return;
        }
        if let Some(message) = race {
            guard.report_violation(ViolationKind::DataRace, message);
            finish_abort::<()>(&self.exec, guard);
            return;
        }
        guard.threads[tid].clock.tick(tid);
        let clock = guard.threads[tid].clock.clone();
        let loc = guard.nonatomics.entry(addr).or_default();
        if is_write {
            loc.written = true;
            loc.writer = Some((tid, clock));
            loc.readers.clear();
        } else {
            loc.readers.push((tid, clock));
        }
        guard.trace_op(TraceEntry {
            tid,
            op: if is_write { "slot.write" } else { "slot.read" },
            ord: "",
            addr,
            a: 0,
            b: 0,
        });
        finish_op(&self.exec, guard, tid);
    }
}

/// Unlocks and unwinds out of an aborted execution. The return type is
/// whatever the caller needs to "return" (never actually produced).
fn finish_abort<T>(exec: &Exec, guard: MutexGuard<'_, State>) -> T {
    drop(guard);
    exec.cond.notify_all();
    panic::panic_any(ModelAbort);
}

/// Reports a tracked non-atomic write at `addr` (no-op outside a model
/// execution). Called by [`Slot`](crate::sync::Slot).
pub fn trace_nonatomic_write(addr: usize) {
    if let Some(ctx) = current_ctx() {
        ctx.na_access(addr, true);
    }
}

/// Reports a tracked non-atomic read at `addr` (no-op outside a model
/// execution). Called by [`Slot`](crate::sync::Slot).
pub fn trace_nonatomic_read(addr: usize) {
    if let Some(ctx) = current_ctx() {
        ctx.na_access(addr, false);
    }
}

// ---------------------------------------------------------------------------
// spawn / join
// ---------------------------------------------------------------------------

/// Handle to a thread spawned with [`spawn`] inside a model execution.
pub struct ModelJoinHandle<T> {
    target: usize,
    exec: Option<Arc<Exec>>,
    result: Arc<Mutex<Option<T>>>,
    /// Real handle, present only in the non-model fallback.
    real: Option<std::thread::JoinHandle<()>>,
}

impl<T> ModelJoinHandle<T> {
    /// Waits for the thread to finish and returns its value. Inside a model
    /// execution this is a blocking scheduling point that establishes
    /// happens-before with everything the joined thread did.
    pub fn join(self) -> T {
        if let Some(real) = self.real {
            real.join().expect("model fallback thread panicked");
            return self
                .result
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .take()
                .expect("joined thread stored no result");
        }
        let exec = self.exec.expect("model join handle without execution");
        let ctx = current_ctx().expect("ModelJoinHandle::join outside a model thread");
        assert!(
            Arc::ptr_eq(&ctx.exec, &exec),
            "join handle crossed model executions"
        );
        let tid = ctx.tid;
        let target = self.target;
        let mut guard = rendezvous(&exec, tid);
        if !guard.charge_op() {
            return finish_abort(&exec, guard);
        }
        if guard.threads[target].status != Status::Finished {
            guard.threads[tid].status = Status::Joining(target);
            guard.schedule_next(tid);
            let abort = guard.aborting;
            drop(guard);
            exec.cond.notify_all();
            if abort {
                panic::panic_any(ModelAbort);
            }
            guard = rendezvous(&exec, tid);
        }
        // Happens-before edge from everything the target did.
        let (target_clock, target_view) = {
            let t = &guard.threads[target];
            (t.clock.clone(), t.view.clone())
        };
        guard.threads[tid].clock.join(&target_clock);
        join_view(&mut guard.threads[tid].view, &target_view);
        guard.threads[tid].clock.tick(tid);
        guard.trace_op(TraceEntry {
            tid,
            op: "join",
            ord: "",
            addr: 0,
            a: target as u64,
            b: 0,
        });
        finish_op(&exec, guard, tid);
        self.result
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .take()
            .expect("joined model thread stored no result")
    }
}

/// Spawns a model thread. Inside a model execution the new thread becomes
/// part of the explored schedule (with a happens-before edge from the
/// spawn); outside one this falls back to a plain `std::thread::spawn` so
/// check code also runs un-modeled.
pub fn spawn<T, F>(f: F) -> ModelJoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let Some(ctx) = current_ctx() else {
        let slot = Arc::clone(&result);
        let real = std::thread::spawn(move || {
            let value = f();
            *slot.lock().unwrap_or_else(|poison| poison.into_inner()) = Some(value);
        });
        return ModelJoinHandle {
            target: usize::MAX,
            exec: None,
            result,
            real: Some(real),
        };
    };
    let exec = Arc::clone(&ctx.exec);
    let tid = ctx.tid;
    let child = {
        let mut guard = rendezvous(&exec, tid);
        if !guard.charge_op() {
            return finish_abort(&exec, guard);
        }
        guard.threads[tid].clock.tick(tid);
        // The child inherits the spawner's clock and view: everything the
        // spawner did happens-before everything the child does.
        let clock = guard.threads[tid].clock.clone();
        let view = guard.threads[tid].view.clone();
        let child = guard.threads.len();
        let mut child_clock = clock;
        child_clock.tick(child);
        guard.threads.push(ThreadState {
            status: Status::Runnable,
            clock: child_clock,
            view,
        });
        guard.running += 1;
        guard.trace_op(TraceEntry {
            tid,
            op: "spawn",
            ord: "",
            addr: 0,
            a: child as u64,
            b: 0,
        });
        finish_op(&exec, guard, tid);
        child
    };
    let slot = Arc::clone(&result);
    let thread_exec = Arc::clone(&exec);
    let handle = std::thread::spawn(move || {
        run_model_thread(thread_exec, child, f, slot);
    });
    exec.handles
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
        .push(handle);
    ModelJoinHandle {
        target: child,
        exec: Some(exec),
        result,
        real: None,
    }
}

fn run_model_thread<T, F>(exec: Arc<Exec>, tid: usize, f: F, result: Arc<Mutex<Option<T>>>)
where
    F: FnOnce() -> T,
{
    ACTIVE.with(|slot| {
        *slot.borrow_mut() = Some(ThreadCtx {
            exec: Arc::clone(&exec),
            tid,
        })
    });
    // A model thread's first instruction rendezvouses inside its first op;
    // before that it may run un-instrumented code freely (it touches no
    // tracked memory by definition).
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    ACTIVE.with(|slot| *slot.borrow_mut() = None);
    let panic_message = match outcome {
        Ok(value) => {
            *result.lock().unwrap_or_else(|poison| poison.into_inner()) = Some(value);
            None
        }
        Err(payload) => {
            if payload.downcast_ref::<ModelAbort>().is_some() {
                None
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                Some((*s).to_string())
            } else if let Some(s) = payload.downcast_ref::<String>() {
                Some(s.clone())
            } else {
                Some("checked closure panicked with a non-string payload".to_string())
            }
        }
    };
    let mut guard = lock_state(&exec);
    if panic_message.is_none() {
        // Retirement is itself a scheduled event: the moment a finished
        // thread leaves the runnable set must be chosen by the explorer,
        // not by OS timing, or replaying a recorded choice path diverges
        // (the runnable set at later scheduling points would differ run
        // to run). Wait for the run token before retiring; an aborting
        // execution skips the wait because the scheduler is torn down.
        while !(guard.aborting
            || (guard.active == tid && guard.threads[tid].status == Status::Runnable))
        {
            guard = exec
                .cond
                .wait(guard)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }
    if let Some(message) = panic_message {
        guard.report_violation(ViolationKind::Panic, message);
    }
    guard.threads[tid].status = Status::Finished;
    guard.running -= 1;
    // Wake joiners; they become schedulable candidates.
    for t in 0..guard.threads.len() {
        if guard.threads[t].status == Status::Joining(tid) {
            guard.threads[t].status = Status::Runnable;
        }
    }
    if guard.running > 0 {
        guard.schedule_next(tid);
    }
    drop(guard);
    exec.cond.notify_all();
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs `f` under every schedule within the bounds and returns what was
/// found. The search stops at the first violation; the report carries the
/// violating interleaving.
pub fn explore<F>(opts: CheckOpts, f: F) -> CheckReport
where
    F: Fn() + Send + Sync + 'static,
{
    // Checked closures routinely panic on purpose (ModelAbort unwinds tear
    // down aborted executions; mutation tests assert inside the model), so
    // silence the default hook's per-panic backtrace chatter for panics on
    // model threads — the message is captured and re-reported as a
    // `Violation` anyway. Chained once, process-wide.
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let on_model_thread = ACTIVE
                .try_with(|slot| slot.try_borrow().map(|s| s.is_some()).unwrap_or(false))
                .unwrap_or(false);
            if !on_model_thread && info.payload().downcast_ref::<ModelAbort>().is_none() {
                previous(info);
            }
        }));
    });
    let f = Arc::new(f);
    let mut explorer = Explorer::default();
    let mut executions = 0u64;
    loop {
        executions += 1;
        let exec = Arc::new(Exec {
            state: Mutex::new(State {
                opts,
                explorer,
                threads: vec![ThreadState {
                    status: Status::Runnable,
                    clock: {
                        let mut c = VClock::default();
                        c.tick(0);
                        c
                    },
                    view: View::default(),
                }],
                active: 0,
                running: 1,
                preemptions: 0,
                aborting: false,
                ops: 0,
                atomics: HashMap::new(),
                rewritten: Vec::new(),
                nonatomics: HashMap::new(),
                trace: Vec::new(),
                violation: None,
            }),
            cond: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        });
        let root_exec = Arc::clone(&exec);
        let closure = Arc::clone(&f);
        let root = std::thread::spawn(move || {
            run_model_thread(root_exec, 0, move || closure(), Arc::new(Mutex::new(None)));
        });
        {
            let mut guard = lock_state(&exec);
            while guard.running > 0 {
                guard = exec
                    .cond
                    .wait(guard)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        }
        let _ = root.join();
        loop {
            let drained: Vec<_> = exec
                .handles
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .drain(..)
                .collect();
            if drained.is_empty() {
                break;
            }
            for handle in drained {
                let _ = handle.join();
            }
        }
        let exec = Arc::try_unwrap(exec)
            .unwrap_or_else(|_| panic!("model execution leaked a handle to its scheduler"));
        let state = exec
            .state
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        explorer = state.explorer;
        if let Some(violation) = state.violation {
            return CheckReport {
                executions,
                truncated: false,
                violation: Some(violation),
            };
        }
        if executions >= opts.max_executions {
            return CheckReport {
                executions,
                truncated: true,
                violation: None,
            };
        }
        if !explorer.advance() {
            return CheckReport {
                executions,
                truncated: false,
                violation: None,
            };
        }
    }
}

/// Like [`explore`], but panics with the formatted counterexample on a
/// violation and asserts the search was not truncated — the form the
/// clean-primitive checks use.
pub fn check<F>(name: &str, opts: CheckOpts, f: F) -> u64
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore(opts, f);
    if let Some(violation) = &report.violation {
        panic!(
            "model check '{name}' found a violation after {} executions:\n{violation}",
            report.executions
        );
    }
    assert!(
        !report.truncated,
        "model check '{name}' truncated at {} executions; raise max_executions or \
         shrink the checked program",
        report.executions
    );
    report.executions
}

// ---------------------------------------------------------------------------
// Instrumented atomic types
// ---------------------------------------------------------------------------

macro_rules! instrumented_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty, $to:expr, $from:expr) => {
        $(#[$doc])*
        pub struct $name {
            /// Mirror of the modification-order-latest value. Outside a
            /// model execution this *is* the atomic; inside one it backs
            /// `get_mut`/`Debug` and seeds the model history on first touch.
            inner: $std,
        }

        impl $name {
            /// A new atomic holding `value`.
            pub const fn new(value: $prim) -> Self {
                Self { inner: <$std>::new(value) }
            }

            fn addr(&self) -> usize {
                self as *const _ as usize
            }

            /// Atomic load (modeled: may observe any happens-before-valid
            /// stale value).
            pub fn load(&self, ord: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.load(ord),
                    Some(ctx) => $from(ctx.atomic_load(
                        self.addr(),
                        || $to(self.inner.load(Ordering::Relaxed)),
                        ord,
                    )),
                }
            }

            /// Atomic store.
            pub fn store(&self, value: $prim, ord: Ordering) {
                match current_ctx() {
                    None => self.inner.store(value, ord),
                    Some(ctx) => ctx.atomic_store(
                        self.addr(),
                        || $to(self.inner.load(Ordering::Relaxed)),
                        $to(value),
                        ord,
                        |v| self.inner.store($from(v), Ordering::Relaxed),
                    ),
                }
            }

            /// Atomic swap; returns the previous value.
            pub fn swap(&self, value: $prim, ord: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.swap(value, ord),
                    Some(ctx) => $from(ctx.atomic_rmw(
                        self.addr(),
                        || $to(self.inner.load(Ordering::Relaxed)),
                        "swap",
                        ord,
                        |_| $to(value),
                        |v| self.inner.store($from(v), Ordering::Relaxed),
                    )),
                }
            }

            /// Atomic fetch-add (wrapping); returns the previous value.
            pub fn fetch_add(&self, operand: $prim, ord: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.fetch_add(operand, ord),
                    Some(ctx) => $from(ctx.atomic_rmw(
                        self.addr(),
                        || $to(self.inner.load(Ordering::Relaxed)),
                        "fetch_add",
                        ord,
                        |v| $to($from(v).wrapping_add(operand)),
                        |v| self.inner.store($from(v), Ordering::Relaxed),
                    )),
                }
            }

            /// Atomic fetch-sub (wrapping); returns the previous value.
            pub fn fetch_sub(&self, operand: $prim, ord: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.fetch_sub(operand, ord),
                    Some(ctx) => $from(ctx.atomic_rmw(
                        self.addr(),
                        || $to(self.inner.load(Ordering::Relaxed)),
                        "fetch_sub",
                        ord,
                        |v| $to($from(v).wrapping_sub(operand)),
                        |v| self.inner.store($from(v), Ordering::Relaxed),
                    )),
                }
            }

            /// Atomic fetch-max; returns the previous value.
            pub fn fetch_max(&self, operand: $prim, ord: Ordering) -> $prim {
                match current_ctx() {
                    None => self.inner.fetch_max(operand, ord),
                    Some(ctx) => $from(ctx.atomic_rmw(
                        self.addr(),
                        || $to(self.inner.load(Ordering::Relaxed)),
                        "fetch_max",
                        ord,
                        |v| $to($from(v).max(operand)),
                        |v| self.inner.store($from(v), Ordering::Relaxed),
                    )),
                }
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                expected: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match current_ctx() {
                    None => self.inner.compare_exchange(expected, new, success, failure),
                    Some(ctx) => ctx
                        .atomic_cas(
                            self.addr(),
                            || $to(self.inner.load(Ordering::Relaxed)),
                            $to(expected),
                            $to(new),
                            success,
                            failure,
                            |v| self.inner.store($from(v), Ordering::Relaxed),
                        )
                        .map($from)
                        .map_err($from),
                }
            }

            /// Atomic weak compare-exchange. Under the model this never
            /// fails spuriously (see the module caveats).
            pub fn compare_exchange_weak(
                &self,
                expected: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match current_ctx() {
                    None => self
                        .inner
                        .compare_exchange_weak(expected, new, success, failure),
                    Some(_) => self.compare_exchange(expected, new, success, failure),
                }
            }

            /// Exclusive access to the value (`&mut` proves no concurrency;
            /// the mirror always holds the modification-order-latest value,
            /// and the location's next model op re-seeds from it).
            pub fn get_mut(&mut self) -> &mut $prim {
                if let Some(ctx) = current_ctx() {
                    ctx.note_rewrite(self.addr());
                }
                self.inner.get_mut()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.inner.fmt(f)
            }
        }
    };
}

fn usize_to_u64(v: usize) -> u64 {
    v as u64
}
fn u64_to_usize(v: u64) -> usize {
    v as usize
}
fn isize_to_u64(v: isize) -> u64 {
    v as i64 as u64
}
fn u64_to_isize(v: u64) -> isize {
    v as i64 as isize
}
fn u64_to_u64(v: u64) -> u64 {
    v
}
fn u32_to_u64(v: u32) -> u64 {
    v as u64
}
fn u64_to_u32(v: u64) -> u32 {
    v as u32
}

instrumented_atomic!(
    /// Model-instrumented drop-in for `std::sync::atomic::AtomicUsize`.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize,
    usize_to_u64,
    u64_to_usize
);
instrumented_atomic!(
    /// Model-instrumented drop-in for `std::sync::atomic::AtomicIsize`.
    AtomicIsize,
    std::sync::atomic::AtomicIsize,
    isize,
    isize_to_u64,
    u64_to_isize
);
instrumented_atomic!(
    /// Model-instrumented drop-in for `std::sync::atomic::AtomicU64`.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64,
    u64_to_u64,
    u64_to_u64
);
instrumented_atomic!(
    /// Model-instrumented drop-in for `std::sync::atomic::AtomicU32`.
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32,
    u32_to_u64,
    u64_to_u32
);
