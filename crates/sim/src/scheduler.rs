//! The concurrent request scheduler behind `rcmc serve`.
//!
//! Many in-flight JSON-lines requests fan their plan jobs onto one shared
//! worker pool, with three service-grade behaviors layered on top of the
//! plain sweep engine:
//!
//! * **Coalescing** — jobs are keyed by [`JobKey`] `(store config name,
//!   bench, budget)`, exactly the memoization identity of the
//!   [`ResultStore`]. A job requested by N concurrent clients is simulated
//!   once; every subscriber receives the same bit-identical row. A
//!   thundering herd of the same query costs one simulation.
//! * **Cancellation** — the `cancel` verb (and client disconnect, which
//!   reuses the same path) drops a request's queued-but-unstarted jobs.
//!   Jobs already running finish and still populate the store; jobs other
//!   requests also subscribe to keep running for those requests.
//! * **Admission control** — the queue of not-yet-started jobs is bounded.
//!   A request whose new jobs would push it past the limit is rejected
//!   atomically (nothing partially enqueued) with a structured `busy`
//!   error, so one over-deep client cannot balloon the process.
//!
//! The scheduler owns no threads: `serve` spawns [`Scheduler::worker`]
//! loops on the session's pool (so `--jobs` governs service concurrency)
//! and runs the read loop beside them. All scheduler methods are safe to
//! call from any thread.
//!
//! Lock order (strict, deadlock-free): scheduler state → request state →
//! output writer. Progress/result emission never holds the scheduler lock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use serde::json::Value;

use crate::config::SimConfig;
use crate::plan::Plan;
use crate::resultset::ResultSet;
use crate::runner::{self, Budget, JobKey, ResultStore, RunResult, SweepProgress};
use crate::serve::{event, obj, result_event};

/// Sink for serve events. Returns `false` when the client is gone (write
/// failed), which the scheduler treats as a disconnect.
pub type EmitFn<'a> = &'a (dyn Fn(&Value) -> bool + Sync);

/// Lifetime counters of one scheduler (reported by the `stats` op and in
/// [`crate::serve::ServeSummary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// (config × bench) pairs requested by accepted `run` requests.
    pub submitted: u64,
    /// Jobs actually simulated by the workers.
    pub executed: u64,
    /// Pairs satisfied by subscribing to an identical in-flight job.
    pub coalesced: u64,
    /// Pairs satisfied from the result store at submission time.
    pub memoized: u64,
    /// Queued jobs dropped by cancellation before starting.
    pub cancelled: u64,
    /// Requests rejected by admission control (`busy`).
    pub rejected: u64,
}

impl SchedulerStats {
    /// Fraction of submitted pairs that did not need a fresh simulation —
    /// coalesced onto an in-flight job or memoized from the store.
    pub fn coalesce_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.coalesced + self.memoized) as f64 / self.submitted as f64
        }
    }

    /// JSON rendering used by the `stats` event.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("submitted", Value::Num(self.submitted as f64)),
            ("executed", Value::Num(self.executed as f64)),
            ("coalesced", Value::Num(self.coalesced as f64)),
            ("memoized", Value::Num(self.memoized as f64)),
            ("cancelled", Value::Num(self.cancelled as f64)),
            ("rejected", Value::Num(self.rejected as f64)),
            ("coalesce_hit_rate", Value::Num(self.coalesce_hit_rate())),
        ])
    }
}

/// One in-flight `run` request: its identity, its plan (for report
/// rendering at completion), and the mutable delivery state.
struct Request {
    /// Client-supplied id, echoed on every event for this request.
    id: Value,
    /// Stable `plan#id` tag rendered in stderr progress lines.
    label: String,
    /// The plan, kept for rendering reports once all rows are in.
    plan: Plan,
    /// Display-name configuration order reports render in.
    order: Vec<String>,
    /// When the request was accepted (drives the progress ETA).
    started: Instant,
    state: Mutex<ReqState>,
}

/// Mutable per-request delivery state, behind the request's own lock so
/// deliveries to different requests never contend.
#[derive(Default)]
struct ReqState {
    /// Rows collected so far (memoized hits up front, then one per
    /// delivered job).
    rows: Vec<RunResult>,
    /// Jobs this request waits on (memoized pairs excluded).
    total: usize,
    /// Jobs delivered so far.
    finished: usize,
    /// Pairs satisfied from the store at submission.
    memoized: usize,
    /// Pairs satisfied by joining another request's in-flight job.
    coalesced: usize,
    /// Cancelled requests receive no further events and never finalize.
    cancelled: bool,
    /// Set once the result event has been emitted.
    done: bool,
}

/// A distinct simulation job and the requests subscribed to its result.
struct Job {
    /// The configuration to simulate (any subscriber's copy — equal keys
    /// imply bit-identical results).
    cfg: SimConfig,
    /// Running jobs survive cancellation; queued ones don't.
    running: bool,
    subscribers: Vec<Arc<Request>>,
}

struct SchedState {
    /// Keys of queued (not yet running) jobs. May contain tombstones for
    /// jobs cancellation already removed; workers skip those.
    queue: VecDeque<JobKey>,
    /// Every live job (queued or running), keyed by coalescing identity.
    jobs: HashMap<JobKey, Job>,
    /// Count of queued (not running, not tombstoned) jobs — the quantity
    /// admission control bounds.
    queued: usize,
    /// Requests with at least one undelivered job.
    requests: Vec<Arc<Request>>,
    /// No more submissions; workers drain the queue and exit.
    closed: bool,
    stats: SchedulerStats,
}

/// What the lock-free memo pass of [`Scheduler::submit`] found.
struct MemoPass {
    /// `stats.executed` when the pass began. If it has moved by
    /// registration, a job may have persisted its row and left `jobs` in
    /// between, unseen by both the pass and the registry.
    executed: u64,
    /// Rows already in the store.
    rows: Vec<RunResult>,
    /// Pairs the store missed.
    pending: Vec<(JobKey, SimConfig)>,
}

/// Outcome of [`Scheduler::submit`].
pub enum Submission {
    /// The request was accepted (and possibly already completed, if every
    /// pair was memoized).
    Accepted {
        /// Jobs enqueued or coalesced (pairs not satisfied by the store).
        jobs: usize,
        /// Pairs satisfied from the store.
        memoized: usize,
        /// Pairs coalesced onto in-flight jobs.
        coalesced: usize,
    },
    /// Admission control rejected the request; nothing was enqueued.
    Busy {
        /// Jobs the request would have needed.
        jobs: usize,
        /// Queue depth at rejection time.
        queued: usize,
        /// The configured queue bound.
        limit: usize,
    },
}

/// The shared scheduler: a bounded queue of deduplicated jobs plus the
/// request registry. See the [module docs](self) for semantics.
pub struct Scheduler {
    state: Mutex<SchedState>,
    /// Signals workers when jobs are enqueued, the loop closes, or the
    /// client disconnects.
    work: Condvar,
    /// Max queued (unstarted) jobs; see [`Scheduler::submit`].
    queue_limit: usize,
    /// Set when a write to the client failed; workers purge all queued
    /// work and requests the next time they look at the queue.
    disconnected: AtomicBool,
    /// Mirror per-job progress to the stderr status line (with the
    /// request label) — [`crate::session::Progress::Stderr`] sessions.
    stderr_progress: bool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `plan#id` — the stable per-request tag stderr progress lines carry.
fn request_label(plan_name: &str, id: &Value) -> String {
    let id_s = match id {
        Value::Str(s) => s.clone(),
        other => other.to_compact_string(),
    };
    format!("{plan_name}#{id_s}")
}

impl Scheduler {
    /// A scheduler admitting at most `queue_limit` queued jobs.
    /// `stderr_progress` mirrors per-job progress to the stderr status
    /// line, tagged with each request's label.
    pub fn new(queue_limit: usize, stderr_progress: bool) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                queued: 0,
                requests: Vec::new(),
                closed: false,
                stats: SchedulerStats::default(),
            }),
            work: Condvar::new(),
            queue_limit: queue_limit.max(1),
            disconnected: AtomicBool::new(false),
            stderr_progress,
        }
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> SchedulerStats {
        lock(&self.state).stats
    }

    /// True once a write to the client has failed.
    pub fn is_disconnected(&self) -> bool {
        self.disconnected.load(Ordering::Relaxed)
    }

    /// Record a failed client write: queued jobs and live requests are
    /// purged (running jobs still finish and populate the store), and
    /// idle workers are woken so drain-and-exit happens promptly.
    pub fn note_disconnect(&self) {
        self.disconnected.store(true, Ordering::Relaxed);
        self.work.notify_all();
    }

    /// No further submissions: workers finish the queued jobs and exit.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.work.notify_all();
    }

    /// Submit one `run` request: split its (config × bench) grid into
    /// store hits, joins onto identical in-flight jobs, and fresh jobs.
    /// Admission is all-or-nothing — if the fresh jobs would exceed the
    /// queue bound, nothing is enqueued and `Busy` is returned. A request
    /// satisfied entirely by the store completes inline (one terminal
    /// `progress` with `total == 0`, then its `result`), preserving the
    /// sweep engine's all-memoized contract.
    pub fn submit(
        &self,
        id: Value,
        plan: Plan,
        cfgs: Vec<SimConfig>,
        benches: Vec<String>,
        store: &ResultStore,
        emit: EmitFn<'_>,
    ) -> Submission {
        let budget = plan.budget.unwrap_or_default();
        let memo = self.memo_pass(&cfgs, &benches, &budget, store);
        self.register(id, plan, cfgs, memo, store, emit)
    }

    /// The store probes of [`Scheduler::submit`], taken without the
    /// scheduler lock: store reads touch the disk and must not serialize
    /// the whole service.
    fn memo_pass(
        &self,
        cfgs: &[SimConfig],
        benches: &[String],
        budget: &Budget,
        store: &ResultStore,
    ) -> MemoPass {
        let mut memo = MemoPass {
            executed: lock(&self.state).stats.executed,
            rows: Vec::new(),
            pending: Vec::new(),
        };
        for cfg in cfgs {
            for bench in benches {
                let key = JobKey::of(cfg, bench, budget);
                match store.load(&key.config, bench, budget) {
                    Some(hit) => memo.rows.push(hit),
                    None => memo.pending.push((key, cfg.clone())),
                }
            }
        }
        memo
    }

    /// The registration half of [`Scheduler::submit`], under the scheduler
    /// lock: admission, coalescing onto live jobs, and enqueueing the rest.
    fn register(
        &self,
        id: Value,
        plan: Plan,
        cfgs: Vec<SimConfig>,
        memo: MemoPass,
        store: &ResultStore,
        emit: EmitFn<'_>,
    ) -> Submission {
        let MemoPass {
            executed,
            mut rows,
            mut pending,
        } = memo;
        let mut coalesced = 0usize;
        let mut st = lock(&self.state);
        if st.stats.executed != executed {
            // A job finished since the memo pass. Workers persist a row
            // before its job leaves `jobs`, so an unregistered key the pass
            // missed may be in the store now: re-probe those keys instead
            // of simulating them a second time.
            pending.retain(|(key, _)| {
                st.jobs.contains_key(key)
                    || match store.load(&key.config, &key.bench, &key.budget) {
                        Some(hit) => {
                            rows.push(hit);
                            false
                        }
                        None => true,
                    }
            });
        }
        let memoized = rows.len();
        let total = pending.len();
        let fresh = pending
            .iter()
            .filter(|(key, _)| !st.jobs.contains_key(key))
            .count();
        if st.queued + fresh > self.queue_limit {
            st.stats.rejected += 1;
            return Submission::Busy {
                jobs: total,
                queued: st.queued,
                limit: self.queue_limit,
            };
        }
        let order: Vec<String> = cfgs.into_iter().map(|c| c.name).collect();
        let label = request_label(&plan.name, &id);
        let req = Arc::new(Request {
            id,
            label,
            plan,
            order,
            started: Instant::now(),
            state: Mutex::new(ReqState {
                rows,
                total,
                memoized,
                ..ReqState::default()
            }),
        });
        st.stats.submitted += (total + memoized) as u64;
        st.stats.memoized += memoized as u64;
        for (key, cfg) in pending {
            match st.jobs.get_mut(&key) {
                // Identical job already queued or running: subscribe.
                Some(job) => {
                    job.subscribers.push(req.clone());
                    coalesced += 1;
                }
                None => {
                    st.jobs.insert(
                        key.clone(),
                        Job {
                            cfg,
                            running: false,
                            subscribers: vec![req.clone()],
                        },
                    );
                    st.queue.push_back(key);
                    st.queued += 1;
                }
            }
        }
        st.stats.coalesced += coalesced as u64;
        // Workers can deliver as soon as the lock drops, but `total` was
        // fixed at construction, so no delivery can finalize before every
        // pair is registered.
        lock(&req.state).coalesced = coalesced;
        if total > 0 {
            st.requests.push(req.clone());
        }
        drop(st);
        self.work.notify_all();
        if total == 0 {
            // Entirely memoized: terminal progress (total == 0), then the
            // result, inline on the reader thread.
            self.emit_progress(&req, 0, "", "", emit);
            self.finalize(&req, emit);
        }
        Submission::Accepted {
            jobs: total,
            memoized,
            coalesced,
        }
    }

    /// One worker loop: pop jobs, simulate (memoized via the store, traces
    /// via the shared `db` handle), and deliver the row to every
    /// subscriber. Returns when the scheduler is closed and the queue is
    /// drained.
    pub fn worker(&self, store: &ResultStore, db: Option<&rcmc_emu::TraceDb>, emit: EmitFn<'_>) {
        while let Some((key, cfg)) = self.next_job() {
            let r = runner::run_pair(&cfg, &key.bench, &key.budget, store, db);
            for sub in &self.complete(&key).subscribers {
                self.deliver(sub, &key.bench, &r, emit);
            }
        }
    }

    /// Retire a finished job whose row `run_pair` has already persisted:
    /// bump `executed` (the completion count a racing
    /// [`Scheduler::submit`] re-probes on) and unregister the job.
    fn complete(&self, key: &JobKey) -> Job {
        let mut st = lock(&self.state);
        st.stats.executed += 1;
        // Cancellation never removes a running job, so the entry is still
        // there (possibly with no subscribers left).
        st.jobs.remove(key).expect("running job stays registered")
    }

    /// Cancel every live request whose id equals `target`. Returns
    /// `(found, dropped)`: whether any live request matched, and how many
    /// queued jobs were dropped (jobs other requests still subscribe to —
    /// and running jobs — are kept). Each cancelled request receives one
    /// terminal `error` event with `"reason": "cancelled"`.
    pub fn cancel(&self, target: &Value, emit: EmitFn<'_>) -> (bool, usize) {
        let victims: Vec<Arc<Request>> = {
            let st = lock(&self.state);
            st.requests
                .iter()
                .filter(|r| &r.id == target)
                .cloned()
                .collect()
        };
        self.cancel_requests(victims, emit)
    }

    /// Cancel every live request (client EOF and stream-desync path).
    /// Returns the number of queued jobs dropped.
    pub fn cancel_all(&self, emit: EmitFn<'_>) -> usize {
        let victims: Vec<Arc<Request>> = lock(&self.state).requests.clone();
        self.cancel_requests(victims, emit).1
    }

    fn cancel_requests(&self, victims: Vec<Arc<Request>>, emit: EmitFn<'_>) -> (bool, usize) {
        if victims.is_empty() {
            return (false, 0);
        }
        let mut cancelled: Vec<Arc<Request>> = Vec::new();
        let mut dropped = 0usize;
        {
            let mut st = lock(&self.state);
            for req in victims {
                let mut rs = lock(&req.state);
                // A delivery may have finalized the request between the
                // lookup and here; `done`/`cancelled` settle the race.
                if rs.done || rs.cancelled {
                    continue;
                }
                rs.cancelled = true;
                drop(rs);
                cancelled.push(req);
            }
            if !cancelled.is_empty() {
                let dead: Vec<JobKey> = st
                    .jobs
                    .iter_mut()
                    .filter_map(|(key, job)| {
                        job.subscribers
                            .retain(|s| !cancelled.iter().any(|v| Arc::ptr_eq(s, v)));
                        (job.subscribers.is_empty() && !job.running).then(|| key.clone())
                    })
                    .collect();
                // Queue entries for removed jobs become tombstones the
                // workers skip; re-walking the deque here is not needed.
                for key in dead {
                    st.jobs.remove(&key);
                    st.queued -= 1;
                    dropped += 1;
                }
                st.stats.cancelled += dropped as u64;
                st.requests
                    .retain(|r| !cancelled.iter().any(|v| Arc::ptr_eq(r, v)));
            }
        }
        for req in &cancelled {
            emit(&event(
                &req.id,
                "error",
                vec![
                    ("error", Value::Str("request cancelled".into())),
                    ("reason", Value::Str("cancelled".into())),
                    ("plan", Value::Str(req.plan.name.clone())),
                ],
            ));
        }
        (!cancelled.is_empty(), dropped)
    }

    /// Pop the next runnable job, waiting while the queue is empty, until
    /// the scheduler is closed and drained. Purges all queued work first
    /// whenever the client has disconnected.
    fn next_job(&self) -> Option<(JobKey, SimConfig)> {
        let mut st = lock(&self.state);
        loop {
            if self.disconnected.load(Ordering::Relaxed) {
                Self::purge(&mut st);
            }
            while let Some(key) = st.queue.pop_front() {
                // Tombstone (cancelled) or already-claimed key: skip.
                let Some(job) = st.jobs.get_mut(&key) else {
                    continue;
                };
                if job.running {
                    continue;
                }
                job.running = true;
                let cfg = job.cfg.clone();
                st.queued -= 1;
                return Some((key, cfg));
            }
            if st.closed {
                return None;
            }
            st = self.work.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Disconnect cleanup: cancel every live request and drop every
    /// queued job, without emitting (the client is gone). Idempotent.
    fn purge(st: &mut MutexGuard<'_, SchedState>) {
        for req in &st.requests {
            lock(&req.state).cancelled = true;
        }
        st.requests.clear();
        let before = st.jobs.len();
        st.jobs.retain(|_, job| job.running);
        let dropped = before - st.jobs.len();
        st.queue.clear();
        st.queued = 0;
        st.stats.cancelled += dropped as u64;
    }

    /// Hand one finished row to a subscriber: append it, emit the
    /// request's `progress` event (and the stderr status line when
    /// enabled), and finalize once the last job lands.
    fn deliver(&self, req: &Arc<Request>, bench: &str, r: &RunResult, emit: EmitFn<'_>) {
        let complete = {
            let mut rs = lock(&req.state);
            if rs.cancelled || rs.done {
                return;
            }
            rs.rows.push(r.clone());
            rs.finished += 1;
            let finished = rs.finished;
            let memoized = rs.memoized;
            let total = rs.total;
            // Emitted under the request lock so `finished` is strictly
            // increasing on the wire (the serve contract).
            emit(&event(
                &req.id,
                "progress",
                vec![
                    ("finished", Value::Num(finished as f64)),
                    ("total", Value::Num(total as f64)),
                    ("memoized", Value::Num(memoized as f64)),
                    ("config", Value::Str(r.config.clone())),
                    ("bench", Value::Str(bench.to_string())),
                    ("label", Value::Str(req.label.clone())),
                ],
            ));
            if self.stderr_progress {
                SweepProgress {
                    label: &req.label,
                    finished,
                    total,
                    memoized,
                    elapsed_s: req.started.elapsed().as_secs_f64(),
                    config: &r.config,
                    bench,
                }
                .eprint_status();
            }
            finished == total
        };
        if complete {
            self.finalize(req, emit);
        }
    }

    /// Emit one `progress` event for `req` outside the delivery path (the
    /// all-memoized terminal event).
    fn emit_progress(
        &self,
        req: &Arc<Request>,
        finished: usize,
        config: &str,
        bench: &str,
        emit: EmitFn<'_>,
    ) {
        let (total, memoized) = {
            let rs = lock(&req.state);
            (rs.total, rs.memoized)
        };
        emit(&event(
            &req.id,
            "progress",
            vec![
                ("finished", Value::Num(finished as f64)),
                ("total", Value::Num(total as f64)),
                ("memoized", Value::Num(memoized as f64)),
                ("config", Value::Str(config.to_string())),
                ("bench", Value::Str(bench.to_string())),
                ("label", Value::Str(req.label.clone())),
            ],
        ));
        if self.stderr_progress {
            SweepProgress {
                label: &req.label,
                finished,
                total,
                memoized,
                elapsed_s: req.started.elapsed().as_secs_f64(),
                config,
                bench,
            }
            .eprint_status();
        }
    }

    /// All rows in: assemble the deterministic [`ResultSet`] (same
    /// canonical ordering as a solo run — coalesced results are
    /// bit-identical), render the plan's reports, and emit the `result`.
    fn finalize(&self, req: &Arc<Request>, emit: EmitFn<'_>) {
        let (rows, total, memoized, coalesced) = {
            let mut rs = lock(&req.state);
            if rs.cancelled || rs.done {
                return;
            }
            rs.done = true;
            (
                std::mem::take(&mut rs.rows),
                rs.total,
                rs.memoized,
                rs.coalesced,
            )
        };
        lock(&self.state).requests.retain(|r| !Arc::ptr_eq(r, req));
        let mut map = runner::Results::new();
        for r in rows {
            map.insert((r.config.clone(), r.bench.clone()), r);
        }
        let rs = ResultSet::from_map(map);
        let stats = obj(vec![
            ("jobs", Value::Num((total + memoized) as f64)),
            ("executed", Value::Num((total - coalesced) as f64)),
            ("coalesced", Value::Num(coalesced as f64)),
            ("memoized", Value::Num(memoized as f64)),
        ]);
        emit(&result_event(&req.id, &req.plan, &req.order, &rs, stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_finishing_between_memo_pass_and_registration_is_not_rerun() {
        let dir = std::env::temp_dir().join(format!("rcmc-sched-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::at(dir.clone());
        let plan = Plan::from_json(
            r#"{"name": "race", "configs": [{"topology": "ring", "clusters": 4}],
                "benches": ["gzip"], "budget": {"warmup": 100, "measure": 500}}"#,
        )
        .unwrap();
        let (cfgs, benches) = plan.resolve().unwrap();
        let budget = plan.budget.unwrap_or_default();
        let emit = |_: &Value| true;
        let sched = Scheduler::new(8, false);
        // Request a enqueues the job.
        sched.submit(
            Value::Num(1.0),
            plan.clone(),
            cfgs.clone(),
            benches.clone(),
            &store,
            &emit,
        );
        // Request b's memo pass runs before the job does, so it misses.
        let memo = sched.memo_pass(&cfgs, &benches, &budget, &store);
        assert_eq!(memo.pending.len(), 1);
        // The job runs, persists its row and leaves the registry...
        let (key, cfg) = sched.next_job().expect("request a queued a job");
        runner::run_pair(&cfg, &key.bench, &key.budget, &store, None);
        sched.complete(&key);
        // ...before b registers: b must take the row from the store.
        let b = sched.register(Value::Num(2.0), plan, cfgs, memo, &store, &emit);
        assert!(
            matches!(
                b,
                Submission::Accepted {
                    jobs: 0,
                    memoized: 1,
                    coalesced: 0
                }
            ),
            "request b re-enqueued a finished job"
        );
        let st = lock(&sched.state);
        assert!(st.jobs.is_empty() && st.queued == 0, "nothing left to run");
        assert_eq!((st.stats.executed, st.stats.memoized), (1, 1));
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
