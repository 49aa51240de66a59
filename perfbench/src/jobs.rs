//! Simulation driven job by job through the public per-layer calls (the
//! traced run), and the per-job timing a `Session` sweep reports through
//! its progress callback (the untraced run).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rcmc_core::Core;
use rcmc_emu::TraceDb;
use rcmc_sim::runner::{cached_trace_via, reduce_metrics, store_name};
use rcmc_sim::{Budget, ResultStore, RunResult, SimConfig, SweepProgress};

use serde::Serialize as _;

use crate::spans::Tracer;

/// Per-layer cost and counters of one simulated job.
#[derive(Clone, Debug, Default)]
pub struct JobCost {
    pub config: String,
    pub new_s: f64,
    pub run_s: f64,
    pub reduce_s: f64,
    pub save_s: f64,
    pub miss_s: f64,
    /// Cycles simulated (warm-up and measurement windows).
    pub cycles: u64,
    /// Instructions committed (warm-up and measurement windows).
    pub committed: u64,
    /// Cycles fast-forwarded instead of stepped.
    pub skipped: u64,
    pub row_bytes: u64,
}

/// Run `jobs` on `workers` threads exactly as the sweep engine does
/// (store probe → trace → `Core::new` → `run_with_warmup` → reduce →
/// save), one span per call. Rows come back in job order.
pub fn simulate(
    jobs: &[(SimConfig, String)],
    budget: &Budget,
    db: &TraceDb,
    store: &ResultStore,
    workers: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Vec<RunResult>, Vec<JobCost>) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<(RunResult, JobCost)>>> = Mutex::new(vec![None; jobs.len()]);
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, jobs.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((cfg, bench)) = jobs.get(i) else {
                    break;
                };
                let done = tracer.span("bench.job", parent, i as u64, |job| {
                    one_job(cfg, bench, budget, db, store, tracer, job, i as u64)
                });
                out.lock().expect("job results poisoned")[i] = Some(done.0);
            });
        }
    });
    out.into_inner()
        .expect("job results poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .unzip()
}

#[allow(clippy::too_many_arguments)]
fn one_job(
    cfg: &SimConfig,
    bench: &str,
    budget: &Budget,
    db: &TraceDb,
    store: &ResultStore,
    tracer: &Tracer,
    parent: Option<u64>,
    id: u64,
) -> (RunResult, JobCost) {
    let key = store_name(cfg);
    let mut cost = JobCost {
        config: cfg.name.clone(),
        ..JobCost::default()
    };
    let (hit, dt) = tracer.span("store.load", parent, id, |_| {
        store.load(&key, bench, budget)
    });
    cost.miss_s = dt;
    assert!(hit.is_none(), "cold store already holds {key} × {bench}");
    let (trace, _) = tracer.span("runner.trace", parent, id, |_| {
        cached_trace_via(bench, budget.trace_len(), Some(db))
    });
    let (mut core, dt) = tracer.span("core.new", parent, id, |_| {
        Core::new(cfg.core.clone(), cfg.mem, cfg.pred, &trace)
    });
    cost.new_s = dt;
    let (stats, dt) = tracer.span("core.run", parent, id, |_| {
        core.run_with_warmup(budget.warmup, budget.measure)
    });
    cost.run_s = dt;
    cost.cycles = core.cycle();
    cost.committed = core.stats().committed;
    cost.skipped = core.skipped_cycles();
    let (row, dt) = tracer.span("runner.reduce", parent, id, |_| {
        reduce_metrics(cfg, bench, &stats)
    });
    cost.reduce_s = dt;
    let (saved, dt) = tracer.span("store.save", parent, id, |_| {
        store.save(&key, bench, budget, &row)
    });
    cost.save_s = dt;
    assert!(saved, "result store is not writable");
    // The store persists rows pretty-printed.
    cost.row_bytes = row.to_value().to_pretty_string().len() as u64;
    (row, cost)
}

/// Reload every job's row from the (now warm) store, one span per call.
pub fn reload(
    jobs: &[(SimConfig, String)],
    budget: &Budget,
    store: &ResultStore,
    tracer: &Tracer,
    parent: Option<u64>,
) -> (Vec<Option<RunResult>>, f64) {
    let mut total = 0.0;
    let rows = jobs
        .iter()
        .enumerate()
        .map(|(i, (cfg, bench))| {
            let (row, dt) = tracer.span("store.load", parent, i as u64, |_| {
                store.load(&store_name(cfg), bench, budget)
            });
            total += dt;
            row
        })
        .collect();
    (rows, total)
}

/// Collects a `Session` sweep's per-job progress events: which worker
/// thread finished a job, and when (seconds since the sweep's execution
/// phase started).
#[derive(Default)]
pub struct JobClock {
    events: Mutex<Vec<(std::thread::ThreadId, f64)>>,
}

/// Per-job durations and worker occupancy of one `Session` sweep.
pub struct PoolTiming {
    /// Wall time of each executed job (gap to the previous completion on
    /// its worker; the first job on a worker counts from the start).
    pub job_s: Vec<f64>,
    /// Summed job time over (sweep wall × workers).
    pub busy_frac: f64,
    /// From the first worker running out of jobs to the last job's end.
    pub tail_s: f64,
}

impl JobClock {
    pub fn record(&self, p: &SweepProgress<'_>) {
        if p.total > 0 {
            self.events
                .lock()
                .expect("job clock poisoned")
                .push((std::thread::current().id(), p.elapsed_s));
        }
    }

    /// Per-worker reconstruction of the sweep's job timeline.
    pub fn timing(self, wall_s: f64, workers: usize) -> PoolTiming {
        let mut events = self.events.into_inner().expect("job clock poisoned");
        events.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut last: Vec<(std::thread::ThreadId, f64)> = Vec::new();
        let mut job_s = Vec::with_capacity(events.len());
        for (tid, t) in events {
            match last.iter_mut().find(|(id, _)| *id == tid) {
                Some(slot) => {
                    job_s.push(t - slot.1);
                    slot.1 = t;
                }
                None => {
                    job_s.push(t);
                    last.push((tid, t));
                }
            }
        }
        let end = last.iter().map(|l| l.1).fold(0.0, f64::max);
        let first_idle = if last.len() < workers {
            0.0
        } else {
            last.iter().map(|l| l.1).fold(f64::INFINITY, f64::min)
        };
        PoolTiming {
            busy_frac: job_s.iter().sum::<f64>() / (wall_s * workers as f64),
            tail_s: (end - first_idle).max(0.0),
            job_s,
        }
    }
}
