//! The sweep workloads: a cold `(config × bench)` sweep through a
//! `Session`, then the same plan re-run on the now-warm result store.
//!
//! * `sweep_paper` — the `paper2005` machine on ring, conv, crossbar,
//!   mesh and hier; equal numbers of INT and FP benchmarks. The core's
//!   hot loop does nearly all the work and idle fast-forward skips about
//!   half the cycles.
//! * `sweep_slowmem` — the `slowmem` family on ring and conv, each also
//!   with `rob` 64 and 512; memory-bound benchmarks only. Fast-forward and
//!   LSQ/miss handling do the work and most cycles are skipped.
//!
//! Benchmarks are sampled per seed with one pick from each stratum: a
//! group of benchmarks of similar simulation cost per job, whose costliest
//! (config, bench) jobs also cost about the same. Every seed thus gets
//! different programs but a comparable amount of work and a comparable
//! slowest job, so rates and the job-latency tail compare across seeds.
//! Benchmarks that fit no stratum are left out: twolf (its cost differs
//! sharply by topology), and the costliest memory-bound pair, applu and
//! equake, whose slowest jobs differ by 15%. mcf (IPC 0.1) is a
//! `sweep_slowmem` program only, so `sweep_paper` stays a core-bound sweep.

use std::time::Instant;

use rcmc_emu::TraceDb;
use rcmc_sim::plan::{ConfigSpec, Plan, ReportSpec};
use rcmc_sim::runner::cached_trace_via;
use rcmc_sim::{Budget, Metric, ResultSet, ResultStore, Session};
use serde::json::Value;
use serde::Serialize as _;

use crate::jobs::{self, JobClock};
use crate::spans::Tracer;
use crate::stats::{digest_rows, hex, peak_rss_mb, percentile};
use crate::{setup, Ctx, Outcome};

/// Window of every sweep job: short enough that a run holds over a
/// thousand jobs, long enough that per-job set-up is a small share.
pub const BUDGET: Budget = Budget {
    warmup: 2_000,
    measure: 24_000,
};

/// Warm re-runs of the plan per cold sweep (each is a few milliseconds),
/// and as many whole warm requests.
const WARM_REPEATS: usize = 5;

const PAPER_INT: &[&[&str]] = &[
    &["crafty", "parser"],
    &["bzip2", "gcc", "perlbmk"],
    &["eon", "gap"],
    &["gzip", "vortex"],
];
const PAPER_FP: &[&[&str]] = &[
    &["art", "mesa"],
    &["apsi", "facerec", "fma3d"],
    &["galgel", "lucas"],
    &["mgrid", "swim"],
];
const PAPER_TOPOLOGIES: &[&str] = &["ring", "conv", "crossbar", "mesh", "hier"];

/// Memory-bound benchmarks (IPC at least halves behind slow memory).
const SLOWMEM_BENCHES: &[&[&str]] = &[
    &["lucas", "mgrid"],
    &["swim", "wupwise"],
    &["art", "facerec", "vpr"],
    &["mcf", "vortex"],
    &["bzip2", "gap", "gcc", "perlbmk"],
];
const SLOWMEM_ROBS: &[Option<u32>] = &[None, Some(64), Some(512)];

/// The seeded plan of a sweep workload (`None` for other names).
pub fn plan_for(workload: &str, seed: u64) -> Option<Plan> {
    let mut rng = crate::stats::Rng::new(seed);
    let mut pick = |strata: &[&[&str]]| -> Vec<String> {
        strata.iter().map(|s| rng.pick(s).to_string()).collect()
    };
    let (configs, benches) = match workload {
        "sweep_paper" => {
            let mut benches = pick(PAPER_INT);
            benches.extend(pick(PAPER_FP));
            let configs: Vec<ConfigSpec> = PAPER_TOPOLOGIES
                .iter()
                .map(|t| axes("paper2005", t, None))
                .collect();
            (configs, benches)
        }
        "sweep_slowmem" => {
            let configs = ["ring", "conv"]
                .iter()
                .flat_map(|t| SLOWMEM_ROBS.iter().map(move |rob| axes("slowmem", t, *rob)))
                .collect();
            (configs, pick(SLOWMEM_BENCHES))
        }
        _ => return None,
    };
    let mut plan = Plan::new(workload).benches(benches).budget(BUDGET);
    plan.configs = configs;
    // The paper's question, asked of every sample: Ring over Conv.
    let names: Vec<String> = plan
        .resolve_configs()
        .expect("sweep configurations resolve")
        .into_iter()
        .map(|c| c.name)
        .collect();
    let half = names.len() / 2;
    let pairs = match workload {
        "sweep_paper" => vec![(names[0].clone(), names[1].clone())],
        _ => (0..half)
            .map(|i| (names[i].clone(), names[half + i].clone()))
            .collect(),
    };
    Some(
        plan.report(ReportSpec::grouped(Metric::Ipc))
            .report(ReportSpec::speedup(pairs)),
    )
}

fn axes(machine: &str, topology: &str, rob: Option<u32>) -> ConfigSpec {
    let mut spec = ConfigSpec::for_machine(machine);
    spec.topology = Some(topology.to_string());
    match rob {
        Some(rob) => spec.with_override("rob", Value::Num(rob as f64)),
        None => spec,
    }
}

/// Simulated instructions (warm-up plus measured window) of `rs`.
fn sim_insns(rs: &ResultSet) -> f64 {
    rs.rows()
        .iter()
        .map(|r| (BUDGET.warmup + r.committed) as f64)
        .sum()
}

pub fn run(ctx: &Ctx, plan: Plan, out: &mut Outcome) -> Result<(), String> {
    let spec = plan.to_json();
    let len = BUDGET.trace_len();

    // Set-up, several times over, each into an empty trace store.
    let (reps, db) = setup::repeat(ctx, &plan.benches, len, |dir| {
        let session = open_session(ctx, dir, "store-setup");
        plan.resolve_in(session.trace_db()).map(|_| ())
    })?;
    out.setup(&reps, len, plan.benches.len());
    // Fill the process trace cache so cold sweeps time simulation only.
    for b in &plan.benches {
        cached_trace_via(b, len, Some(&db));
    }

    let parsed = Plan::from_json(&spec)?;
    if parsed != plan {
        return Err("plan does not round-trip through its JSON spec".into());
    }
    let (cfgs, benches) = plan.resolve_in(Some(&db))?;
    let order: Vec<String> = cfgs.iter().map(|c| c.name.clone()).collect();
    let jobs: Vec<_> = cfgs
        .iter()
        .flat_map(|c| benches.iter().map(move |b| (c.clone(), b.clone())))
        .collect();
    out.detail(
        "configs",
        Value::Arr(order.iter().cloned().map(Value::Str).collect()),
    );
    out.detail(
        "benches",
        Value::Arr(benches.iter().cloned().map(Value::Str).collect()),
    );

    let mut reference: Option<ResultSet> = None;
    let mut check = |rs: &ResultSet, what: &str, out: &mut Outcome| {
        out.attempted += rs.len() as u64;
        let ok = rs.len() == jobs.len()
            && match &reference {
                Some(want) => rs == want,
                None => {
                    reference = Some(rs.clone());
                    true
                }
            };
        if !ok {
            out.fail(
                rs.len() as u64,
                format!("{what} rows differ from the first cold sweep"),
            );
        }
    };

    let started = Instant::now();
    let mut iter = 0usize;
    let mut rates = Vec::new();
    let mut requests_per_s = Vec::new();
    let mut memo_rates = Vec::new();
    let (mut p50_ms, mut p99_ms) = (Vec::new(), Vec::new());
    while iter == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        // Cold sweep through the session, timed per job via its callback.
        let store_dir = format!("store-{iter}");
        let session = open_session(ctx, db.dir(), &store_dir);
        let clock = JobClock::default();
        let record = |p: &rcmc_sim::SweepProgress<'_>| clock.record(p);
        let t = Instant::now();
        let rs = session.run_streaming(&plan, &record)?;
        let cold_s = t.elapsed().as_secs_f64();
        check(&rs, "cold sweep", out);
        let timing = clock.timing(cold_s, ctx.workers);
        rates.push(sim_insns(&rs) / cold_s / 1e6);
        // Job-latency percentiles per sweep, so that a burst of host load
        // during a few sweeps does not decide the run's tail.
        let ms: Vec<f64> = timing.job_s.iter().map(|s| s * 1e3).collect();
        p50_ms.push(percentile(&ms, 0.50));
        p99_ms.push(percentile(&ms, 0.99));

        if ctx.trace {
            out.sample("session.busy_frac", timing.busy_frac);
            out.sample("session.tail_s", timing.tail_s);
            let (traced, traced_cold_s) =
                traced_iteration(ctx, &plan, &spec, &db, &jobs, &order, iter, out)?;
            check(&traced, "traced", out);
            out.sample("trace.overhead_frac", traced_cold_s / cold_s - 1.0);
        } else {
            for _ in 0..WARM_REPEATS {
                let t = Instant::now();
                let warm = session.run(&plan)?;
                memo_rates.push(warm.len() as f64 / t.elapsed().as_secs_f64());
                check(&warm, "warm re-run", out);
            }
            for _ in 0..WARM_REPEATS {
                let t = Instant::now();
                let warm = warm_request(ctx, &spec, db.dir(), &store_dir, &order)?;
                requests_per_s.push(1.0 / t.elapsed().as_secs_f64());
                check(&warm, "warm request", out);
            }
        }
        drop(session);
        let _ = std::fs::remove_dir_all(ctx.work.join(&store_dir));
        iter += 1;
    }
    out.iterations = iter;

    let rs = reference.expect("at least one sweep ran");
    let digest = digest_rows(rs.rows());
    out.pin_check(&ctx.workload, ctx.seed, digest);
    out.detail("digest", Value::Str(hex(digest)));
    out.detail("rows", Value::Num(rs.len() as f64));
    let reports: Vec<Value> = plan
        .render_reports_for(&rs, &order)?
        .into_iter()
        .map(|r| Value::Str(r.text))
        .collect();
    out.detail("reports", Value::Arr(reports));
    if !ctx.trace {
        out.samples("sim_minsns_per_s", &rates);
        out.samples("memo_rows_per_s", &memo_rates);
        out.samples("requests_per_s", &requests_per_s);
        out.samples("p50_ms", &p50_ms);
        out.samples("p99_ms", &p99_ms);
        out.samples(
            "peak_rss_mb",
            &[peak_rss_mb(std::process::id()).unwrap_or(f64::NAN)],
        );
    }
    Ok(())
}

/// The plan as a client would request it again: its JSON spec parsed,
/// a session opened on the warm result store, the plan run and its
/// reports rendered.
fn warm_request(
    ctx: &Ctx,
    spec: &str,
    traces: &std::path::Path,
    store: &str,
    order: &[String],
) -> Result<ResultSet, String> {
    let plan = Plan::from_json(spec)?;
    let rs = open_session(ctx, traces, store).run(&plan)?;
    plan.render_reports_for(&rs, order)?;
    Ok(rs)
}

fn open_session(ctx: &Ctx, traces: &std::path::Path, store: &str) -> Session {
    Session::with_store(ResultStore::at(ctx.work.join(store)))
        .with_jobs(ctx.workers)
        .with_trace_store(TraceDb::at(traces.to_path_buf()))
}

/// One traced iteration: the plan's layers called one by one (parse,
/// resolve, every job's simulate/reduce/save, warm reloads, report
/// rendering, JSON encode/parse of the rows). Returns the traced rows and
/// the wall time of the traced cold pass.
#[allow(clippy::too_many_arguments)]
fn traced_iteration(
    ctx: &Ctx,
    plan: &Plan,
    spec: &str,
    db: &TraceDb,
    jobs: &[(rcmc_sim::SimConfig, String)],
    order: &[String],
    iter: usize,
    out: &mut Outcome,
) -> Result<(ResultSet, f64), String> {
    let tracer: &Tracer = &ctx.tracer;
    let id = iter as u64;
    let store_dir = ctx.work.join(format!("store-traced-{iter}"));
    let store = ResultStore::at(store_dir.clone());
    let (r, _) = tracer.span(
        "bench.iteration",
        None,
        id,
        |p| -> Result<(ResultSet, f64), String> {
            let (parsed, dt) = tracer.span("plan.parse", p, id, |_| Plan::from_json(spec));
            out.sample("plan.parse_us", dt * 1e6);
            let parsed = parsed?;
            let (resolved, dt) =
                tracer.span("plan.resolve", p, id, |_| parsed.resolve_in(Some(db)));
            out.sample("plan.resolve_us", dt * 1e6);
            resolved?;
            let ((rows, costs), cold_s) = tracer.span("bench.cold", p, id, |p| {
                jobs::simulate(jobs, &BUDGET, db, &store, ctx.workers, tracer, p)
            });
            out.core_costs(&costs);
            let (warm, load_s) = jobs::reload(jobs, &BUDGET, &store, tracer, p);
            out.sample("store.load_s", load_s);
            // Lookups: each job's cold probe (a miss) plus its warm reload.
            let hits = warm.iter().filter(|w| w.is_some()).count();
            out.sample("store.hit_rate", hits as f64 / (2 * jobs.len()) as f64);
            if warm.iter().zip(&rows).any(|(w, r)| w.as_ref() != Some(r)) {
                out.fail(
                    rows.len() as u64,
                    "warm reload differs from the traced rows".into(),
                );
            }
            let rs = ResultSet::from_rows(rows);
            let (rendered, dt) = tracer.span("plan.render", p, id, |_| {
                plan.render_reports_for(&rs, order)
            });
            out.sample("plan.render_us", dt * 1e6);
            rendered?;
            let rows_value = Value::Arr(rs.rows().iter().map(|r| r.to_value()).collect());
            let (text, dt) = tracer.span("json.encode", p, id, |_| rows_value.to_compact_string());
            let kb = text.len() as f64 / 1024.0;
            out.sample("json.encode_us_per_kb", dt * 1e6 / kb);
            let (back, dt) = tracer.span("json.parse", p, id, |_| serde::json::parse(&text));
            out.sample("json.parse_us_per_kb", dt * 1e6 / kb);
            if back.as_ref() != Some(&rows_value) {
                out.fail(
                    rs.len() as u64,
                    "rows do not round-trip through JSON".into(),
                );
            }
            Ok((rs, cold_s))
        },
    );
    let _ = std::fs::remove_dir_all(store_dir);
    r
}
