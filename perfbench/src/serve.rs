//! `serve_mixed`: two closed-loop clients against an `rcmc serve` child.
//!
//! One benchmark process drives one child over its pipes; the two clients
//! are multiplexed by request `id`, and each sends its next request only
//! after its previous result arrived. The seeded script of small plans
//! (1–3 configs × 1–3 benches, fixed small budget) mixes:
//!
//! * **hit** — a repeat of one of the client's own earlier requests,
//!   answered from the result store;
//! * **coalesced** — a new request both clients send at once (when both
//!   reach it), which the scheduler runs once;
//! * **fresh** — a new configuration (seeded `overrides` of
//!   rob/lsq/iq/dcount_threshold) that re-uses the stored traces, so it
//!   simulates without emulating;
//! * **first touch** — any request that is the first in its round to use
//!   a benchmark (the child decodes that trace from the trace store).
//!
//! Each round starts a fresh child on a fresh result store and the trace
//! store set-up filled, and replays the whole script; rounds repeat until
//! the run's time is up.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use rcmc_emu::TraceDb;
use rcmc_sim::plan::{ConfigSpec, Plan, ReportSpec};
use rcmc_sim::{Budget, Metric, ResultSet, ResultStore, RunResult, Session};
use serde::json::Value;

use crate::jobs::{self, JobClock};
use crate::stats::{digest_rows, hex, median, peak_rss_mb, row_text, Rng};
use crate::{setup, Ctx, Outcome};

/// Window of every served job.
pub const BUDGET: Budget = Budget {
    warmup: 1_000,
    measure: 8_000,
};

/// Requests of one round by class: repeats answered from the store,
/// identical pairs sent by both clients, and fresh configurations. Fixed
/// counts (only the order and contents are seeded) keep the traffic mix,
/// and so the latency percentiles, comparable across seeds.
const HITS: usize = 432;
const PAIRS: usize = 45;
const FRESH: usize = 198;

/// Every new request's `(configs, benches)` shape, used equally often.
const SHAPES: [(usize, usize); 9] = [
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 1),
    (2, 2),
    (2, 3),
    (3, 1),
    (3, 2),
    (3, 3),
];

const INT: &[&[&str]] = &[
    &["crafty", "parser"],
    &["bzip2", "mcf", "perlbmk", "vortex"],
    &["eon", "gap", "gzip", "vpr"],
];
const FP: &[&[&str]] = &[
    &["ammp", "art"],
    &["facerec", "fma3d", "lucas", "sixtrack"],
    &["apsi", "swim", "wupwise"],
];
const TOPOLOGIES: &[&str] = &["ring", "conv", "crossbar", "mesh", "hier"];
const OVERRIDES: &[(&str, &[f64])] = &[
    (
        "rob",
        &[48.0, 64.0, 96.0, 160.0, 192.0, 256.0, 320.0, 384.0],
    ),
    ("lsq", &[16.0, 24.0, 32.0, 48.0, 96.0, 128.0]),
    ("iq_int", &[8.0, 12.0, 20.0, 24.0, 32.0]),
    ("iq_fp", &[8.0, 12.0, 20.0, 24.0, 32.0]),
    (
        "dcount_threshold",
        &[4.0, 6.0, 10.0, 12.0, 20.0, 24.0, 32.0],
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Hit,
    Coalesced,
    Fresh,
    FirstTouch,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Coalesced => "coalesced",
            Class::Fresh => "fresh",
            Class::FirstTouch => "first_touch",
        }
    }
}

/// One distinct request plan of the script.
struct Request {
    plan: Plan,
    /// The plan as the JSON object sent on the wire.
    wire: Value,
    benches: Vec<String>,
    shape: (usize, usize),
    jobs: usize,
}

/// One step of a client's script; `Coalesced` steps are sent by both
/// clients together.
#[derive(Clone, Copy)]
struct Step {
    req: usize,
    class: Class,
}

struct Script {
    benches: Vec<String>,
    requests: Vec<Request>,
    clients: [Vec<Step>; 2],
}

impl Script {
    fn generate(seed: u64) -> Script {
        let mut rng = Rng::new(seed);
        let benches: Vec<String> = INT
            .iter()
            .chain(FP)
            .map(|s| rng.pick(s).to_string())
            .collect();
        // Seeded order of classes and of new-request shapes; each client
        // opens with a fresh request so every hit has history to repeat.
        let mut classes = vec![Class::Hit; HITS];
        classes.extend([Class::Coalesced; PAIRS]);
        classes.extend([Class::Fresh; FRESH - 2]);
        shuffle(&mut rng, &mut classes);
        classes.splice(0..0, [Class::Fresh; 2]);
        let mut shapes: Vec<(usize, usize)> = SHAPES
            .iter()
            .copied()
            .cycle()
            .take((PAIRS + FRESH).div_ceil(SHAPES.len()) * SHAPES.len())
            .collect();
        shuffle(&mut rng, &mut shapes);

        let mut names = BTreeSet::new();
        let mut requests: Vec<Request> = Vec::new();
        let mut clients: [Vec<Step>; 2] = [Vec::new(), Vec::new()];
        let mut hit_shapes = shapes.clone();
        shuffle(&mut rng, &mut hit_shapes);
        let mut solo = 0;
        for class in classes {
            // Solo steps alternate between the clients.
            let c = solo % 2;
            if class != Class::Coalesced {
                solo += 1;
            }
            let req = match class {
                Class::Hit => {
                    // A repeat of an earlier request of the next shape in
                    // a balanced rotation, when the client has one.
                    let want = hit_shapes[solo % hit_shapes.len()];
                    let own: Vec<usize> = clients[c].iter().map(|s| s.req).collect();
                    let same: Vec<usize> = own
                        .iter()
                        .copied()
                        .filter(|&r| requests[r].shape == want)
                        .collect();
                    *rng.pick(if same.is_empty() { &own } else { &same })
                }
                _ => {
                    let shape = shapes[requests.len()];
                    let req = new_request(&mut rng, &benches, &mut names, requests.len(), shape);
                    requests.push(req);
                    requests.len() - 1
                }
            };
            for (k, steps) in clients.iter_mut().enumerate() {
                if class == Class::Coalesced || k == c {
                    steps.push(Step { req, class });
                }
            }
        }
        Script {
            benches,
            requests,
            clients,
        }
    }

    fn steps(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A new plan of `shape` whose configurations no earlier request used.
fn new_request(
    rng: &mut Rng,
    benches: &[String],
    names: &mut BTreeSet<String>,
    n: usize,
    (n_cfg, n_bench): (usize, usize),
) -> Request {
    let mut plan = Plan::new(format!("q{n}")).budget(BUDGET);
    while plan.configs.len() < n_cfg {
        let mut spec = ConfigSpec::for_machine("paper2005");
        spec.topology = Some(rng.pick(TOPOLOGIES).to_string());
        let first = rng.below(OVERRIDES.len());
        let keys = [
            first,
            (first + 1 + rng.below(OVERRIDES.len() - 1)) % OVERRIDES.len(),
        ];
        for &k in &keys[..1 + rng.below(2)] {
            let (key, values) = OVERRIDES[k];
            spec = spec.with_override(key, Value::Num(*rng.pick(values)));
        }
        if let Ok(cfgs) = spec.resolve() {
            if names.insert(cfgs[0].name.clone()) {
                plan.configs.push(spec);
            }
        }
    }
    let mut picked: Vec<String> = Vec::new();
    while picked.len() < n_bench {
        let b = rng.pick(benches).clone();
        if !picked.contains(&b) {
            picked.push(b);
        }
    }
    plan = plan
        .benches(picked.clone())
        .report(ReportSpec::grouped(Metric::Ipc));
    let wire = serde::json::parse(&plan.to_json()).expect("plans render valid JSON");
    Request {
        shape: (n_cfg, n_bench),
        jobs: n_cfg * n_bench,
        plan,
        wire,
        benches: picked,
    }
}

/// A running `rcmc serve` child and its pipes; killed if dropped early.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(rcmc: &Path, jobs: usize, store: &Path, traces: &Path) -> Result<Server, String> {
        let mut child = Command::new(rcmc)
            .arg("serve")
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--store")
            .arg(store)
            .arg("--trace-store")
            .arg(traces)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rcmc.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdin,
            stdout,
        };
        server.send(&[r#"{"id":"ping","op":"ping"}"#.to_string()])?;
        server.wait_for("pong")?;
        Ok(server)
    }

    fn send(&mut self, lines: &[String]) -> Result<(), String> {
        let mut buf = String::new();
        for l in lines {
            buf.push_str(l);
            buf.push('\n');
        }
        self.stdin
            .write_all(buf.as_bytes())
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("serve child stopped reading: {e}"))
    }

    fn next_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("serve child closed its output".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading from serve child: {e}")),
        }
    }

    fn wait_for(&mut self, event: &str) -> Result<Value, String> {
        loop {
            let line = self.next_line()?;
            let v = serde::json::parse(&line).ok_or("serve child wrote invalid JSON")?;
            if v.get("event") == Some(&Value::Str(event.into())) {
                return Ok(v);
            }
        }
    }

    /// Scheduler counters via the `stats` op.
    fn stats(&mut self) -> Result<BTreeMap<String, f64>, String> {
        self.send(&[r#"{"id":"stats","op":"stats"}"#.to_string()])?;
        let v = self.wait_for("stats")?;
        let Some(Value::Obj(fields)) = v.get("scheduler") else {
            return Err("stats event without scheduler counters".into());
        };
        Ok(fields
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect())
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.send(&[r#"{"id":"bye","op":"shutdown"}"#.to_string()])?;
        self.wait_for("bye")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("serve child exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one client step observed: its class as sent (a first touch
/// overrides the script class), its latency and the served rows.
struct Served {
    class: Class,
    ms: f64,
    rows: Vec<String>,
}

/// Everything one round observed.
struct Round {
    /// Send of the first request to the last result.
    wall_s: f64,
    /// Per client, one entry per script step, in order.
    served: [Vec<Served>; 2],
    failed: u64,
    errors: Vec<String>,
    scheduler: BTreeMap<String, f64>,
    rss_mb: f64,
    /// Every line sent and received, for the JSON replay.
    lines: Vec<String>,
}

impl Round {
    fn all(&self) -> impl Iterator<Item = &Served> {
        self.served.iter().flatten()
    }
}

/// Per-client progress through its script.
#[derive(Default)]
struct Cursor {
    next: usize,
    in_flight: Option<(Instant, Class)>,
}

fn request_line(script: &Script, client: usize, pos: usize) -> String {
    let step = script.clients[client][pos];
    Value::Obj(vec![
        ("id".into(), Value::Str(format!("c{client}-{pos}"))),
        ("op".into(), Value::Str("run".into())),
        ("plan".into(), script.requests[step.req].wire.clone()),
    ])
    .to_compact_string()
}

/// Run the whole script once against a fresh child.
fn round(
    ctx: &Ctx,
    script: &Script,
    traces: &Path,
    n: usize,
    parent: Option<u64>,
) -> Result<Round, String> {
    let rcmc = ctx
        .rcmc
        .as_deref()
        .ok_or("serve_mixed needs --rcmc <path to the rcmc binary>")?;
    let store = ctx.work.join(format!("serve-store-{n}"));
    let mut server = Server::spawn(rcmc, ctx.workers, &store, traces)?;
    let mut out = Round {
        wall_s: 0.0,
        served: [Vec::new(), Vec::new()],
        failed: 0,
        errors: Vec::new(),
        scheduler: BTreeMap::new(),
        rss_mb: f64::NAN,
        lines: Vec::new(),
    };
    let mut cursors = [Cursor::default(), Cursor::default()];
    let mut touched: BTreeSet<&str> = BTreeSet::new();
    let started = Instant::now();
    loop {
        // Send whatever the idle clients may send now.
        let mut batch = Vec::new();
        for c in 0..2 {
            let cur = &cursors[c];
            if cur.in_flight.is_some() || cur.next >= script.clients[c].len() {
                continue;
            }
            let step = script.clients[c][cur.next];
            if step.class == Class::Coalesced {
                // Both clients send a pair together, once both reach it.
                let other = &cursors[1 - c];
                let ready = other.in_flight.is_none()
                    && script.clients[1 - c]
                        .get(other.next)
                        .is_some_and(|s| s.class == Class::Coalesced && s.req == step.req);
                if !ready || c == 1 {
                    continue;
                }
                batch.push(0);
                batch.push(1);
            } else {
                batch.push(c);
            }
        }
        if !batch.is_empty() {
            let now = Instant::now();
            let mut lines = Vec::new();
            for &c in &batch {
                let pos = cursors[c].next;
                let step = script.clients[c][pos];
                let req = &script.requests[step.req];
                let mut class = step.class;
                for b in &req.benches {
                    if touched.insert(b.as_str()) {
                        class = Class::FirstTouch;
                    }
                }
                cursors[c].in_flight = Some((now, class));
                lines.push(request_line(script, c, pos));
            }
            server.send(&lines)?;
            if ctx.trace {
                out.lines.extend(lines);
            }
        }
        if cursors
            .iter()
            .enumerate()
            .all(|(c, cur)| cur.in_flight.is_none() && cur.next >= script.clients[c].len())
        {
            break;
        }
        // Wait for the next terminal event of either client.
        let line = server.next_line()?;
        let v = serde::json::parse(&line).ok_or("serve child wrote invalid JSON")?;
        let event = match v.get("event") {
            Some(Value::Str(e)) => e.clone(),
            _ => return Err(format!("serve line without an event: {line}")),
        };
        if ctx.trace {
            out.lines.push(line.clone());
        }
        if event != "result" && event != "error" {
            continue;
        }
        let Some(Value::Str(id)) = v.get("id") else {
            return Err("terminal event without a string id".into());
        };
        let (c, pos) = id
            .strip_prefix('c')
            .and_then(|s| s.split_once('-'))
            .and_then(|(c, p)| Some((c.parse::<usize>().ok()?, p.parse::<usize>().ok()?)))
            .filter(|&(c, pos)| c < 2 && pos == cursors[c].next)
            .ok_or_else(|| format!("unexpected request id {id}"))?;
        let (sent, class) = cursors[c]
            .in_flight
            .take()
            .ok_or("result for an idle client")?;
        let end = Instant::now();
        if parent.is_some() {
            ctx.tracer.record(
                "serve.request",
                parent,
                (c * 100_000 + pos) as u64,
                sent,
                end,
            );
        }
        let rows = match (event.as_str(), v.get("rows")) {
            ("result", Some(Value::Arr(rows))) => {
                rows.iter().map(Value::to_compact_string).collect()
            }
            _ => {
                out.failed += 1;
                out.errors.push(format!("request {id} failed: {line}"));
                Vec::new()
            }
        };
        let ms = (end - sent).as_secs_f64() * 1e3;
        out.served[c].push(Served { class, ms, rows });
        cursors[c].next += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.scheduler = server.stats()?;
    out.rss_mb = peak_rss_mb(server.child.id()).unwrap_or(f64::NAN);
    server.shutdown()?;
    let _ = std::fs::remove_dir_all(&store);
    Ok(out)
}

/// The scheduler counts the script implies on a cold store.
fn expected_counts(script: &Script) -> BTreeMap<&'static str, f64> {
    let mut submitted = 0;
    let mut memoized = 0;
    let mut coalesced = 0;
    let mut executed = 0;
    for steps in &script.clients {
        for s in steps {
            let jobs = script.requests[s.req].jobs;
            submitted += jobs;
            match s.class {
                Class::Hit => memoized += jobs,
                _ => executed += jobs,
            }
        }
    }
    for s in &script.clients[1] {
        if s.class == Class::Coalesced {
            coalesced += script.requests[s.req].jobs;
            executed -= script.requests[s.req].jobs;
        }
    }
    [
        ("submitted", submitted),
        ("executed", executed),
        ("coalesced", coalesced),
        ("memoized", memoized),
        ("cancelled", 0),
        ("rejected", 0),
    ]
    .into_iter()
    .map(|(k, v)| (k, v as f64))
    .collect()
}

/// Check a round's scheduler counters against the ones the script implies
/// on a cold store. Every submitted job must be accounted for exactly once
/// (executed, coalesced or memoized), and nothing may be rejected or
/// cancelled; a round that breaks this fails all its requests. Two
/// deviations give right answers and are recorded, not failed:
///
/// * a coalesce race: the server's reader is descheduled long enough for
///   the first copy of a pair to finish, so the second copy is memoized
///   instead of coalesced;
/// * a duplicate run: a request probed the store just before a running
///   job saved its row and registered just after the job left the
///   in-flight table, so the job is simulated twice.
fn check_counts(
    expected: &BTreeMap<&'static str, f64>,
    got: &BTreeMap<String, f64>,
    requests: u64,
    out: &mut Outcome,
) {
    let get = |k: &str| got.get(k).copied().unwrap_or(f64::NAN);
    let mut wrong = Vec::new();
    for k in ["submitted", "cancelled", "rejected"] {
        if get(k) != expected[k] {
            wrong.push(format!("{k}: expected {}, got {}", expected[k], get(k)));
        }
    }
    let settled = get("executed") + get("coalesced") + get("memoized");
    if settled != get("submitted") {
        wrong.push(format!(
            "executed + coalesced + memoized = {settled}, submitted {}",
            get("submitted")
        ));
    }
    if !wrong.is_empty() {
        out.fail(requests, format!("scheduler counts: {}", wrong.join("; ")));
    }
    out.sample(
        "scheduler.coalesce_races",
        expected["coalesced"] - get("coalesced"),
    );
    out.sample(
        "scheduler.duplicate_runs",
        get("executed") - expected["executed"],
    );
}

/// Every distinct request plan run in process through a `Session`: the
/// rows `rcmc serve` must have answered with.
fn session_rows(
    ctx: &Ctx,
    script: &Script,
    db: &TraceDb,
    out: &mut Outcome,
) -> Result<Vec<Vec<RunResult>>, String> {
    let session = Session::with_store(ResultStore::ephemeral())
        .with_jobs(ctx.workers)
        .with_trace_store(db.clone());
    let mut all = Vec::new();
    let mut busy = Vec::new();
    let mut tail = Vec::new();
    let (r, _) = ctx
        .tracer
        .span("bench.verify", None, 0, |p| -> Result<(), String> {
            for (i, req) in script.requests.iter().enumerate() {
                let clock = JobClock::default();
                let record = |e: &rcmc_sim::SweepProgress<'_>| clock.record(e);
                let (rs, wall) = ctx.tracer.span("session.run", p, i as u64, |_| {
                    session.run_streaming(&req.plan, &record)
                });
                let timing = clock.timing(wall, ctx.workers);
                busy.push(timing.busy_frac);
                tail.push(timing.tail_s);
                all.push(rs?.rows().to_vec());
            }
            Ok(())
        });
    r?;
    if ctx.trace {
        out.sample("session.busy_frac", median(&busy));
        out.sample("session.tail_s", median(&tail));
    }
    Ok(all)
}

/// The script's distinct `(config, bench)` jobs, in first-use order.
fn distinct_jobs(
    script: &Script,
    db: &TraceDb,
) -> Result<Vec<(rcmc_sim::SimConfig, String)>, String> {
    let mut seen = BTreeSet::new();
    let mut jobs = Vec::new();
    for req in &script.requests {
        let (cfgs, benches) = req.plan.resolve_in(Some(db))?;
        for c in &cfgs {
            for b in &benches {
                if seen.insert((c.name.clone(), b.clone())) {
                    jobs.push((c.clone(), b.clone()));
                }
            }
        }
    }
    Ok(jobs)
}

/// Traced in-process pass: replay the captured lines through the JSON
/// layer and every plan through parse/resolve/render, then simulate the
/// distinct jobs one call at a time. The serve child's own calls cannot be
/// timed from outside, so the `core`, `runner` and `store` figures of this
/// workload come from this in-process re-simulation of the round's jobs,
/// not from the served path.
fn traced_pass(
    ctx: &Ctx,
    script: &Script,
    db: &TraceDb,
    lines: &[String],
    want: &[Vec<RunResult>],
    iter: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let id = iter as u64;
    let (r, _) = tracer.span("bench.replay", None, id, |p| -> Result<(), String> {
        let kb = lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / 1024.0;
        let (mut parse_s, mut encode_s) = (0.0, 0.0);
        for (i, l) in lines.iter().enumerate() {
            let (v, dt) = tracer.span("json.parse", p, i as u64, |_| serde::json::parse(l));
            parse_s += dt;
            let v = v.ok_or("captured line is not JSON")?;
            let (text, dt) = tracer.span("json.encode", p, i as u64, |_| v.to_compact_string());
            encode_s += dt;
            if &text != l {
                return Err(format!("captured line does not re-encode identically: {l}"));
            }
        }
        out.sample("json.parse_us_per_kb", parse_s * 1e6 / kb);
        out.sample("json.encode_us_per_kb", encode_s * 1e6 / kb);
        let (mut parse, mut resolve, mut render) = (Vec::new(), Vec::new(), Vec::new());
        for (i, req) in script.requests.iter().enumerate() {
            let (plan, dt) = tracer.span("plan.parse", p, i as u64, |_| {
                Plan::from_value_checked(&req.wire)
            });
            parse.push(dt * 1e6);
            let plan = plan?;
            let (resolved, dt) =
                tracer.span("plan.resolve", p, i as u64, |_| plan.resolve_in(Some(db)));
            resolve.push(dt * 1e6);
            let order: Vec<String> = resolved?.0.into_iter().map(|c| c.name).collect();
            let rs = ResultSet::from_rows(want[i].clone());
            let (rendered, dt) = tracer.span("plan.render", p, i as u64, |_| {
                plan.render_reports_for(&rs, &order)
            });
            render.push(dt * 1e6);
            rendered?;
        }
        out.sample("plan.parse_us", median(&parse));
        out.sample("plan.resolve_us", median(&resolve));
        out.sample("plan.render_us", median(&render));
        Ok(())
    });
    r?;

    let jobs = distinct_jobs(script, db)?;
    let store_dir = ctx.work.join(format!("store-traced-{iter}"));
    let store = ResultStore::at(store_dir.clone());
    let (r, _) = tracer.span("bench.iteration", None, id, |p| -> Result<(), String> {
        let (rows, costs) = jobs::simulate(&jobs, &BUDGET, db, &store, ctx.workers, tracer, p);
        out.core_costs(&costs);
        let (warm, load_s) = jobs::reload(&jobs, &BUDGET, &store, tracer, p);
        out.sample("store.load_s", load_s);
        let by_key: BTreeMap<(String, String), String> = want
            .iter()
            .flatten()
            .map(|r| ((r.config.clone(), r.bench.clone()), row_text(r)))
            .collect();
        let bad = rows
            .iter()
            .zip(&warm)
            .filter(|(r, w)| {
                w.as_ref() != Some(*r)
                    || by_key.get(&(r.config.clone(), r.bench.clone())) != Some(&row_text(r))
            })
            .count();
        if bad > 0 {
            out.fail(
                bad as u64,
                format!("{bad} traced job rows differ from the session rows"),
            );
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(store_dir);
    r
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let script = Script::generate(ctx.seed);
    let len = BUDGET.trace_len();
    let rcmc: PathBuf = ctx
        .rcmc
        .clone()
        .ok_or("serve_mixed needs --rcmc <path to the rcmc binary>")?;

    // Set-up: fill an empty trace store, then open a serve child on it.
    let store = ctx.work.join("store-setup");
    let (reps, db) = setup::repeat(ctx, &script.benches, len, |dir| {
        Server::spawn(&rcmc, ctx.workers, &store, dir)?.shutdown()?;
        let _ = std::fs::remove_dir_all(&store);
        Ok(())
    })?;
    out.setup(&reps, len, script.benches.len());
    out.detail(
        "benches",
        Value::Arr(script.benches.iter().cloned().map(Value::Str).collect()),
    );
    out.detail("requests_per_round", Value::Num(script.steps() as f64));
    out.detail("distinct_plans", Value::Num(script.requests.len() as f64));
    let expected = expected_counts(&script);

    // What every served request must answer: its plan run in process.
    let want = session_rows(ctx, &script, &db, out)?;
    let want_text: Vec<Vec<String>> = want
        .iter()
        .map(|rows| rows.iter().map(row_text).collect())
        .collect();
    // Simulated instructions (warm-up plus measured window) per request.
    let req_insns: Vec<f64> = want
        .iter()
        .map(|rows| rows.iter().map(|r| (BUDGET.warmup + r.committed) as f64).sum())
        .collect();
    let check = |r: &Round, out: &mut Outcome| {
        out.attempted += script.steps() as u64;
        out.failed += r.failed;
        out.errors.extend(r.errors.iter().cloned());
        let bad = (0..2)
            .flat_map(|c| script.clients[c].iter().zip(&r.served[c]))
            .filter(|(step, got)| got.rows != want_text[step.req])
            .count();
        if bad > 0 {
            out.fail(
                bad as u64,
                format!("{bad} served requests differ from the Session rows"),
            );
        }
        check_counts(&expected, &r.scheduler, script.steps() as u64, out);
    };

    let started = Instant::now();
    let mut rounds = 0usize;
    let mut first: Option<Round> = None;
    let (mut rps, mut sim_rate, mut memo_rate, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut latencies: Vec<(Class, f64)> = Vec::new();
    while rounds == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        let r = round(ctx, &script, db.dir(), rounds, None)?;
        check(&r, out);
        rps.push(script.steps() as f64 / r.wall_s);
        // Fresh requests simulate every job they ask for: their
        // instructions over their summed client-side latency.
        let (insns, secs) = (0..2)
            .flat_map(|c| script.clients[c].iter().zip(&r.served[c]))
            .filter(|(_, s)| s.class == Class::Fresh)
            .fold((0.0, 0.0), |(i, t), (step, s)| {
                (i + req_insns[step.req], t + s.ms / 1e3)
            });
        sim_rate.push(insns / secs / 1e6);
        // Rows per second of each request answered from the store.
        memo_rate.extend(
            r.all()
                .filter(|s| s.class == Class::Hit)
                .map(|s| s.rows.len() as f64 / (s.ms / 1e3)),
        );
        rss.push(r.rss_mb);
        latencies.extend(r.all().map(|s| (s.class, s.ms)));
        if ctx.trace {
            let (traced, _) = tracer.span("bench.round", None, rounds as u64, |p| {
                round(ctx, &script, db.dir(), rounds + 1_000, p)
            });
            let traced = traced?;
            check(&traced, out);
            out.sample("trace.overhead_frac", traced.wall_s / r.wall_s - 1.0);
            traced_pass(ctx, &script, &db, &traced.lines, &want, rounds, out)?;
        }
        first.get_or_insert(r);
        rounds += 1;
    }
    out.iterations = rounds;
    let first = first.expect("at least one round");

    // One digest over every request's rows, in script order.
    let digest = digest_rows(
        (0..2)
            .flat_map(|c| &script.clients[c])
            .flat_map(|s| &want[s.req]),
    );
    out.pin_check(&ctx.workload, ctx.seed, digest);
    out.detail("digest", Value::Str(hex(digest)));
    out.detail(
        "scheduler",
        Value::Obj(
            first
                .scheduler
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                .collect(),
        ),
    );
    let n = latencies.len() as f64;
    let mut shares = Vec::new();
    for class in [
        Class::Hit,
        Class::Coalesced,
        Class::Fresh,
        Class::FirstTouch,
    ] {
        let ms: Vec<f64> = latencies
            .iter()
            .filter(|l| l.0 == class)
            .map(|l| l.1)
            .collect();
        shares.push((class.name().to_string(), Value::Num(ms.len() as f64 / n)));
        let name = match class {
            Class::FirstTouch => "serve.first_touch_ms".to_string(),
            c => format!("serve.{}_p50_ms", c.name()),
        };
        out.fixed(&name, median(&ms), ms.len());
    }
    out.detail("request_class_shares", Value::Obj(shares));
    let sched = |k: &str| first.scheduler.get(k).copied().unwrap_or(f64::NAN);
    out.fixed("store.hit_rate", sched("memoized") / sched("submitted"), 1);
    for (k, v) in &first.scheduler {
        let name = if k == "coalesce_hit_rate" {
            "scheduler.hit_rate".to_string()
        } else {
            format!("scheduler.{k}")
        };
        out.fixed(&name, *v, 1);
    }
    if !ctx.trace {
        out.samples("requests_per_s", &rps);
        out.samples("sim_minsns_per_s", &sim_rate);
        out.samples("memo_rows_per_s", &memo_rate);
        out.samples("peak_rss_mb", &rss);
        let all: Vec<f64> = latencies.iter().map(|l| l.1).collect();
        out.latency(&all);
    }
    Ok(())
}
