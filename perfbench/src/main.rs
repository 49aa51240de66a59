//! The repository benchmark: three workloads driven through the public
//! functions of the workspace crates.
//!
//! ```text
//! perfbench --workload sweep_paper|sweep_slowmem|serve_mixed --seed N
//!           --seconds S --trace 0|1 [--rcmc PATH] [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports per-layer metrics.
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the full result (every metric with quartiles,
//! seeds, host and build facts) is written under `<out>/results/`, the
//! traced run's spans beside it. See `README.md` in this directory.

mod jobs;
mod serve;
mod setup;
mod spans;
mod stats;
mod sweep;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use serde::json::Value;

use crate::spans::{LayerReport, Tracer};
use crate::stats::{hex, Summary};

/// Seed the pinned digests below were taken at.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held back from tuning, for checking later claims.
pub const HELD_OUT_SEED: u64 = 97;

/// Digest of every simulated row at [`DEFAULT_SEED`] (see
/// [`stats::digest_rows`]). A mismatch fails every row of the run: the
/// model's statistics are deterministic, so any change is a behaviour
/// change, not noise.
const PINNED: &[(&str, &str)] = &[
    ("sweep_paper", "de4874640c687461"),
    ("sweep_slowmem", "29e8432aecefd658"),
    ("serve_mixed", "3d0bd3e67caa35c1"),
];

pub const WORKLOADS: &[&str] = &["sweep_paper", "sweep_slowmem", "serve_mixed"];

/// End-to-end metrics (`--trace 0`), every workload.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "sim_minsns_per_s",
    "memo_rows_per_s",
    "requests_per_s",
    "p50_ms",
    "p99_ms",
    "peak_rss_mb",
];

/// Layer metrics (`--trace 1`) measured on every workload.
pub const PER_LAYER: &[&str] = &[
    "workloads.build_s",
    "emu.emulate_s",
    "emu.minsns_per_s",
    "emu.trace_mb",
    "trace_db.save_s",
    "trace_db.load_s",
    "trace_db.decode_mbps",
    "trace_db.bytes_per_insn",
    "core.new_s",
    "core.run_s",
    "core.ns_per_insn",
    "core.mcycles_per_s",
    "core.skip_rate",
    "core.sim_cycles",
    "core.committed",
    "runner.reduce_s",
    "store.save_s",
    "store.load_s",
    "store.row_bytes",
    "session.busy_frac",
    "session.tail_s",
    "plan.parse_us",
    "plan.resolve_us",
    "plan.render_us",
    "json.parse_us_per_kb",
    "json.encode_us_per_kb",
    "trace.overhead_frac",
    "trace.unattributed_frac",
    "self_s.core",
    "self_s.runner",
    "self_s.store",
    "self_s.plan",
    "self_s.json",
    "self_s.bench",
    "share.core",
    "share.runner",
    "share.store",
    "share.plan",
    "share.json",
    "share.bench",
];

/// Unit of a metric, from its name's suffix.
pub fn unit_of(name: &str) -> &'static str {
    let base = name.split_once(".by_row.").map_or(name, |(b, _)| b);
    let table: &[(&str, &str)] = &[
        ("_us_per_kb", "us/KB"),
        ("minsns_per_s", "Minsn/s"),
        ("mcycles_per_s", "Mcycle/s"),
        ("rows_per_s", "rows/s"),
        ("requests_per_s", "1/s"),
        ("ns_per_insn", "ns/insn"),
        ("bytes_per_insn", "B/insn"),
        ("_mbps", "MB/s"),
        ("_mb", "MB"),
        ("_bytes", "B"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_s", "s"),
        ("self_s.", "s"),
        ("_frac", "fraction"),
        ("_rate", "fraction"),
        ("share.", "fraction"),
    ];
    table
        .iter()
        .find(|(k, _)| base.ends_with(k) || base.starts_with(k))
        .map_or("count", |(_, u)| u)
}

/// Run-wide settings shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    /// Scratch directory of this run (trace and result stores).
    pub work: PathBuf,
    /// The `rcmc` binary (`serve_mixed` only).
    pub rcmc: Option<PathBuf>,
    pub tracer: Tracer,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub iterations: usize,
    pin_mismatch: bool,
    samples: BTreeMap<String, Vec<f64>>,
    /// Metrics computed from a pooled distribution, with its size.
    fixed: BTreeMap<String, (f64, usize)>,
    details: Vec<(String, Value)>,
}

impl Outcome {
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn samples(&mut self, name: &str, vs: &[f64]) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(vs);
    }

    pub fn fixed(&mut self, name: &str, v: f64, n: usize) {
        self.fixed.insert(name.to_string(), (v, n));
    }

    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.errors.push(why);
    }

    pub fn detail(&mut self, key: &str, v: Value) {
        self.details.push((key.to_string(), v));
    }

    /// `p50_ms` and `p99_ms` over pooled request latencies.
    pub fn latency(&mut self, ms: &[f64]) {
        self.fixed("p50_ms", stats::percentile(ms, 0.50), ms.len());
        self.fixed("p99_ms", stats::percentile(ms, 0.99), ms.len());
        if ms.len() < 1000 {
            self.detail(
                "p99_note",
                Value::Str(format!(
                    "only {} latency samples (< 10 beyond p99)",
                    ms.len()
                )),
            );
        }
    }

    /// Set-up metrics from the repetitions. `setup_s` leaves out cargo's
    /// check that the program is built: on an unchanged tree it takes
    /// either about 32 or about 64 ms, by host state, which would swamp
    /// the in-process set-up.
    pub fn setup(&mut self, reps: &[setup::SetupRep], len: u64, benches: usize) {
        let insn_bytes = std::mem::size_of::<rcmc_emu::DynInsn>() as f64;
        for r in reps {
            self.sample("setup_s", r.wall_s);
            self.sample("workloads.build_s", r.build_s);
            self.sample("emu.emulate_s", r.emulate_s);
            self.sample("emu.minsns_per_s", r.insns as f64 / r.emulate_s / 1e6);
            self.sample("emu.trace_mb", r.insns as f64 * insn_bytes / 1e6);
            self.sample("trace_db.save_s", r.save_s);
            self.sample("trace_db.load_s", r.load_s);
            self.sample("trace_db.decode_mbps", r.file_bytes as f64 / r.load_s / 1e6);
            self.sample(
                "trace_db.bytes_per_insn",
                r.file_bytes as f64 / r.insns as f64,
            );
        }
        self.detail("setup_reps", Value::Num(reps.len() as f64));
        self.detail("trace_len", Value::Num(len as f64));
        self.detail("trace_benches", Value::Num(benches as f64));
    }

    /// Core/runner/store metrics of one traced pass over `costs`.
    pub fn core_costs(&mut self, costs: &[jobs::JobCost]) {
        let sum = |f: &dyn Fn(&jobs::JobCost) -> f64| costs.iter().map(f).sum::<f64>();
        let run_s = sum(&|c| c.run_s);
        let cycles = sum(&|c| c.cycles as f64);
        let committed = sum(&|c| c.committed as f64);
        self.sample("core.new_s", sum(&|c| c.new_s));
        self.sample("core.run_s", run_s);
        self.sample("core.ns_per_insn", run_s / committed * 1e9);
        self.sample("core.mcycles_per_s", cycles / run_s / 1e6);
        self.sample("core.skip_rate", sum(&|c| c.skipped as f64) / cycles);
        self.sample("core.sim_cycles", cycles);
        self.sample("core.committed", committed);
        self.sample("runner.reduce_s", sum(&|c| c.reduce_s));
        self.sample("store.save_s", sum(&|c| c.save_s));
        self.sample("store.probe_s", sum(&|c| c.miss_s));
        self.sample(
            "store.row_bytes",
            sum(&|c| c.row_bytes as f64) / costs.len() as f64,
        );
        // Per configuration row (topology, family or override).
        let mut rows: BTreeMap<&str, (f64, f64, f64, f64)> = BTreeMap::new();
        for c in costs {
            let e = rows.entry(c.config.as_str()).or_default();
            e.0 += c.run_s;
            e.1 += c.committed as f64;
            e.2 += c.skipped as f64;
            e.3 += c.cycles as f64;
        }
        for (cfg, (run, com, skip, cyc)) in rows {
            self.sample(&format!("core.ns_per_insn.by_row.{cfg}"), run / com * 1e9);
            self.sample(&format!("core.skip_rate.by_row.{cfg}"), skip / cyc);
        }
    }

    /// Compare the run's row digest with the pinned one at the default seed.
    pub fn pin_check(&mut self, workload: &str, seed: u64, digest: u64) {
        if seed != DEFAULT_SEED {
            return;
        }
        let pinned = PINNED.iter().find(|(w, _)| *w == workload).map(|p| p.1);
        if pinned != Some(hex(digest).as_str()) {
            self.pin_mismatch = true;
            self.errors.push(format!(
                "row digest {} differs from the pinned {} for seed {seed}",
                hex(digest),
                pinned.unwrap_or("(none)")
            ));
        }
    }

    /// Layer self times (per iteration) and shares from the spans of the
    /// traced iterations. Set-up repetitions are left out: their layers
    /// have metrics of their own.
    fn layers(&mut self, tracer: &Tracer) {
        let spans = tracer.spans();
        let setup: BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.name == "bench.setup")
            .map(|s| s.sid)
            .collect();
        let steady: Vec<_> = spans
            .into_iter()
            .filter(|s| !setup.contains(&s.sid) && !s.parent.is_some_and(|p| setup.contains(&p)))
            .collect();
        let report = LayerReport::of(&steady);
        let total: f64 = report.self_s.values().sum();
        let iterations = self.iterations.max(1) as f64;
        for (layer, s) in &report.self_s {
            self.fixed(
                &format!("self_s.{layer}"),
                s / iterations,
                iterations as usize,
            );
            self.fixed(&format!("share.{layer}"), s / total, iterations as usize);
        }
        self.fixed("trace.unattributed_frac", report.unattributed_frac, 1);
        self.detail("traced_wall_s", Value::Num(report.wall_s));
    }

    fn summaries(&self) -> BTreeMap<String, Summary> {
        let mut all: BTreeMap<String, Summary> = self
            .samples
            .iter()
            .map(|(k, v)| (k.clone(), Summary::of(v)))
            .collect();
        for (k, &(v, n)) in &self.fixed {
            all.insert(
                k.clone(),
                Summary {
                    median: v,
                    q1: v,
                    q3: v,
                    n,
                },
            );
        }
        all
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
         [--rcmc PATH] [--out DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn tool_version(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            usage()
        };
        let Some(v) = it.next() else { usage() };
        flags.insert(key, v);
    }
    let get = |k: &str| flags.get(k).copied();
    let num = |k: &str, default: f64| -> f64 {
        get(k).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let workload = get("workload").unwrap_or_else(|| usage()).to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("unknown workload '{workload}'");
        usage();
    }
    let seed: u64 = get("seed").map_or(DEFAULT_SEED, |v| v.parse().unwrap_or_else(|_| usage()));
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let out_dir = PathBuf::from(get("out").unwrap_or(".perfbench"));
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let results = out_dir.join("results");
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds: num("seconds", 10.0),
        trace,
        workers: stats::nproc(),
        work: work.clone(),
        rcmc: get("rcmc").map(PathBuf::from),
        tracer: Tracer::new(trace),
    };
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(&results)) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }

    let mut out = Outcome::default();
    let wall = std::time::Instant::now();
    let ran = match workload.as_str() {
        "serve_mixed" => serve::run(&ctx, &mut out),
        w => sweep::run(
            &ctx,
            sweep::plan_for(w, seed).expect("sweep workload"),
            &mut out,
        ),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = ran {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    if out.pin_mismatch {
        out.failed = out.attempted;
    }
    out.failed = out.failed.min(out.attempted);
    let tag = format!("{workload}-seed{seed}-trace{}", trace as u8);
    if trace {
        out.layers(&ctx.tracer);
        let spans = results.join(format!("{tag}.spans.json"));
        if let Err(e) = ctx.tracer.write(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
    }
    let summaries = out.summaries();
    let correct = out.failed == 0 && out.errors.is_empty() && out.attempted > 0;

    // The full record.
    let metric_obj = |names: &mut dyn Iterator<Item = &String>| -> Value {
        Value::Obj(
            names
                .map(|k| {
                    let s = summaries[k];
                    let mut v = vec![("value".to_string(), Value::Num(s.median))];
                    v.push(("unit".to_string(), Value::Str(unit_of(k).into())));
                    if let Value::Obj(q) = s.to_value() {
                        v.extend(q);
                    }
                    (k.clone(), Value::Obj(v))
                })
                .collect(),
        )
    };
    let meta = vec![
        ("workload", Value::Str(workload.clone())),
        ("seed", Value::Num(seed as f64)),
        ("default_seed", Value::Num(DEFAULT_SEED as f64)),
        ("held_out_seed", Value::Num(HELD_OUT_SEED as f64)),
        ("trace", Value::Bool(trace)),
        ("seconds", Value::Num(ctx.seconds)),
        ("wall_s", Value::Num(wall.elapsed().as_secs_f64())),
        (
            "git_rev",
            Value::Str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(tool_version("rustc", &["--version"]))),
        ("nproc", Value::Num(ctx.workers as f64)),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("runs", Value::Num(out.iterations as f64)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(out.attempted as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "failed_frac",
            Value::Num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        (
            "errors",
            Value::Arr(out.errors.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", metric_obj(&mut summaries.keys())),
        (
            "detail",
            Value::Obj(
                out.details
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            ),
        ),
    ];
    let record = Value::Obj(meta.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    let path = results.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&path, record.to_pretty_string()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for (k, s) in &summaries {
        eprintln!(
            "  {k:<40} {:>14.6} {:<9} [q1 {:.6}, q3 {:.6}, n {}]",
            s.median,
            unit_of(k),
            s.q1,
            s.q3,
            s.n
        );
    }
    eprintln!("perfbench: full result in {}", path.display());

    // The contract line.
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &name in wanted {
        match summaries.get(name).map(|s| s.median) {
            Some(v) if v.is_finite() => metrics.push((
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(v)),
                    ("unit".into(), Value::Str(unit_of(name).into())),
                ]),
            )),
            _ => {
                eprintln!("perfbench: {workload} produced no value for {name}");
                std::process::exit(1);
            }
        }
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(out.attempted as f64)),
        ("failed".into(), Value::Num(out.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", line.to_compact_string());
}
