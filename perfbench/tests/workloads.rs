//! The benchmark's own checks: short runs of every workload pass their
//! correctness checks, repeat exactly for one seed, and report every
//! metric `BENCHMARK.json` names, with its unit.
//!
//! Run from the repository root:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use serde::json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// The `rcmc` binary `serve_mixed` drives, built once per test process.
fn rcmc() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = repo_root();
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .map(|t| if t.is_relative() { root.join(t) } else { t })
            .unwrap_or_else(|| root.join("target"));
        let ok = Command::new(env!("CARGO"))
            .args(["build", "--release", "--quiet", "--bin", "rcmc"])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs")
            .success();
        assert!(ok, "building rcmc failed");
        target.join("release").join("rcmc")
    })
}

struct Run {
    line: Value,
    record: Value,
}

/// One short run in its own output directory.
fn run(workload: &str, seed: u64, trace: bool, name: &str) -> Run {
    let out = repo_root()
        .join(".perfbench")
        .join(format!("test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let trace = if trace { "1" } else { "0" };
    let seed_s = seed.to_string();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed_s, "--seconds", "1"])
        .args(["--trace", trace])
        .arg("--rcmc")
        .arg(rcmc())
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} exited with {}:\n{stderr}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let line = serde::json::parse(last).expect("the result line is JSON");
    let path = out
        .join("results")
        .join(format!("{workload}-seed{seed}-trace{trace}.json"));
    let text = std::fs::read_to_string(&path).expect("the full result is written");
    let record = serde::json::parse(&text).expect("the full result is JSON");
    let _ = std::fs::remove_dir_all(&out);
    Run { line, record }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn field<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter().fold(v, |v, k| {
        v.get(k)
            .unwrap_or_else(|| panic!("missing {k} in {}", v.to_compact_string()))
    })
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde::json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let Value::Arr(items) = field(&benchmark_json(), &[list]).clone() else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k| match field(m, &[k]) {
                Value::Str(s) => s.clone(),
                other => panic!("{k} is not a string: {other:?}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn assert_correct(r: &Run, what: &str) {
    assert_eq!(
        field(&r.line, &["correct"]),
        &Value::Bool(true),
        "{what}: {}",
        r.record.to_pretty_string()
    );
    assert_eq!(num(field(&r.line, &["failed"])), 0.0, "{what}");
    assert!(num(field(&r.line, &["attempted"])) >= 1.0, "{what}");
}

/// Metrics of the result line, as `(name, unit)` in output order.
fn reported(r: &Run) -> Vec<(String, String)> {
    let Value::Obj(metrics) = field(&r.line, &["metrics"]) else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(k, v)| {
            assert!(
                num(field(v, &["value"])).is_finite(),
                "{k} has no finite value"
            );
            let Value::Str(unit) = field(v, &["unit"]) else {
                panic!("{k} has no unit");
            };
            (k.clone(), unit.clone())
        })
        .collect()
}

#[test]
fn sweeps_pass_their_checks_and_repeat_exactly() {
    for w in ["sweep_paper", "sweep_slowmem"] {
        let a = run(w, 1, false, &format!("{w}-a"));
        let b = run(w, 1, false, &format!("{w}-b"));
        assert_correct(&a, w);
        assert_correct(&b, w);
        assert_eq!(
            field(&a.record, &["detail", "digest"]),
            field(&b.record, &["detail", "digest"]),
            "{w}"
        );
        assert_eq!(
            reported(&a),
            declared("end_to_end"),
            "{w} end-to-end metrics"
        );
    }
}

#[test]
fn sweep_traced_run_matches_and_reports_every_layer() {
    for w in ["sweep_paper", "sweep_slowmem"] {
        let r = run(w, 1, true, &format!("{w}-traced"));
        // The traced rows are checked against the untraced session rows.
        assert_correct(&r, w);
        assert_eq!(reported(&r), declared("per_layer"), "{w} per-layer metrics");
        let skip = num(field(&r.record, &["metrics", "core.skip_rate", "value"]));
        assert!(skip > 0.0 && skip < 1.0, "{w} skip rate {skip}");
    }
}

#[test]
fn serve_mixed_passes_its_checks_and_repeats_exactly() {
    let a = run("serve_mixed", 1, false, "serve-a");
    let b = run("serve_mixed", 1, false, "serve-b");
    assert_correct(&a, "serve_mixed");
    assert_correct(&b, "serve_mixed");
    assert_eq!(reported(&a), declared("end_to_end"));
    assert_eq!(
        field(&a.record, &["detail", "digest"]),
        field(&b.record, &["detail", "digest"])
    );
    // Which copy of a pair is coalesced and which memoized depends on
    // when the first copy finishes (a coalesce race, see README), so only
    // their sum is compared. `executed` is compared exactly: it differs
    // when the scheduler simulates one job twice (a duplicate run).
    let counts = |r: &Run| {
        let s = |k| num(field(&r.record, &["detail", "scheduler", k]));
        [
            s("submitted"),
            s("executed"),
            s("coalesced") + s("memoized"),
            s("rejected"),
            s("cancelled"),
        ]
    };
    assert_eq!(counts(&a), counts(&b));
    for m in [
        "serve.hit_p50_ms",
        "serve.coalesced_p50_ms",
        "serve.fresh_p50_ms",
        "serve.first_touch_ms",
        "scheduler.executed",
        "scheduler.coalesced",
        "scheduler.memoized",
        "scheduler.rejected",
        "scheduler.hit_rate",
        "store.hit_rate",
    ] {
        let v = field(&a.record, &["metrics", m]);
        assert!(num(field(v, &["value"])).is_finite(), "{m}");
        assert!(matches!(field(v, &["unit"]), Value::Str(_)), "{m}");
    }
    let Value::Obj(shares) = field(&a.record, &["detail", "request_class_shares"]) else {
        panic!("no request class shares");
    };
    let total: f64 = shares.iter().map(|(_, v)| num(v)).sum();
    assert!((total - 1.0).abs() < 1e-9, "class shares sum to {total}");
}

#[test]
fn serve_traced_run_matches_and_reports_every_layer() {
    let r = run("serve_mixed", 1, true, "serve-traced");
    assert_correct(&r, "serve_mixed traced");
    assert_eq!(reported(&r), declared("per_layer"));
}

#[test]
fn metadata_records_seeds_host_and_build() {
    let r = run("sweep_paper", 3, false, "meta");
    for k in ["default_seed", "held_out_seed", "nproc", "runs"] {
        assert!(num(field(&r.record, &[k])) >= 1.0, "{k}");
    }
    for k in ["git_rev", "rustc", "profile"] {
        assert!(matches!(field(&r.record, &[k]), Value::Str(_)), "{k}");
    }
    let setup = field(&r.record, &["metrics", "setup_s"]);
    for k in ["median", "q1", "q3", "n"] {
        assert!(num(field(setup, &[k])).is_finite(), "setup_s {k}");
    }
}
