//! Set-up: materialize each workload's oracle traces through an empty
//! on-disk trace store (build → emulate → persist → decode back), the work
//! a fresh checkout pays before its first simulation.

use std::path::Path;

use rcmc_emu::{trace_program, TraceDb};
use rcmc_workloads::benchmark;

use crate::spans::Tracer;
use crate::Ctx;

/// Set-ups per run; `setup_s` is their median.
pub const REPS: usize = 25;

/// Timings and sizes of one set-up repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupRep {
    /// Whole repetition, including opening the workload's session.
    pub wall_s: f64,
    pub build_s: f64,
    pub emulate_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    /// Dynamic instructions emulated (all benches).
    pub insns: u64,
    /// Bytes of the persisted trace files.
    pub file_bytes: u64,
}

/// Emulate and persist `benches` at trace length `len` into the (empty)
/// store at `dir`, then decode each back and check it round-trips.
pub fn materialize(
    benches: &[String],
    len: u64,
    dir: &Path,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<SetupRep, String> {
    let db = TraceDb::at(dir.to_path_buf());
    let mut rep = SetupRep::default();
    for (i, name) in benches.iter().enumerate() {
        let id = i as u64;
        let bench = benchmark(name).ok_or_else(|| format!("unknown benchmark '{name}'"))?;
        let (program, dt) = tracer.span("workloads.build", parent, id, |_| bench.build());
        rep.build_s += dt;
        let (trace, dt) = tracer.span("emu.emulate", parent, id, |_| {
            trace_program(&program, len as usize)
        });
        rep.emulate_s += dt;
        let trace = trace.map_err(|e| format!("{name} failed to emulate: {e}"))?;
        rep.insns += trace.insns.len() as u64;
        let (saved, dt) = tracer.span("trace_db.save", parent, id, |_| db.save(name, len, &trace));
        rep.save_s += dt;
        if !saved {
            return Err(format!(
                "could not persist the {name} trace under {}",
                dir.display()
            ));
        }
        let (loaded, dt) = tracer.span("trace_db.load", parent, id, |_| db.load_full(name, len));
        rep.load_s += dt;
        let loaded = loaded.map_err(|e| format!("stored {name} trace does not load: {e}"))?;
        if loaded.insns != trace.insns {
            return Err(format!(
                "stored {name} trace decodes to different instructions"
            ));
        }
    }
    rep.file_bytes = db.list().iter().map(|m| m.bytes).sum();
    Ok(rep)
}

/// Set up [`REPS`] times, each into a fresh empty trace store
/// that `open` then opens the workload on. Returns every repetition (its
/// `wall_s` covers `open` too) and the last repetition's trace store.
pub fn repeat(
    ctx: &Ctx,
    benches: &[String],
    len: u64,
    open: impl Fn(&Path) -> Result<(), String>,
) -> Result<(Vec<SetupRep>, TraceDb), String> {
    let mut reps = Vec::new();
    let mut db: Option<TraceDb> = None;
    for r in 0..REPS {
        let dir = ctx.work.join(format!("traces-{r}"));
        let (rep, wall_s) = ctx.tracer.span("bench.setup", None, r as u64, |p| {
            let rep = materialize(benches, len, &dir, &ctx.tracer, p)?;
            open(&dir)?;
            Ok::<_, String>(rep)
        });
        reps.push(SetupRep { wall_s, ..rep? });
        if let Some(old) = db.replace(TraceDb::at(dir)) {
            let _ = std::fs::remove_dir_all(old.dir());
        }
    }
    Ok((reps, db.expect("at least one set-up repetition")))
}
