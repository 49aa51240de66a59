//! In-memory span recording for the traced run.
//!
//! Each span is timed around one public call into a workspace layer (or
//! around the benchmark's own grouping of such calls) and records its
//! name, start, end, parent span and the job/request id it belongs to.
//! Names are `<layer>.<call>`; the benchmark's own grouping spans use the
//! `bench` layer. Spans stay in memory until [`Tracer::write`].

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::json::Value;

/// One recorded span (times in seconds since the tracer started).
#[derive(Clone, Debug)]
pub struct Span {
    pub sid: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    pub id: u64,
    pub thread: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Span sink; with `on == false` it only times calls and records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside span `name` (child of `parent`, tagged with job or
    /// request `id`); `f` receives the new span's id for its children.
    /// Returns `f`'s result and the call's duration in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        id: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, f64) {
        let sid = self.on.then(|| self.next.fetch_add(1, Ordering::Relaxed));
        let start = Instant::now();
        let r = f(sid);
        let end = Instant::now();
        if let Some(sid) = sid {
            let span = Span {
                sid,
                name,
                start: (start - self.t0).as_secs_f64(),
                end: (end - self.t0).as_secs_f64(),
                parent,
                id,
                thread: thread_tag(),
            };
            self.spans.lock().expect("span sink poisoned").push(span);
        }
        (r, (end - start).as_secs_f64())
    }

    /// Record an already-timed interval (a request in flight, whose start
    /// and end are seen at different points of the client loop).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            sid: self.next.fetch_add(1, Ordering::Relaxed),
            name,
            start: (start - self.t0).as_secs_f64(),
            end: (end - self.t0).as_secs_f64(),
            parent,
            id,
            thread: thread_tag(),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let items = spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("sid".into(), Value::Num(s.sid as f64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_s".into(), Value::Num(s.start)),
                    ("end_s".into(), Value::Num(s.end)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("id".into(), Value::Num(s.id as f64)),
                    ("thread".into(), Value::Num(s.thread as f64)),
                ])
            })
            .collect();
        std::fs::write(path, Value::Arr(items).to_compact_string())
    }
}

/// Where the traced run's wall time went.
pub struct LayerReport {
    /// Summed wall time of the top-level spans (the traced phases).
    pub wall_s: f64,
    /// Self time per layer: span time not covered by child spans.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Share of `wall_s` no workspace-layer span covers (on any thread).
    pub unattributed_frac: f64,
}

impl LayerReport {
    pub fn of(spans: &[Span]) -> LayerReport {
        let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.dur();
            }
        }
        let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans {
            let own = s.dur() - child_time.get(&s.sid).copied().unwrap_or(0.0);
            *self_s.entry(s.layer()).or_default() += own.max(0.0);
        }
        let wall_s: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum();
        // Union of every workspace-layer interval, across threads.
        let mut iv: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.layer() != "bench")
            .map(|s| (s.start, s.end))
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let unattributed_frac = if wall_s > 0.0 {
            (1.0 - covered / wall_s).max(0.0)
        } else {
            0.0
        };
        LayerReport {
            wall_s,
            self_s,
            unattributed_frac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(sid: u64, name: &'static str, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span {
            sid,
            name,
            start,
            end,
            parent,
            id: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_gaps_are_unattributed() {
        let spans = [
            span(0, "bench.iteration", 0.0, 10.0, None),
            span(1, "core.run", 1.0, 5.0, Some(0)),
            span(2, "store.save", 4.0, 6.0, Some(0)),
        ];
        let r = LayerReport::of(&spans);
        assert_eq!(r.wall_s, 10.0);
        assert_eq!(r.self_s["bench"], 4.0);
        assert_eq!(r.self_s["core"], 4.0);
        // Covered: [1, 6] of [0, 10].
        assert!((r.unattributed_frac - 0.5).abs() < 1e-12);
    }
}
