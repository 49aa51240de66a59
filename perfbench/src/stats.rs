//! Small numeric helpers: seeded sampling, order statistics, the row
//! digest, and host facts (peak RSS, thread count).

use rcmc_sim::RunResult;
use serde::json::Value;
use serde::Serialize as _;

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_d00d_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Median, quartiles and sample count of one metric's samples.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by linear interpolation between order statistics.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            if v.is_empty() {
                return f64::NAN;
            }
            let pos = p * (v.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Summary {
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
            n: v.len(),
        }
    }

    pub fn to_value(self) -> Value {
        Value::Obj(vec![
            ("median".into(), Value::Num(self.median)),
            ("q1".into(), Value::Num(self.q1)),
            ("q3".into(), Value::Num(self.q3)),
            ("n".into(), Value::Num(self.n as f64)),
        ])
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Nearest-rank percentile (`q` in `(0, 1]`); NaN for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a 64 over bytes, folded into `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// The canonical rendering of one row: every `RunResult` field, floats in
/// shortest round-trip form, so equal strings mean bit-identical rows.
pub fn row_text(r: &RunResult) -> String {
    r.to_value().to_compact_string()
}

/// Digest of rows in the order given.
pub fn digest_rows<'a>(rows: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    rows.into_iter()
        .fold(FNV_INIT, |h, r| fnv(fnv(h, row_text(r).as_bytes()), b"\n"))
}

pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, if readable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker threads the workloads use: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), 3.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
