//! Criterion microbenchmarks of the simulator's hot components: branch
//! prediction, cache access, bus reservation, steering, the load/store
//! queue, functional emulation, whole-core simulation throughput, and the
//! JSON parser and renderer behind the result store and `rcmc serve`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rcmc_core::bus::BusFabric;
use rcmc_core::config::DistanceLut;
use rcmc_core::lsq::{Lsq, LsqId, StartedLoad};
use rcmc_core::steering::{self, SteerCtx};
use rcmc_core::value::ValueTable;
use rcmc_core::{Core, CoreConfig, Steering, Topology};
use rcmc_emu::trace_program;
use rcmc_sim::RunResult;
use rcmc_uarch::{
    Bimodal, CacheConfig, Gshare, HybridPredictor, MemConfig, PredictorConfig, SetAssocCache,
};
use rcmc_workloads::benchmark;
use serde::json::{self, Value};
use serde::Serialize;
use std::collections::VecDeque;

fn bench_bpred(c: &mut Criterion) {
    let mut g = c.benchmark_group("bpred");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("bimodal_1k_updates", |b| {
        let mut p = Bimodal::new(2048);
        let mut i = 0u32;
        b.iter(|| {
            for _ in 0..1024 {
                i = i.wrapping_add(97);
                let taken = i & 3 != 0;
                let _ = p.predict(i);
                p.update(i, taken);
            }
        })
    });
    g.bench_function("gshare_1k_updates", |b| {
        let mut p = Gshare::new(2048);
        let mut i = 0u32;
        b.iter(|| {
            for _ in 0..1024 {
                i = i.wrapping_add(97);
                let taken = i & 3 != 0;
                let _ = p.predict(i);
                p.update(i, taken);
            }
        })
    });
    g.bench_function("hybrid_1k_updates", |b| {
        let mut p = HybridPredictor::new(&PredictorConfig::default());
        let mut i = 0u32;
        b.iter(|| {
            for _ in 0..1024 {
                i = i.wrapping_add(97);
                let taken = i & 3 != 0;
                let _ = p.predict(i);
                p.update(i, taken);
            }
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("l1d_stream_4k", |b| {
        let mut cache = SetAssocCache::new(CacheConfig {
            size: 32 * 1024,
            ways: 4,
            line: 32,
            latency: 2,
        });
        let mut addr = 0u64;
        b.iter(|| {
            for _ in 0..4096 {
                addr = addr.wrapping_add(40) & 0xf_ffff;
                criterion::black_box(cache.access(addr));
            }
        })
    });
    g.finish();
}

fn bench_bus(c: &mut Criterion) {
    let mut g = c.benchmark_group("bus");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("reserve_tick_1k", |b| {
        let cfg = CoreConfig::default();
        let mut fabric = BusFabric::new(&cfg);
        let mut i = 0usize;
        b.iter(|| {
            for _ in 0..1024 {
                i = (i + 1) % 8;
                criterion::black_box(fabric.buses[0].try_reserve(i, 1 + (i as u32 % 6)));
                fabric.tick();
            }
        })
    });
    g.finish();
}

fn bench_steering(c: &mut Criterion) {
    let mut g = c.benchmark_group("steering");
    g.throughput(Throughput::Elements(1024));
    for (name, steering) in [
        ("ring_dep", Steering::RingDep),
        ("conv_dcount", Steering::ConvDcount),
        ("ssa", Steering::Ssa),
    ] {
        g.bench_function(name, |b| {
            let cfg = CoreConfig {
                steering,
                ..CoreConfig::default()
            };
            let mut values = ValueTable::new(8, 48, 48);
            let vids: Vec<_> = (0..16).map(|i| values.alloc_ready(i % 8, false)).collect();
            let dist = DistanceLut::new(&cfg);
            let mut policy = steering::build(&cfg);
            b.iter(|| {
                for i in 0..1024usize {
                    let srcs = [vids[i % 16], vids[(i * 7 + 3) % 16]];
                    criterion::black_box(policy.steer(&SteerCtx {
                        cfg: &cfg,
                        dist: &dist,
                        values: &values,
                        srcs: &srcs,
                    }));
                }
            })
        });
    }
    g.finish();
}

/// A 128-entry LSQ kept full the way the core drives it: one store per
/// three entries, stores issuing out of order 1–6 cycles after dispatch
/// and committing oldest first, loads computing their address at dispatch
/// from a 64-line pool (so some forward), and started loads completing at
/// once to make room.
struct LsqDriver {
    lsq: Lsq,
    /// Live stores, oldest first, with the cycle each one issues.
    stores: VecDeque<(LsqId, u64)>,
    started: Vec<StartedLoad>,
    now: u64,
    seq: u64,
    rng: u64,
}

impl LsqDriver {
    fn new() -> Self {
        let mut d = LsqDriver {
            lsq: Lsq::new(128, 1),
            stores: VecDeque::new(),
            started: Vec::new(),
            now: 0,
            seq: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        d.refill();
        d
    }

    fn next(&mut self) -> u64 {
        // xorshift64: deterministic and allocation-free.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn refill(&mut self) {
        while self.lsq.has_space() {
            self.seq += 1;
            let addr = 0x1000 + 8 * (self.next() % 64);
            let is_store = self.seq.is_multiple_of(3);
            let id = self.lsq.alloc(is_store, self.seq as u32, self.seq);
            if is_store {
                let issue = self.now + 1 + self.next() % 6;
                self.stores.push_back((id, issue));
            } else {
                self.lsq.load_addr_known(id, addr, self.now);
            }
        }
    }

    /// One core cycle: the fast-forward probe, the memory stage, then
    /// completions, store issue and commit, and dispatch.
    fn cycle(&mut self) {
        criterion::black_box(self.lsq.would_start_any(self.now, 2));
        self.started.clear();
        self.lsq.start_loads_into(self.now, 2, &mut self.started);
        for s in &self.started {
            self.lsq.release(s.id);
        }
        for k in 0..self.stores.len() {
            let (id, issue) = self.stores[k];
            if issue == self.now {
                let addr = 0x1000 + 8 * (self.next() % 64);
                self.lsq.store_ready(id, addr);
            }
        }
        if let Some(&(id, issue)) = self.stores.front() {
            if issue < self.now {
                self.lsq.release(id);
                self.stores.pop_front();
            }
        }
        self.now += 1;
        self.refill();
    }
}

fn bench_lsq(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsq");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("full_128_mixed_1k_cycles", |b| {
        let mut d = LsqDriver::new();
        b.iter(|| {
            for _ in 0..1024 {
                d.cycle();
            }
        })
    });
    g.finish();
}

/// A plausible 4-cluster result row; `i` varies the numbers.
fn sample_row(config: &str, bench: &str, i: usize) -> RunResult {
    let x = 1.0 / (i as f64 + 3.0);
    RunResult {
        config: config.into(),
        bench: bench.into(),
        fp: i.is_multiple_of(2),
        ipc: 0.3 + x / 7.0,
        comms_per_insn: x / 3.0,
        dist_per_comm: 1.0 + x,
        wait_per_comm: x / 1.7,
        nready: x / 11.0,
        dispatch_shares: (0..4)
            .map(|k| (k as f64 + 1.0 + x) / (10.0 + 4.0 * x))
            .collect(),
        branch_miss_rate: x / 13.0,
        committed: 2000 + i as u64,
        cycles: 5815 + 997 * i as u64,
    }
}

/// The `result` event `rcmc serve` writes for a 3-config × 3-bench plan:
/// nine rows, a rendered speedup report and the per-request stats.
fn sample_result_line() -> String {
    let configs = [
        "Ring_4clus_1bus_2IW",
        "Conv_4clus_1bus_2IW",
        "Mesh_4clus_1bus_2IW",
    ];
    let benches = ["swim", "gzip", "mcf"];
    let mut rows = Vec::new();
    let mut text = String::from("speedup (geomean IPC ratio)\n");
    for (i, config) in configs.iter().enumerate() {
        for (j, bench) in benches.iter().enumerate() {
            let row = sample_row(config, bench, 3 * i + j);
            text += &format!(
                "{config:<24} / Conv_4clus_1bus_2IW  {bench:<6} {:.4}\n",
                row.ipc
            );
            rows.push(row.to_value());
        }
    }
    let report = Value::Obj(vec![
        ("kind".into(), Value::Str("speedup".into())),
        ("text".into(), Value::Str(text)),
    ]);
    let stats = ["jobs", "executed", "coalesced", "memoized"]
        .iter()
        .zip([9.0, 0.0, 0.0, 9.0])
        .map(|(k, n)| (k.to_string(), Value::Num(n)))
        .collect();
    Value::Obj(vec![
        ("id".into(), Value::Str("c1-17".into())),
        ("event".into(), Value::Str("result".into())),
        ("plan".into(), Value::Str("serve-mixed".into())),
        ("rows".into(), Value::Arr(rows)),
        ("reports".into(), Value::Arr(vec![report])),
        ("stats".into(), Value::Obj(stats)),
    ])
    .to_compact_string()
}

fn bench_json(c: &mut Criterion) {
    let row = sample_row("Ring_4clus_1bus_2IW", "swim", 0)
        .to_value()
        .to_pretty_string();
    let line = sample_result_line();
    let head = "{\"id\": 1, \"op\": \"ping\", \"pad\": \"";
    let long = format!("{head}{}\"}}", "x".repeat((1 << 20) - head.len() - 2));
    let mut g = c.benchmark_group("json");
    for (name, text) in [
        ("parse_store_row", &row),
        ("parse_result_line_9_rows", &line),
        ("parse_1mib_string_line", &long),
    ] {
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_function(name, |b| b.iter(|| json::parse(text).unwrap()));
    }
    let value = json::parse(&line).unwrap();
    g.throughput(Throughput::Bytes(line.len() as u64));
    g.bench_function("encode_result_line_9_rows", |b| {
        b.iter(|| value.to_compact_string())
    });
    g.finish();
}

fn bench_emulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("emulator");
    let program = benchmark("swim").unwrap().build();
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("trace_50k_swim", |b| {
        b.iter(|| criterion::black_box(trace_program(&program, 50_000).unwrap().insns.len()))
    });
    g.finish();
}

fn bench_core(c: &mut Criterion) {
    let mut g = c.benchmark_group("core");
    g.sample_size(10);
    let trace = {
        let program = benchmark("galgel").unwrap().build();
        trace_program(&program, 20_000).unwrap().insns
    };
    g.throughput(Throughput::Elements(trace.len() as u64));
    for (name, topology, steering) in [
        ("ring_20k_galgel", Topology::Ring, Steering::RingDep),
        ("conv_20k_galgel", Topology::Conv, Steering::ConvDcount),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    Core::new(
                        CoreConfig {
                            topology,
                            steering,
                            ..CoreConfig::default()
                        },
                        MemConfig::default(),
                        PredictorConfig::default(),
                        &trace,
                    )
                },
                |mut core| core.run(u64::MAX).committed,
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20);
    targets = bench_bpred, bench_cache, bench_bus, bench_steering, bench_lsq, bench_json,
        bench_emulator, bench_core
);
criterion_main!(micro);
