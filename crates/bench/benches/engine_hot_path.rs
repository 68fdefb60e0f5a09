//! Engine hot path: what one simulated evaluation costs, per workload and
//! per engine component.
//!
//! Two sections:
//!
//! * **Workloads** — every workload at its `suggested_options`, over a
//!   fixed config set (the default plus five LlamaTune-decoded points from
//!   a fixed seed; some of those crash, as they do in real sessions).
//!   `eval_us` is the wall time per evaluation, averaged over the set and
//!   taken as the median over reps; `sim_txn_per_s` is the simulated
//!   transactions (committed + aborted in the measured window) per wall
//!   second.
//! * **Components** — the engine's inner loops in isolation: buffer-pool
//!   hits and misses, draining 1% dirty frames of a 64k-frame pool with
//!   `clean_dirty`, resource-meter requests and 500 ms background
//!   reservations, the latency reservoir's p50/p95/p99, and the
//!   construction + cache prewarm of one evaluation with a 4 GB pool
//!   (`max_txns = 0`).
//!   Each row times a batch of `n` operations (`batch_us`, median over
//!   reps).
//!
//! Results are printed and recorded in `BENCH_engine.json` (workspace
//! root) for the CI bench gate:
//!
//!     cargo bench -p llamatune-bench --bench engine_hot_path
//!
//! `LLAMATUNE_QUICK=1` runs one rep.

use llamatune::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune_bench::{print_header, print_table};
use llamatune_engine::bufferpool::{page_id, BufferPool};
use llamatune_engine::sim::{LatencyReservoir, ResourceMeter};
use llamatune_engine::{run_workload, RunOptions};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::{Config, ConfigSpace, KnobValue};
use llamatune_workloads::{suggested_options, workload_by_name, WORKLOAD_NAMES};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Seed of the LlamaTune projection and the points decoded through it.
const DECODE_SEED: u64 = 2022;
/// Seed of every evaluation.
const RUN_SEED: u64 = 7;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Median over `reps` of the wall time of `batch`, in microseconds.
/// `setup` runs untimed before each rep and hands its state to `batch`;
/// whatever `batch` returns is dropped after the clock stops.
fn time_us<S, R>(reps: usize, mut setup: impl FnMut() -> S, mut batch: impl FnMut(S) -> R) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let state = setup();
        let t = Instant::now();
        let out = batch(state);
        times.push(t.elapsed().as_secs_f64() * 1e6);
        drop(out);
    }
    median(times)
}

fn config_set(space: &ConfigSpace) -> Vec<Config> {
    let pipe = LlamaTunePipeline::new(space, &LlamaTuneConfig::default(), DECODE_SEED);
    let mut rng = StdRng::seed_from_u64(DECODE_SEED);
    let mut out = vec![space.default_config()];
    for _ in 0..5 {
        let x: Vec<f64> = (0..pipe.optimizer_spec().len()).map(|_| rng.random()).collect();
        out.push(pipe.decode(&x));
    }
    out
}

struct WorkloadRow {
    workload: &'static str,
    configs: usize,
    crashed: usize,
    eval_us: f64,
    sim_txn_per_s: f64,
}

fn workload_row(workload: &'static str, configs: &[Config], reps: usize) -> WorkloadRow {
    let space = postgres_v9_6();
    let spec = workload_by_name(workload).expect("known workload");
    let mut opts = suggested_options(workload);
    opts.seed = RUN_SEED;
    let mut per_eval = Vec::with_capacity(reps);
    let mut rates = Vec::with_capacity(reps);
    let mut crashed = 0;
    for _ in 0..reps {
        let mut txns = 0u64;
        crashed = 0;
        let t = Instant::now();
        for cfg in configs {
            let r = run_workload(&space.assignment(cfg), &space, &spec, &opts);
            txns += r.committed + r.aborted;
            crashed += usize::from(r.crashed);
        }
        let wall_s = t.elapsed().as_secs_f64();
        per_eval.push(wall_s * 1e6 / configs.len() as f64);
        rates.push(txns as f64 / wall_s);
    }
    WorkloadRow {
        workload,
        configs: configs.len(),
        crashed,
        eval_us: median(per_eval),
        sim_txn_per_s: median(rates),
    }
}

struct ComponentRow {
    component: &'static str,
    n: usize,
    batch_us: f64,
}

/// Pseudo-random page numbers in `0..range` (xorshift, fixed seed).
fn page_stream(n: usize, range: u64) -> Vec<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % range
        })
        .collect()
}

fn full_pool(frames: usize) -> BufferPool {
    let mut bp = BufferPool::new(frames);
    for p in 0..frames as u64 {
        bp.access(page_id(0, p), false);
    }
    bp
}

fn component_rows(reps: usize) -> Vec<ComponentRow> {
    const FRAMES: usize = 65_536;
    let mut rows = Vec::new();

    let n = 1_000_000;
    let hits = page_stream(n, FRAMES as u64);
    let mut bp = full_pool(FRAMES);
    let batch_us = time_us(
        reps,
        || (),
        |()| {
            for &p in &hits {
                black_box(bp.access(page_id(0, p), false));
            }
        },
    );
    rows.push(ComponentRow { component: "bp_access_hit", n, batch_us });

    // Every access faults a never-seen page into a full pool: one clock
    // sweep and one eviction each.
    let n = 200_000;
    let mut bp = full_pool(4_096);
    let mut next = 1u64 << 32;
    let batch_us = time_us(
        reps,
        || (),
        |()| {
            for _ in 0..n {
                next += 1;
                black_box(bp.access(page_id(1, next), next.is_multiple_of(4)));
            }
        },
    );
    rows.push(ComponentRow { component: "bp_access_miss", n, batch_us });

    // Re-dirty every 100th frame (untimed), then drain them in the
    // small batches that backend_flush_after and the bgwriter request.
    let dirty = FRAMES / 100;
    let batch_us = time_us(
        reps,
        || {
            let mut bp = full_pool(FRAMES);
            for i in 0..dirty as u64 {
                bp.access(page_id(0, i * 100), true);
            }
            bp
        },
        |mut bp| {
            while bp.clean_dirty(8) > 0 {}
            bp
        },
    );
    rows.push(ComponentRow { component: "clean_dirty_64k_1pct", n: dirty, batch_us });

    let n = 1_000_000;
    let mut cpu = ResourceMeter::new(10.0, 10_000, 4.0);
    let mut now = 0u64;
    let batch_us = time_us(
        reps,
        || (),
        |()| {
            for _ in 0..n {
                now += 3;
                black_box(cpu.request(now, 5.0));
            }
        },
    );
    rows.push(ComponentRow { component: "meter_request", n, batch_us });

    let n = 100_000;
    let mut disk = ResourceMeter::new(2.0, 10_000, 2.0);
    let mut now = 0u64;
    let batch_us = time_us(
        reps,
        || (),
        |()| {
            for _ in 0..n {
                now += 20;
                disk.add_background(now, 35.0, 500_000);
            }
            black_box(&disk);
        },
    );
    rows.push(ComponentRow { component: "meter_add_background_500ms", n, batch_us });

    let batch_us = time_us(
        reps.max(5),
        || {
            let mut r = LatencyReservoir::new(32_768, 0xABCD);
            let mut x = 1u64;
            for _ in 0..100_000 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                r.record((x >> 44) as f64);
            }
            r
        },
        |mut r| black_box(r.percentiles([50.0, 95.0, 99.0])),
    );
    rows.push(ComponentRow { component: "reservoir_p50_p95_p99", n: 1, batch_us });

    // A 4 GB pool: prewarming fills every frame, so this is the setup
    // cost that large-`shared_buffers` configs pay per evaluation.
    let space = postgres_v9_6();
    let spec = workload_by_name("tpcc").expect("tpcc");
    let opts = RunOptions { max_txns: 0, ..suggested_options("tpcc") };
    let mut cfg = space.default_config();
    cfg.values_mut()[space.index_of("shared_buffers").expect("knob")] = KnobValue::Int(524_288);
    let assignment = space.assignment(&cfg);
    let batch_us = time_us(
        reps.max(5),
        || (),
        |()| {
            black_box(run_workload(&assignment, &space, &spec, &opts));
        },
    );
    rows.push(ComponentRow { component: "prewarm_tpcc_4gb", n: 1, batch_us });
    rows
}

fn main() {
    let quick = std::env::var("LLAMATUNE_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 1 } else { 5 };
    print_header(
        "Engine hot path",
        &format!(
            "per-workload evaluation cost and per-component batches; medians over {reps} reps"
        ),
    );

    let configs = config_set(&postgres_v9_6());
    let workload_rows: Vec<WorkloadRow> =
        WORKLOAD_NAMES.iter().map(|&w| workload_row(w, &configs, reps)).collect();
    println!("\nWorkloads (default + 5 LlamaTune-decoded configs, suggested_options):");
    print_table(
        &["workload", "configs", "crashed", "ms/eval", "sim txn/s"],
        &workload_rows
            .iter()
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    r.configs.to_string(),
                    r.crashed.to_string(),
                    format!("{:.2}", r.eval_us / 1e3),
                    format!("{:.0}", r.sim_txn_per_s),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let comp_rows = component_rows(reps);
    println!("\nComponents:");
    print_table(
        &["component", "n", "batch", "per op"],
        &comp_rows
            .iter()
            .map(|r| {
                vec![
                    r.component.to_string(),
                    r.n.to_string(),
                    format!("{:.0}us", r.batch_us),
                    format!("{:.1}ns", r.batch_us * 1e3 / r.n as f64),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The regression artifact.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"config\": {{\"quick\": {quick}, \"reps\": {reps}}},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in workload_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"configs\": {}, \"crashed\": {}, \"eval_us\": {:.1}, \"sim_txn_per_s\": {:.0}}}{}\n",
            r.workload,
            r.configs,
            r.crashed,
            r.eval_us,
            r.sim_txn_per_s,
            if i + 1 < workload_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"components\": [\n");
    for (i, r) in comp_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"component\": \"{}\", \"n\": {}, \"batch_us\": {:.2}, \"per_op_ns\": {:.2}}}{}\n",
            r.component,
            r.n,
            r.batch_us,
            r.batch_us * 1e3 / r.n as f64,
            if i + 1 < comp_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_engine.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_engine.json");
    f.write_all(json.as_bytes()).expect("write BENCH_engine.json");
    println!("\nrecorded {}", path.display());
}
