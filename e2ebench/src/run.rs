//! The workloads, one run of each, its output checks and its metrics.

use crate::probe::{fnv1a64, median, quantile, Layers, Ops, Probe};
use crate::procfs;
use crate::serve::{self, ServeSpec};
use crate::tune::{self, SessionRun, TuneSpec};
use llamatune_optim::OptimizerKind;
use llamatune_runtime::CacheStats;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per repetition: set-up takes well under a millisecond, so one
/// sample would be mostly timer noise.
pub const SETUP_REPS: usize = 25;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// In-process, store-backed sessions driven by `SessionDriver`.
    Tune(TuneSpec),
    /// Client sessions against an in-process daemon on loopback.
    Serve(ServeSpec),
}

/// Every workload, by name. A run holds a panel of sessions, each on its
/// own seed: one session's wall time and gain depend on which
/// configurations its seed leads it through, so only an average over
/// several sessions repeats from one run seed to the next. Panels are
/// sized to take about 45 seconds on a 2-core machine.
pub const WORKLOADS: [(&str, Workload); 2] = [
    (
        "tune_ycsb_b_batch",
        Workload::Tune(TuneSpec {
            workload: "ycsb_b",
            optimizer: OptimizerKind::GpBo,
            batch_size: 2,
            trial_workers: 2,
            iterations: 100,
            sessions: 10,
        }),
    ),
    (
        "serve_ycsb_a",
        Workload::Serve(ServeSpec {
            workload: "ycsb_a",
            optimizer: "smac",
            iterations: 60,
            clients: 2,
            sessions: 10,
        }),
    ),
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
}

impl Workload {
    fn iterations(&self) -> usize {
        match self {
            Workload::Tune(t) => t.iterations,
            Workload::Serve(s) => s.iterations,
        }
    }

    /// Session seeds of a run: `sessions` consecutive seeds starting at
    /// `seed * sessions`, so runs on different seeds share no session.
    pub fn seeds(&self, seed: u64) -> Vec<u64> {
        let n = match self {
            Workload::Tune(t) => t.sessions,
            Workload::Serve(s) => s.sessions,
        } as u64;
        (0..n).map(|i| seed.wrapping_mul(n).wrapping_add(i)).collect()
    }

    /// Threads evaluating trials while the run's sessions are live.
    fn eval_threads(&self) -> usize {
        match self {
            Workload::Tune(t) => t.trial_workers,
            Workload::Serve(s) => s.clients,
        }
    }
}

/// One metric, by name, with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One repetition: set-up (several times) and every session of the run.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: Vec<f64>,
    pub session_s: f64,
    pub sessions: Vec<SessionRun>,
    /// Evaluation-cache counters, summed over traced in-process sessions.
    pub cache: CacheStats,
}

impl Rep {
    /// The whole run's transcript: every session's history JSONL.
    pub fn transcript(&self) -> String {
        self.sessions.iter().map(|s| s.jsonl.as_str()).collect()
    }
}

/// Sets up `SETUP_REPS` times in fresh directories under `dir`, timing
/// each, and keeps the last set-up: the one the sessions run on, and the
/// only one a traced run wraps.
fn set_up<S>(
    dir: &Path,
    layers: Option<&Arc<Layers>>,
    ops: &Ops,
    times: &mut Vec<f64>,
    make: impl Fn(&Path, Option<&Arc<Layers>>) -> Result<S, String>,
) -> Result<S, String> {
    let mut last = None;
    for i in 0..SETUP_REPS {
        let layers = layers.filter(|_| i + 1 == SETUP_REPS);
        let start = Instant::now();
        last = Some(ops.count("setup", make(&dir.join(format!("setup{i}")), layers))?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(last.expect("SETUP_REPS is positive"))
}

/// Runs one repetition, one session per seed, in `dir` (which must not
/// exist yet). With `layers`, every seam is wrapped in a timer.
pub fn repetition(
    w: &Workload,
    seeds: &[u64],
    dir: &Path,
    layers: Option<&Arc<Layers>>,
    turnaround: &Probe,
    ops: &Ops,
) -> Result<Rep, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let rep = match w {
        Workload::Tune(spec) => {
            let setup = set_up(dir, layers, ops, &mut setup_s, |d, l| tune::setup(spec, d, l))?;
            let start = Instant::now();
            let run = tune::run_panel(spec, &setup, seeds, layers, turnaround);
            let (sessions, cache) = ops.count("session", run)?;
            Rep { setup_s, session_s: start.elapsed().as_secs_f64(), sessions, cache }
        }
        Workload::Serve(spec) => {
            let setup = set_up(dir, layers, ops, &mut setup_s, serve::setup)?;
            let (sessions, session_s) = serve::run(spec, setup, seeds, layers, turnaround, ops)?;
            Rep { setup_s, session_s, sessions, cache: CacheStats::default() }
        }
    };
    check_sessions(w, &rep)?;
    Ok(rep)
}

/// A run fails when any session recorded fewer than iterations + 1
/// trials. (A served session that did not reach `Done` fails earlier,
/// in its client.)
fn check_sessions(w: &Workload, rep: &Rep) -> Result<(), String> {
    let want = w.iterations() + 1;
    for s in &rep.sessions {
        if s.scores.len() < want || s.stored_trials < want {
            return Err(format!(
                "session {} recorded {} trials ({} in the store), expected {want}",
                s.label,
                s.scores.len(),
                s.stored_trials
            ));
        }
    }
    Ok(())
}

/// The best score among iterations `1..=upto` as a multiple of the
/// default configuration's score (iteration 0). Scores are throughputs,
/// so both are positive.
fn vs_default(scores: &[f64], upto: usize) -> f64 {
    let best = scores[1..=upto].iter().copied().fold(f64::NEG_INFINITY, f64::max);
    best / scores[0]
}

fn mean_vs_default(rep: &Rep, upto: usize) -> f64 {
    let total: f64 = rep.sessions.iter().map(|s| vs_default(&s.scores, upto)).sum();
    total / rep.sessions.len() as f64
}

/// What a run reports besides its metrics.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a 64 of the run's history transcript.
    pub digest: u64,
}

/// A run for the end-to-end metrics: repetitions of the same sessions,
/// each in a fresh store, as many as fit in `seconds` (at least one).
/// Every repetition must record the same histories as the first.
pub fn measure(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let (turnaround, ops) = (Probe::default(), Ops::default());
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    let fits_another = |reps: &[Rep]| {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / reps.len() as f64 <= seconds
    };
    let seeds = w.seeds(seed);
    while reps.is_empty() || fits_another(&reps) {
        let dir = work.join(format!("rep{}", reps.len()));
        let rep = repetition(w, &seeds, &dir, None, &turnaround, &ops)?;
        if let Some(first) = reps.first() {
            if rep.transcript() != first.transcript() {
                return Err(format!("repetition {} recorded a different history", reps.len()));
            }
        }
        reps.push(rep);
    }
    let first = &reps[0];
    let half = w.iterations() / 2;
    let setups: Vec<f64> = reps.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let sessions: Vec<f64> = reps.iter().map(|r| r.session_s).collect();
    let rounds = turnaround.samples();
    let peaks: Vec<f64> =
        reps.iter().flat_map(|r| r.sessions.iter().filter_map(|s| s.peak_rss_mb)).collect();
    let metrics = vec![
        m("session_s", "s", median(&sessions)),
        m("setup_s", "s", median(&setups)),
        m("turnaround_ms_p50", "ms", quantile(&rounds, 0.5) * 1e3),
        m("turnaround_ms_p95", "ms", quantile(&rounds, 0.95) * 1e3),
        m("best_vs_default", "ratio", mean_vs_default(first, w.iterations())),
        m("half_vs_default", "ratio", mean_vs_default(first, half)),
        m("peak_rss_mb", "MB", median(&peaks)),
    ];
    Ok(Outcome {
        metrics,
        attempted: ops.attempted.get(),
        failed: ops.failed.get(),
        digest: fnv1a64(first.transcript().as_bytes()),
    })
}

/// A run for the per-layer metrics: the first half of the panel
/// untraced, then the same sessions with every seam wrapped, so that the
/// two together take about as long as an untraced run. The traced
/// histories must be byte-identical to the untraced ones.
pub fn measure_traced(w: &Workload, seed: u64, work: &Path) -> Result<Outcome, String> {
    let ops = Ops::default();
    let seeds = w.seeds(seed);
    let seeds = &seeds[..seeds.len().div_ceil(2)];
    let plain = repetition(w, seeds, &work.join("plain"), None, &Probe::default(), &ops)?;

    let layers = Arc::new(Layers::default());
    let turnaround = Probe::default();
    let cpu0 = procfs::cpu_s();
    let traced = repetition(w, seeds, &work.join("traced"), Some(&layers), &turnaround, &ops)?;
    let cpu_s = procfs::cpu_s() - cpu0;
    for (p, t) in plain.sessions.iter().zip(&traced.sessions) {
        if p.jsonl != t.jsonl {
            return Err(format!("traced history of {} differs from the untraced one", p.label));
        }
    }

    let l = &layers;
    let ms = |s: f64| s * 1e3;
    let engine_s = l.eval.total_s();
    let per_round =
        |total: f64| if l.codec.count() == 0 { 0.0 } else { total / l.codec.count() as f64 };
    let session_self_s = match w {
        Workload::Tune(_) => {
            l.fold.total_s()
                - l.liar.total_s()
                - l.decode.total_s()
                - l.batch.total_s()
                - l.sink.total_s()
        }
        Workload::Serve(_) => 0.0,
    };
    let metrics = vec![
        m("engine.evals", "count", l.eval.count() as f64),
        m("engine.busy_s", "s", engine_s),
        m("engine.eval_ms_p50", "ms", ms(l.eval.quantile_s(0.5))),
        m("engine.eval_ms_p90", "ms", ms(l.eval.quantile_s(0.9))),
        m("engine.sim_txns", "count", l.sim_txns.get() as f64),
        m(
            "engine.sim_txn_per_s",
            "1/s",
            if engine_s > 0.0 { l.sim_txns.get() as f64 / engine_s } else { 0.0 },
        ),
        m("engine.crashed", "count", l.crashed.get() as f64),
        m("executor.batches", "count", l.batch.count() as f64),
        m("executor.busy_s", "s", l.batch.total_s()),
        m("executor.worker_idle_s", "s", w.eval_threads() as f64 * traced.session_s - engine_s),
        m("cache.hits", "count", traced.cache.hits as f64),
        m("cache.lookups", "count", (traced.cache.hits + traced.cache.misses) as f64),
        m("batch.self_ms", "ms", ms(l.liar.total_s() - l.suggest.total_s() - l.observe.total_s())),
        m("batch.factory_builds", "count", l.factory.count() as f64),
        m("optim.suggests", "count", l.suggest.count() as f64),
        m("optim.suggest_ms_p50", "ms", ms(l.suggest.quantile_s(0.5))),
        m("optim.suggest_ms_p90", "ms", ms(l.suggest.quantile_s(0.9))),
        m("optim.suggest_s", "s", l.suggest.total_s()),
        m("optim.observes", "count", l.observe.count() as f64),
        m("optim.observe_ms", "ms", ms(l.observe.total_s())),
        m("adapter.decodes", "count", l.decode.count() as f64),
        m("adapter.decode_ms", "ms", ms(l.decode.total_s())),
        m("session.self_s", "s", session_self_s),
        m("store.appends", "count", l.store_append.count() as f64),
        m("store.append_us_p50", "us", l.store_append.quantile_s(0.5) * 1e6),
        m("store.append_us_p90", "us", l.store_append.quantile_s(0.9) * 1e6),
        m("store.busy_ms", "ms", ms(l.store_busy.total_s())),
        m("store.bytes", "bytes", l.store_bytes.get() as f64),
        m("store.syncs", "count", l.store_syncs.get() as f64),
        m("store.manifest_commits", "count", l.manifest_commits.get() as f64),
        m("client.suggest_ms_p50", "ms", ms(l.client_suggest.quantile_s(0.5))),
        m("client.suggest_ms_p95", "ms", ms(l.client_suggest.quantile_s(0.95))),
        m("client.report_ms_p50", "ms", ms(l.client_report.quantile_s(0.5))),
        m("wire.bytes_per_round", "bytes", per_round(l.wire_bytes.get() as f64)),
        m("wire.codec_us_per_round", "us", per_round(l.codec.total_s()) * 1e6),
        m("server.threads_peak", "count", l.threads_peak.get() as f64),
        m("proc.cpu_s", "s", cpu_s),
        m("turnaround.samples", "count", turnaround.count() as f64),
        m("trace.session_s", "s", traced.session_s),
        m("trace.untraced_session_s", "s", plain.session_s),
        m("trace.overhead_pct", "%", (traced.session_s / plain.session_s - 1.0) * 100.0),
    ];
    Ok(Outcome {
        metrics,
        attempted: ops.attempted.get(),
        failed: ops.failed.get(),
        digest: fnv1a64(traced.transcript().as_bytes()),
    })
}
