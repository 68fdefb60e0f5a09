//! The in-process workloads: one store-backed tuning session driven by
//! `SessionDriver` (untraced), or the same session assembled from the
//! same public parts with every seam wrapped in a timer (traced).

use crate::probe::{Layers, Probe};
use crate::procfs;
use crate::shims::{
    OptimizerRole, TimedAdapter, TimedBackend, TimedExecutor, TimedOptimizer, TimedRunner,
};
use llamatune::history_io::{events_to_jsonl, history_to_events};
use llamatune::pipeline::{LlamaTuneConfig, SearchSpaceAdapter};
use llamatune::session::{run_session_resumable, SessionHistory, SessionOptions, TrialRecord};
use llamatune_optim::{GuardFactory, GuardedOptimizer, Optimizer, OptimizerKind};
use llamatune_runtime::{
    AdapterKind, BatchSuggest, CacheStats, CampaignOptions, CellSpec, EvalCache, SessionDriver,
    WorkloadExecutor,
};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::ConfigSpace;
use llamatune_store::{
    LocalDirBackend, SessionMeta, SessionStatus, StoreOptions, StoredTrial, TrialStore,
};
use llamatune_workloads::{
    workload_by_name, workload_fingerprint, TrialRunner, WorkloadRunner, FINGERPRINT_PROBE_SEED,
};
use std::path::Path;
use std::sync::Arc;

/// `SessionDriver` evaluates a session under `seed ^ EVAL_SEED_SALT`; a
/// caller-owned executor must use the same seed to record the same
/// history.
pub const EVAL_SEED_SALT: u64 = 0x5EED;

/// LHS samples before the optimizer takes over (the paper's setting).
pub const N_INIT: usize = 10;

/// One in-process workload: what is tuned, with what, at which width,
/// and how many sessions a run holds.
#[derive(Debug, Clone, Copy)]
pub struct TuneSpec {
    pub workload: &'static str,
    pub optimizer: OptimizerKind,
    pub batch_size: usize,
    pub trial_workers: usize,
    pub iterations: usize,
    /// Sessions per run, each on its own seed, run one after another.
    pub sessions: usize,
}

/// The LlamaTune arm every workload tunes with: HeSBO to 16 dimensions,
/// 20% special-value bias, 10k buckets.
pub fn adapter_kind() -> AdapterKind {
    AdapterKind::LlamaTune(LlamaTuneConfig::default())
}

/// What one finished session left behind.
#[derive(Debug, Clone)]
pub struct SessionRun {
    pub label: String,
    /// Scores per iteration, iteration 0 being the default configuration.
    pub scores: Vec<f64>,
    /// Trials the store recorded for the session.
    pub stored_trials: usize,
    /// `history_to_events` + `events_to_jsonl` of the history.
    pub jsonl: String,
    /// Peak RSS of the process while the session ran, when measured.
    pub peak_rss_mb: Option<f64>,
}

impl SessionRun {
    fn new(label: &str, history: &SessionHistory, store: &TrialStore) -> SessionRun {
        SessionRun {
            label: label.to_string(),
            scores: history.scores.clone(),
            stored_trials: store.trials_for(label).len(),
            jsonl: events_to_jsonl(&history_to_events(label, history)),
            peak_rss_mb: None,
        }
    }
}

/// Everything a session needs before its first suggestion.
pub struct Setup {
    pub catalog: ConfigSpace,
    pub store: TrialStore,
    pub opts: CampaignOptions,
}

/// Builds the catalog, opens a fresh store in `dir` (its backend wrapped
/// in a timer when `layers` is given) and fixes the session options.
pub fn setup(spec: &TuneSpec, dir: &Path, layers: Option<&Arc<Layers>>) -> Result<Setup, String> {
    let catalog = postgres_v9_6();
    let local = LocalDirBackend::create(dir).map_err(|e| format!("store: {e}"))?;
    let store = match layers {
        None => TrialStore::open_backend(Arc::new(local), StoreOptions::default()),
        Some(layers) => TrialStore::open_backend(
            Arc::new(TimedBackend { inner: Arc::new(local), layers: layers.clone() }),
            StoreOptions::default(),
        ),
    }
    .map_err(|e| format!("store: {e}"))?;
    let session =
        SessionOptions { iterations: spec.iterations, n_init: N_INIT, ..SessionOptions::default() };
    let opts = CampaignOptions::builder()
        .session(session)
        .batch_size(spec.batch_size)
        .trial_workers(spec.trial_workers)
        .constant_liar(true)
        .build()
        .map_err(|e| format!("options: {e}"))?;
    Ok(Setup { catalog, store, opts })
}

fn runner(spec: &TuneSpec, catalog: &ConfigSpace) -> Result<WorkloadRunner, String> {
    let workload = workload_by_name(spec.workload)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    Ok(WorkloadRunner::new(workload, catalog.clone()))
}

/// The executor `SessionDriver::run` would build: the shared runner on
/// `trial_workers` threads under the campaign policy, with a fresh cache.
fn local_executor(
    runner: Arc<dyn TrialRunner>,
    setup: &Setup,
    seed: u64,
    cache: Arc<EvalCache>,
) -> WorkloadExecutor {
    WorkloadExecutor::from_trial_runner(
        runner,
        setup.catalog.clone(),
        seed ^ EVAL_SEED_SALT,
        setup.opts.trial_workers,
    )
    .with_policy(setup.opts.policy)
    .with_cache(cache)
}

/// Runs the session the way a library user does: `SessionDriver` over
/// the store. The only shim is the round clock at the executor seam,
/// which records the turnaround between rounds.
pub fn run_plain(
    spec: &TuneSpec,
    setup: &Setup,
    seed: u64,
    turnaround: &Probe,
) -> Result<SessionRun, String> {
    let cell = CellSpec::new(spec.workload, adapter_kind(), spec.optimizer, seed);
    let label = cell.label.clone();
    let driver = SessionDriver::new(&setup.catalog, &setup.opts, cell).with_store(&setup.store);
    let runner: Arc<dyn TrialRunner> = Arc::new(runner(spec, &setup.catalog)?);
    let mut local = local_executor(runner, setup, seed, Arc::new(EvalCache::new()));
    let batches = Probe::default();
    let mut executor = TimedExecutor::new(&mut local, &batches, turnaround);
    let result = driver.run_with_executor(&mut executor).map_err(|e| format!("driver: {e}"))?;
    Ok(SessionRun::new(&label, &result.history, &setup.store))
}

/// Runs the same session as [`run_plain`], assembled by hand from the
/// public parts `SessionDriver` uses — so that the adapter, the
/// optimizer stack, the liar's factory, the runner and the executor can
/// each be wrapped in a timer. `setup` must have been built with
/// `layers` so that its store backend is timed too.
pub fn run_traced(
    spec: &TuneSpec,
    setup: &Setup,
    seed: u64,
    layers: &Arc<Layers>,
    turnaround: &Probe,
) -> Result<(SessionRun, CacheStats), String> {
    let kind = adapter_kind();
    let label = CellSpec::new(spec.workload, kind.clone(), spec.optimizer, seed).label;
    let store = &setup.store;
    let runner = runner(spec, &setup.catalog)?;
    let adapter = TimedAdapter { inner: kind.build(&setup.catalog, seed), layers: layers.clone() };

    // Session metadata of a fresh store-backed session, as the driver
    // records it (no warm start is configured).
    let meta = SessionMeta {
        session: label.clone(),
        workload: spec.workload.to_string(),
        adapter: kind.identity_tag(seed),
        status: SessionStatus::Running,
        stopped_at: None,
        fingerprint: workload_fingerprint(&runner, FINGERPRINT_PROBE_SEED),
        warm_points: Vec::new(),
        lease: store.writer().map(str::to_string),
    };
    store.append_session(&meta).map_err(|e| format!("store: {e}"))?;

    // The driver's optimizer stack for a store-backed session: the raw
    // optimizer under the constant liar, under the guard (`setup` leaves
    // the guard on, as `CampaignOptions` does by default).
    let optimizer_spec = adapter.optimizer_spec().clone();
    let make: GuardFactory = {
        let (spec_c, layers, optimizer) = (optimizer_spec.clone(), layers.clone(), spec.optimizer);
        Box::new(move || -> Box<dyn Optimizer> {
            let (spec_f, layers_f) = (spec_c.clone(), layers.clone());
            let factory = Box::new(move || -> Box<dyn Optimizer> {
                let model = layers_f.factory.time(|| optimizer.build(&spec_f, seed));
                Box::new(TimedOptimizer {
                    inner: model,
                    role: OptimizerRole::Model,
                    layers: layers_f.clone(),
                })
            });
            Box::new(TimedOptimizer {
                inner: Box::new(BatchSuggest::new(factory)),
                role: OptimizerRole::Liar,
                layers: layers.clone(),
            })
        })
    };
    let optimizer = Box::new(GuardedOptimizer::new(make, optimizer_spec, seed));

    let session_opts = SessionOptions {
        seed,
        trace_label: label.clone(),
        warm_points: Vec::new(),
        ..setup.opts.session.clone()
    };
    let timed_runner: Arc<dyn TrialRunner> =
        Arc::new(TimedRunner { inner: Arc::new(runner), layers: layers.clone() });
    let cache = Arc::new(EvalCache::new());
    let mut local = local_executor(timed_runner, setup, seed, cache.clone());
    let mut executor = TimedExecutor::new(&mut local, &layers.batch, turnaround);

    let mut store_err: Option<std::io::Error> = None;
    let mut sink = |t: TrialRecord<'_>| {
        let rec = StoredTrial {
            session: label.clone(),
            iteration: t.iteration,
            raw_score: t.raw_score,
            score: t.score,
            point: t.point.to_vec(),
            config: t.config.values().to_vec(),
            metrics: t.metrics.to_vec(),
            status: t.status,
            attempts: t.attempts,
        };
        if let Err(e) = layers.sink.time(|| store.append_trial(&rec)) {
            store_err.get_or_insert(e);
        }
    };
    let history = layers.fold.time(|| {
        run_session_resumable(
            &adapter,
            optimizer,
            &mut executor,
            &session_opts,
            setup.opts.batch_size,
            &[],
            Some(&mut sink),
        )
    })?;
    if let Some(e) = store_err {
        return Err(format!("store: {e}"));
    }
    store
        .append_session(&SessionMeta {
            status: SessionStatus::Done,
            stopped_at: history.stopped_at,
            lease: None,
            ..meta
        })
        .map_err(|e| format!("store: {e}"))?;

    Ok((SessionRun::new(&label, &history, store), cache.stats()))
}

/// Runs one session per seed, one after another, plain or (with
/// `layers`) traced, and records each session's peak RSS.
pub fn run_panel(
    spec: &TuneSpec,
    setup: &Setup,
    seeds: &[u64],
    layers: Option<&Arc<Layers>>,
    turnaround: &Probe,
) -> Result<(Vec<SessionRun>, CacheStats), String> {
    let mut cache = CacheStats::default();
    let mut sessions = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        procfs::reset_peak_rss();
        let mut session = match layers {
            None => run_plain(spec, setup, seed, turnaround)?,
            Some(l) => {
                let (session, stats) = run_traced(spec, setup, seed, l, turnaround)?;
                cache.hits += stats.hits;
                cache.misses += stats.misses;
                session
            }
        };
        session.peak_rss_mb = Some(procfs::peak_rss_mb());
        sessions.push(session);
    }
    Ok((sessions, cache))
}
