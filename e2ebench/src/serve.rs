//! The served workload: an in-process daemon on loopback and one client
//! thread per session. Each client attaches, evaluates every suggested
//! round locally and reports it back, exactly as `run_remote_session`
//! does, but through [`TimedClient`] so that turnaround can be measured.

use crate::probe::{Layers, Ops, Probe};
use crate::procfs;
use crate::shims::{time_round_codec, TimedBackend, TimedClient, TimedRunner};
use crate::tune::{adapter_kind, SessionRun, EVAL_SEED_SALT, N_INIT};
use llamatune::history_io::events_from_jsonl;
use llamatune::session::{Trial, TrialExecutor};
use llamatune_client::Client;
use llamatune_runtime::{CampaignOptions, ExecutionPolicy, WorkloadExecutor};
use llamatune_server::wire::{CreateSession, Report, SuggestReply, WireResult};
use llamatune_server::{Server, ServerConfig, SessionRegistry};
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::ConfigSpace;
use llamatune_store::{LocalDirBackend, StoreBackend, StoreOptions};
use llamatune_workloads::{workload_by_name, TrialRunner, WorkloadRunner};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The served workload: `clients` connections on as many threads, each
/// driving its share of the run's sessions one after another.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub workload: &'static str,
    pub optimizer: &'static str,
    pub iterations: usize,
    pub clients: usize,
    /// Sessions per run, each on its own seed.
    pub sessions: usize,
}

/// A bound daemon, not yet serving.
pub struct Setup {
    pub catalog: ConfigSpace,
    pub server: Server,
}

/// Builds the catalog, opens the daemon's store backend in `dir`
/// (wrapped in a timer when `layers` is given), builds the session
/// registry and binds the daemon to an ephemeral loopback port.
pub fn setup(dir: &Path, layers: Option<&Arc<Layers>>) -> Result<Setup, String> {
    let catalog = postgres_v9_6();
    let local: Arc<dyn StoreBackend> =
        Arc::new(LocalDirBackend::create(dir).map_err(|e| format!("store: {e}"))?);
    let backend: Arc<dyn StoreBackend> = match layers {
        None => local,
        Some(layers) => Arc::new(TimedBackend { inner: local, layers: layers.clone() }),
    };
    // Batch 1 on one trial worker; sessions set their own loop bounds.
    let base = CampaignOptions::builder()
        .batch_size(1)
        .trial_workers(1)
        .build()
        .map_err(|e| format!("options: {e}"))?;
    let registry = SessionRegistry::new(backend, catalog.clone(), base, StoreOptions::default());
    let server = Server::bind("127.0.0.1:0", Arc::new(registry), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    Ok(Setup { catalog, server })
}

/// Serves one session per seed, client `c` driving seeds `c`,
/// `c + clients`, ..., until every session is done; then stops the
/// daemon. Returns the sessions in seed order and the wall time from the
/// clients' start until the last one finished.
pub fn run(
    spec: &ServeSpec,
    setup: Setup,
    seeds: &[u64],
    layers: Option<&Arc<Layers>>,
    turnaround: &Probe,
    ops: &Ops,
) -> Result<(Vec<SessionRun>, f64), String> {
    let Setup { catalog, server } = setup;
    let handle = server.handle().map_err(|e| format!("daemon: {e}"))?;
    let addr = handle.addr().to_string();
    let clients = spec.clients;
    std::thread::scope(|s| {
        let daemon = s.spawn(move || server.serve());
        let start = Instant::now();
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, catalog) = (&addr, &catalog);
                let mine: Vec<u64> = seeds.iter().copied().skip(c).step_by(clients).collect();
                let measures_rss = c == 0;
                s.spawn(move || {
                    drive_client(spec, addr, catalog, &mine, measures_rss, layers, turnaround, ops)
                })
            })
            .collect();
        let served: Vec<Result<Vec<SessionRun>, String>> = threads
            .into_iter()
            .map(|t| t.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect();
        let session_s = start.elapsed().as_secs_f64();
        handle.shutdown();
        let stopped = daemon.join().map_err(|_| "daemon thread panicked".to_string())?;
        stopped.map_err(|e| format!("daemon: {e}"))?;
        let served = served.into_iter().collect::<Result<Vec<_>, _>>()?;
        // Back to seed order: client c holds seeds c, c + clients, ...
        let mut runs: Vec<Option<SessionRun>> = vec![None; seeds.len()];
        for (c, client_runs) in served.into_iter().enumerate() {
            for (k, run) in client_runs.into_iter().enumerate() {
                runs[c + k * clients] = Some(run);
            }
        }
        Ok((runs.into_iter().map(|r| r.expect("every seed served")).collect(), session_s))
    })
}

/// One client connection driving its sessions in turn. One client per
/// run (`measures_rss`) records the process's peak RSS over each of its
/// sessions; the peak is process-wide, so the other clients' sessions
/// overlap those windows.
#[allow(clippy::too_many_arguments)]
fn drive_client(
    spec: &ServeSpec,
    addr: &str,
    catalog: &ConfigSpace,
    seeds: &[u64],
    measures_rss: bool,
    layers: Option<&Arc<Layers>>,
    turnaround: &Probe,
    ops: &Ops,
) -> Result<Vec<SessionRun>, String> {
    let scratch = Arc::new(Layers::default());
    let probes = layers.unwrap_or(&scratch);
    let client = ops.count("connect", Client::connect(addr))?;
    let mut client = TimedClient { inner: client, layers: probes.clone() };
    let mut runs = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        if measures_rss {
            procfs::reset_peak_rss();
        }
        let mut run = drive_session(spec, &mut client, catalog, seed, layers, turnaround, ops)?;
        run.peak_rss_mb = measures_rss.then(procfs::peak_rss_mb);
        runs.push(run);
    }
    Ok(runs)
}

/// One session: attach, evaluate and report every round, check the
/// session is done, export its history.
fn drive_session(
    spec: &ServeSpec,
    client: &mut TimedClient,
    catalog: &ConfigSpace,
    seed: u64,
    layers: Option<&Arc<Layers>>,
    turnaround: &Probe,
    ops: &Ops,
) -> Result<SessionRun, String> {
    let probes = client.layers.clone();
    let req = CreateSession {
        workload: spec.workload.to_string(),
        adapter: adapter_kind(),
        optimizer: spec.optimizer.to_string(),
        seed,
        iterations: spec.iterations,
        n_init: N_INIT,
        batch_size: 1,
    };
    let attached = ops.count("create_session", client.inner.create_session(&req))?;
    let session = attached.session.clone();

    // The executor `run_remote_session` builds: one worker, default
    // policy, quarantine preloaded from the attach reply.
    let workload = workload_by_name(spec.workload)
        .ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let runner: Arc<dyn TrialRunner> = Arc::new(WorkloadRunner::new(workload, catalog.clone()));
    let runner = match layers {
        None => runner,
        Some(layers) => Arc::new(TimedRunner { inner: runner, layers: layers.clone() }),
    };
    let mut executor =
        WorkloadExecutor::from_trial_runner(runner, catalog.clone(), seed ^ EVAL_SEED_SALT, 1)
            .with_policy(ExecutionPolicy::default());
    let quarantine = ops.count("attach reply", attached.quarantine_configs())?;
    executor.preload_quarantine(quarantine.iter());

    let session_params = format!("{{\"session\":\"{}\"}}", llamatune_obs::json::escape(&session));
    let mut report_sent: Option<Instant> = None;
    loop {
        let reply = client.suggest_batch(&session);
        let (round, trials) = match ops.count("suggest_batch", reply)? {
            SuggestReply::Done => break,
            SuggestReply::Round { round, trials } => (round, trials),
        };
        if let Some(sent) = report_sent {
            turnaround.record(sent.elapsed());
        }
        if layers.is_some() {
            probes.threads_peak.max(procfs::threads());
        }
        let batch: Vec<Trial> = trials
            .iter()
            .map(|t| t.to_config().map(|config| Trial { iteration: t.iteration, config }))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("round {round}: {e}"))?;
        let results = probes.batch.time(|| executor.run_batch(&batch));
        let report = Report {
            session: session.clone(),
            round,
            results: results.iter().map(WireResult::from_eval).collect(),
        };
        if layers.is_some() {
            let reply = SuggestReply::Round { round, trials };
            time_round_codec(&probes, &session_params, &reply, &report)
                .map_err(|e| format!("wire codec: {e}"))?;
        }
        report_sent = Some(Instant::now());
        ops.count("report", client.report(&report))?;
    }

    let status = ops.count("session_status", client.inner.session_status(&session))?;
    if status.status != "done" {
        return Err(format!("session {session} ended {:?}, not done", status.status));
    }
    let jsonl = ops.count("export_history", client.inner.export_history(&session))?;
    let mut events = events_from_jsonl(&jsonl).map_err(|e| format!("export of {session}: {e}"))?;
    events.sort_by_key(|e| e.iteration);
    let scores: Vec<f64> = events.iter().map(|e| e.score).collect();
    Ok(SessionRun { label: session, stored_trials: scores.len(), scores, jsonl, peak_rss_mb: None })
}
