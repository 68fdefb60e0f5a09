//! Pass-through timers around each layer's public seam. Every shim
//! forwards each call unchanged to the wrapped value and records how
//! long it took in [`Layers`], so a wrapped session must record the
//! same history as an unwrapped one (the benchmark checks this).

use crate::probe::{Layers, Probe};
use llamatune::pipeline::SearchSpaceAdapter;
use llamatune::session::{EvalResult, Trial, TrialExecutor};
use llamatune_client::{Client, ClientError};
use llamatune_optim::{DegradationEvent, Observation, Optimizer, SearchSpec};
use llamatune_server::wire::{encode_ok, Report, Request, Response, SuggestReply, WireError};
use llamatune_space::{Config, ConfigSpace};
use llamatune_store::{CasConflict, Revision, StoreBackend};
use llamatune_workloads::{AttemptOutcome, TrialRunner};
use std::any::Any;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Index of `aborts_per_s` in the engine's internal-metrics vector.
const ABORTS_PER_S: usize = 20;

/// Times `TrialRunner::evaluate_attempt`: the simulated DBMS run.
pub struct TimedRunner {
    pub inner: Arc<dyn TrialRunner>,
    pub layers: Arc<Layers>,
}

impl TrialRunner for TimedRunner {
    fn evaluate_attempt(
        &self,
        space: &ConfigSpace,
        config: &Config,
        seed: u64,
        attempt: u32,
    ) -> AttemptOutcome {
        let out =
            self.layers.eval.time(|| self.inner.evaluate_attempt(space, config, seed, attempt));
        match out.score {
            // Throughput objective: the score is committed transactions
            // per virtual second of the measured window.
            Some(tps) => {
                let window_s = out.virtual_ms / 1000.0;
                let aborts = out.metrics.get(ABORTS_PER_S).copied().unwrap_or(0.0);
                self.layers.sim_txns.add(((tps + aborts) * window_s).round() as u64);
            }
            None => self.layers.crashed.add(1),
        }
        out
    }
}

/// Times `TrialExecutor::run_batch` and the gaps between rounds. The
/// gap — from one round's results returning to the next round being
/// handed out — is the in-process tuner's turnaround, so the untraced
/// run wraps its executor in this shim as well.
pub struct TimedExecutor<'a> {
    pub inner: &'a mut dyn TrialExecutor,
    pub batch: &'a Probe,
    pub turnaround: &'a Probe,
    last_end: Option<Instant>,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a mut dyn TrialExecutor, batch: &'a Probe, turnaround: &'a Probe) -> Self {
        TimedExecutor { inner, batch, turnaround, last_end: None }
    }
}

impl TrialExecutor for TimedExecutor<'_> {
    fn run_batch(&mut self, trials: &[Trial]) -> Vec<EvalResult> {
        let start = Instant::now();
        if let Some(end) = self.last_end {
            self.turnaround.record(start - end);
        }
        let out = self.inner.run_batch(trials);
        let end = Instant::now();
        self.batch.record(end - start);
        self.last_end = Some(end);
        out
    }

    fn max_parallelism(&self) -> usize {
        self.inner.max_parallelism()
    }
}

/// Which optimizer layer a [`TimedOptimizer`] wraps.
#[derive(Debug, Clone, Copy)]
pub enum OptimizerRole {
    /// The constant-liar `BatchSuggest` wrapper: every call is timed as
    /// one sample of [`Layers::liar`].
    Liar,
    /// The raw optimizer the liar's factory builds: suggestions and
    /// state updates are timed separately.
    Model,
}

/// Times every `Optimizer` method of the wrapped optimizer.
pub struct TimedOptimizer {
    pub inner: Box<dyn Optimizer>,
    pub role: OptimizerRole,
    pub layers: Arc<Layers>,
}

impl TimedOptimizer {
    fn probe(&self, suggesting: bool) -> &Probe {
        match (self.role, suggesting) {
            (OptimizerRole::Liar, _) => &self.layers.liar,
            (OptimizerRole::Model, true) => &self.layers.suggest,
            (OptimizerRole::Model, false) => &self.layers.observe,
        }
    }
}

impl Optimizer for TimedOptimizer {
    fn suggest(&mut self) -> Vec<f64> {
        let start = Instant::now();
        let out = self.inner.suggest();
        self.probe(true).record(start.elapsed());
        out
    }

    fn observe(&mut self, obs: Observation) {
        let start = Instant::now();
        self.inner.observe(obs);
        self.probe(false).record(start.elapsed());
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn suggest_batch(&mut self, q: usize) -> Vec<Vec<f64>> {
        let start = Instant::now();
        let out = self.inner.suggest_batch(q);
        self.probe(true).record(start.elapsed());
        out
    }

    fn observe_batch(&mut self, obs: Vec<Observation>) {
        let start = Instant::now();
        self.inner.observe_batch(obs);
        self.probe(false).record(start.elapsed());
    }

    fn snapshot(&self) -> Option<Box<dyn Any + Send>> {
        let start = Instant::now();
        let out = self.inner.snapshot();
        self.probe(false).record(start.elapsed());
        out
    }

    fn snapshot_beats_replay(&self) -> bool {
        self.inner.snapshot_beats_replay()
    }

    fn restore(&mut self, snapshot: &(dyn Any + Send)) -> bool {
        let start = Instant::now();
        let out = self.inner.restore(snapshot);
        self.probe(false).record(start.elapsed());
        out
    }

    fn drain_degradations(&mut self) -> Vec<DegradationEvent> {
        self.inner.drain_degradations()
    }
}

/// Times `SearchSpaceAdapter::decode`.
pub struct TimedAdapter {
    pub inner: Box<dyn SearchSpaceAdapter>,
    pub layers: Arc<Layers>,
}

impl SearchSpaceAdapter for TimedAdapter {
    fn optimizer_spec(&self) -> &SearchSpec {
        self.inner.optimizer_spec()
    }

    fn decode(&self, x: &[f64]) -> Config {
        self.layers.decode.time(|| self.inner.decode(x))
    }

    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }
}

/// Times every `StoreBackend` call; counts appended bytes, syncs and
/// manifest commits.
pub struct TimedBackend {
    pub inner: Arc<dyn StoreBackend>,
    pub layers: Arc<Layers>,
}

impl std::fmt::Debug for TimedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedBackend").field("inner", &self.inner).finish()
    }
}

impl TimedBackend {
    fn busy<T>(&self, f: impl FnOnce() -> T) -> T {
        self.layers.store_busy.time(f)
    }
}

impl StoreBackend for TimedBackend {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn get(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.busy(|| self.inner.get(name))
    }

    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.busy(|| self.inner.put(name, data))
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.append(name, data);
        let took = start.elapsed();
        self.layers.store_append.record(took);
        self.layers.store_busy.record(took);
        self.layers.store_bytes.add(data.len() as u64);
        out
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.layers.store_syncs.add(1);
        self.busy(|| self.inner.sync(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.busy(|| self.inner.truncate(name, len))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.busy(|| self.inner.list())
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.busy(|| self.inner.delete(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.busy(|| self.inner.rename(from, to))
    }

    fn read_manifest(&self) -> io::Result<(Option<Vec<u8>>, Revision)> {
        self.busy(|| self.inner.read_manifest())
    }

    fn commit_manifest(
        &self,
        data: &[u8],
        expected: Revision,
    ) -> io::Result<Result<Revision, CasConflict>> {
        self.layers.manifest_commits.add(1);
        self.busy(|| self.inner.commit_manifest(data, expected))
    }
}

/// Times the `Client` calls of the served tuning loop.
pub struct TimedClient {
    pub inner: Client,
    pub layers: Arc<Layers>,
}

impl TimedClient {
    pub fn suggest_batch(&mut self, session: &str) -> Result<SuggestReply, ClientError> {
        self.layers.client_suggest.time(|| self.inner.suggest_batch(session))
    }

    pub fn report(&mut self, report: &Report) -> Result<(), ClientError> {
        self.layers.client_report.time(|| self.inner.report(report))
    }
}

/// Re-runs, from outside the client and daemon, every wire encode and
/// decode one served round costs: the `suggest_batch` request and its
/// reply, the `report` request and its ack. Records the time in
/// [`Layers::codec`] and the frame bytes (with their 4-byte length
/// prefixes) in [`Layers::wire_bytes`].
pub fn time_round_codec(
    layers: &Layers,
    session_params: &str,
    reply: &SuggestReply,
    report: &Report,
) -> Result<(), WireError> {
    let start = Instant::now();
    let suggest_req = Request::encode(1, "suggest_batch", session_params);
    black_box(Request::decode(&suggest_req)?);
    let suggest_resp = encode_ok(1, &reply.encode());
    black_box(SuggestReply::decode(&Response::decode(&suggest_resp)?.result?)?);
    let report_req = Request::encode(2, "report", &report.encode());
    black_box(Report::decode(&Request::decode(&report_req)?.params)?);
    let ack = encode_ok(2, "{}");
    black_box(Response::decode(&ack)?.result?);
    layers.codec.record(start.elapsed());
    let frames = [&suggest_req, &suggest_resp, &report_req, &ack];
    layers.wire_bytes.add(frames.iter().map(|f| 4 + f.len() as u64).sum());
    Ok(())
}
