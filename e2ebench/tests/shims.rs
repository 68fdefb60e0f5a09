//! The timing shims are pass-through: a session run with every seam
//! wrapped records the same history, byte for byte, as the session run
//! through `SessionDriver` unwrapped. Also checks that the metric names
//! a run prints are the ones `BENCHMARK.json` declares.

use llamatune::history_io::{events_to_jsonl, history_to_events};
use llamatune_e2ebench::probe::{Layers, Ops, Probe};
use llamatune_e2ebench::run::{self, Workload};
use llamatune_e2ebench::serve::ServeSpec;
use llamatune_e2ebench::tune::{self, TuneSpec};
use llamatune_obs::json::{self, JsonValue};
use llamatune_optim::OptimizerKind;
use llamatune_runtime::{CellSpec, SessionDriver};
use std::path::PathBuf;
use std::sync::Arc;

const TUNE: TuneSpec = TuneSpec {
    workload: "ycsb_b",
    optimizer: OptimizerKind::GpBo,
    batch_size: 2,
    trial_workers: 2,
    iterations: 14,
    sessions: 2,
};

const SERVE: ServeSpec =
    ServeSpec { workload: "ycsb_a", optimizer: "smac", iterations: 12, clients: 2, sessions: 2 };

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("e2ebench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn wrapped_session_history_is_byte_identical_to_the_driver_s() {
    let dir = scratch("tune");
    let seed = 3;

    // The library path, untouched: `SessionDriver::run` builds its own
    // executor, adapter and optimizer.
    let reference = tune::setup(&TUNE, &dir.join("driver"), None).unwrap();
    let cell = CellSpec::new(TUNE.workload, tune::adapter_kind(), TUNE.optimizer, seed);
    let label = cell.label.clone();
    let result = SessionDriver::new(&reference.catalog, &reference.opts, cell)
        .with_store(&reference.store)
        .run()
        .unwrap();
    let expected = events_to_jsonl(&history_to_events(&label, &result.history));

    let plain = tune::setup(&TUNE, &dir.join("plain"), None).unwrap();
    let plain = tune::run_plain(&TUNE, &plain, seed, &Probe::default()).unwrap();
    assert_eq!(plain.jsonl, expected, "round clock changed the history");

    let layers = Arc::new(Layers::default());
    let traced = tune::setup(&TUNE, &dir.join("traced"), Some(&layers)).unwrap();
    let (traced, _) = tune::run_traced(&TUNE, &traced, seed, &layers, &Probe::default()).unwrap();
    assert_eq!(traced.jsonl, expected, "timing shims changed the history");
    assert_eq!(traced.stored_trials, TUNE.iterations + 1);

    // Every seam saw work.
    assert!(layers.eval.count() > 0 && layers.batch.count() > 0);
    assert!(layers.suggest.count() > 0 && layers.observe.count() > 0);
    assert_eq!(layers.decode.count(), TUNE.iterations as u64);
    assert!(layers.store_append.count() > TUNE.iterations as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

fn names(v: &JsonValue, key: &str) -> Vec<String> {
    let Some(JsonValue::Arr(items)) = v.get(key) else { panic!("BENCHMARK.json has no {key}") };
    items.iter().map(|m| m.get("name").and_then(JsonValue::as_str).unwrap().to_string()).collect()
}

fn printed(outcome: &run::Outcome) -> Vec<String> {
    outcome.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn runs_print_the_metrics_benchmark_json_declares() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let dir = scratch("contract");
    for (tag, w) in [("tune", Workload::Tune(TUNE)), ("serve", Workload::Serve(SERVE))] {
        let plain = run::measure(&w, 1, 0.0, &dir.join(format!("{tag}-plain"))).unwrap();
        assert_eq!(printed(&plain), names(&spec, "end_to_end"), "{tag}");
        assert_eq!(plain.failed, 0);
        assert!(
            plain.metrics.iter().all(|m| m.value.is_finite() && m.value != 0.0),
            "{tag}: {:?}",
            plain.metrics
        );
        // The traced run fails unless its histories match an untraced run's.
        let traced = run::measure_traced(&w, 1, &dir.join(format!("{tag}-traced"))).unwrap();
        assert_eq!(printed(&traced), names(&spec, "per_layer"), "{tag}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn operations_count_failures() {
    let ops = Ops::default();
    assert!(ops.count("ok", Ok::<_, String>(1)).is_ok());
    assert_eq!(ops.count("bad", Err::<(), _>("boom")).unwrap_err(), "bad: boom");
    assert_eq!((ops.attempted.get(), ops.failed.get()), (2, 1));
}
