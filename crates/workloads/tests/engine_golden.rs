//! Golden pin of the engine's outputs.
//!
//! Every workload runs at its `suggested_options` over a fixed set of
//! configurations: the default, five LlamaTune-decoded points from a fixed
//! seed, knob sets that drive the buffer pool's dirty-page cleaning paths
//! (backend flushes, an aggressive background writer, back-to-back
//! checkpoints) and autovacuum, a crashing configuration, and one
//! open-loop tail-latency run. For each run the exact bits of throughput
//! and the three latency percentiles are pinned, plus the commit / abort /
//! crash counts and a digest of the 27 internal metrics.
//!
//! The values were generated once, before any engine optimisation, and
//! are never edited: a speedup of the simulator must reproduce them to
//! the bit. On a mismatch the test prints the rows it computed.

use llamatune::{LlamaTuneConfig, LlamaTunePipeline, SearchSpaceAdapter};
use llamatune_engine::RunResult;
use llamatune_space::catalog::postgres_v9_6;
use llamatune_space::{Config, ConfigSpace, KnobValue};
use llamatune_workloads::{workload_by_name, Objective, WorkloadRunner};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seed of every pinned run.
const RUN_SEED: u64 = 7;
/// Seed of the LlamaTune projection and of the points decoded through it.
const DECODE_SEED: u64 = 2022;
/// Offered load of the open-loop tail-latency run.
const OPEN_RATE_TPS: f64 = 1_500.0;

/// One pinned run: `(case, tput, p50, p95, p99, committed, aborted,
/// crashed, metrics digest)`, floats as `f64::to_bits`.
type Row = (&'static str, u64, u64, u64, u64, u64, u64, bool, u64);

fn with(space: &ConfigSpace, knobs: &[(&str, KnobValue)]) -> Config {
    let mut cfg = space.default_config();
    for (name, v) in knobs {
        cfg.values_mut()[space.index_of(name).expect("catalog knob")] = *v;
    }
    cfg
}

/// The pinned configurations, in table order; the last entry is run
/// open-loop.
fn cases(space: &ConfigSpace) -> Vec<(&'static str, Config)> {
    let mut out = vec![("default", space.default_config())];
    let pipe = LlamaTunePipeline::new(space, &LlamaTuneConfig::default(), DECODE_SEED);
    let dims = pipe.optimizer_spec().len();
    let mut rng = StdRng::seed_from_u64(DECODE_SEED);
    for name in ["llamatune_0", "llamatune_1", "llamatune_2", "llamatune_3", "llamatune_4"] {
        let x: Vec<f64> = (0..dims).map(|_| rng.random()).collect();
        out.push((name, pipe.decode(&x)));
    }
    out.push(("backend_flush_after_2", with(space, &[("backend_flush_after", KnobValue::Int(2))])));
    out.push((
        "bgwriter_hot",
        with(
            space,
            &[
                ("bgwriter_delay", KnobValue::Int(10)),
                ("bgwriter_lru_maxpages", KnobValue::Int(1_000)),
                ("bgwriter_lru_multiplier", KnobValue::Float(10.0)),
            ],
        ),
    ));
    out.push((
        "checkpoint_storm",
        with(
            space,
            &[
                ("checkpoint_completion_target", KnobValue::Float(0.0)),
                ("max_wal_size", KnobValue::Int(2)),
            ],
        ),
    ));
    out.push(("autovacuum_naptime_1", with(space, &[("autovacuum_naptime", KnobValue::Int(1))])));
    out.push(("crash", with(space, &[("shared_buffers", KnobValue::Int(2_097_152))])));
    out.push(("open_loop_p95", space.default_config()));
    out
}

/// FNV-1a over the bit patterns of the metric vector.
fn digest(metrics: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for m in metrics {
        for b in m.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn row(case: &'static str, r: &RunResult) -> Row {
    (
        case,
        r.throughput_tps.to_bits(),
        r.p50_latency_ms.to_bits(),
        r.p95_latency_ms.to_bits(),
        r.p99_latency_ms.to_bits(),
        r.committed,
        r.aborted,
        r.crashed,
        digest(&r.metrics),
    )
}

fn check(workload: &str, golden: &[Row]) {
    let space = postgres_v9_6();
    let spec = workload_by_name(workload).expect("known workload");
    let closed = WorkloadRunner::new(spec.clone(), space.clone());
    let open = WorkloadRunner::new(spec, space.clone())
        .with_objective(Objective::TailLatency95 { rate_tps: OPEN_RATE_TPS });
    let cases = cases(&space);
    let last = cases.len() - 1;
    let got: Vec<Row> = cases
        .iter()
        .enumerate()
        .map(|(i, (case, cfg))| {
            let runner = if i == last { &open } else { &closed };
            row(case, &runner.run(&space, cfg, RUN_SEED))
        })
        .collect();
    if got != golden {
        for r in &got {
            println!(
                "    (\"{}\", 0x{:016X}, 0x{:016X}, 0x{:016X}, 0x{:016X}, {}, {}, {}, 0x{:016X}),",
                r.0, r.1, r.2, r.3, r.4, r.5, r.6, r.7, r.8
            );
        }
        panic!("{workload}: engine outputs drifted from the golden pin (computed rows above)");
    }
}

#[test]
fn ycsb_a() {
    check("ycsb_a", YCSB_A);
}

#[test]
fn ycsb_b() {
    check("ycsb_b", YCSB_B);
}

#[test]
fn ycsb_f() {
    check("ycsb_f", YCSB_F);
}

#[test]
fn tpcc() {
    check("tpcc", TPCC);
}

#[test]
fn seats() {
    check("seats", SEATS);
}

#[test]
fn twitter() {
    check("twitter", TWITTER);
}

#[test]
fn resource_stresser() {
    check("resource_stresser", RESOURCE_STRESSER);
}

#[rustfmt::skip]
const YCSB_A: &[Row] = &[
    ("default", 0x40CE8D4000000000, 0x400154FDF3B645A2, 0x4019B645A1CAC083, 0x40214320D9945B6A, 25028, 0, false, 0x62F73262360AD8A3),
    ("llamatune_0", 0x40D245A800000000, 0x3FE204189374BC6A, 0x4022248E8A71DE56, 0x403646D1E108C3F4, 29937, 0, false, 0x8979AD3DD0DBEC53),
    ("llamatune_1", 0x40C9C3F000000000, 0x3FF31EB851EB851F, 0x401EE1B089A02754, 0x404F744284DFCE26, 21107, 0, false, 0x664A7CC17A057A58),
    ("llamatune_2", 0x40D1CA8800000000, 0x3FE93F7CED916873, 0x402117F62B6AE7CF, 0x40361AFE1DA7B0B9, 29149, 0, false, 0x2A87FBBB43CE41B0),
    ("llamatune_3", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("llamatune_4", 0x40C7F20000000000, 0x3FE4395810624DD3, 0x40203374BC6A7EFA, 0x405BDBA858793DD7, 19616, 0, false, 0x5CE70CACFA6F0298),
    ("backend_flush_after_2", 0x40C1DDC000000000, 0x4004EC8B43958106, 0x40349916872B020C, 0x4037494467381D79, 14636, 0, false, 0xF4216BA123C65433),
    ("bgwriter_hot", 0x40CF324000000000, 0x400319999999999A, 0x401597CED916872B, 0x401C97E90FF9724A, 25556, 0, false, 0xC37EB4CC068AC491),
    ("checkpoint_storm", 0x40CDA33000000000, 0x40026C8B43958106, 0x4019EA7EF9DB22D1, 0x4020FDF3B645A1CB, 24279, 0, false, 0x33F65269BE8B40E6),
    ("autovacuum_naptime_1", 0x40CE8D4000000000, 0x400154FDF3B645A2, 0x4019B645A1CAC083, 0x40214320D9945B6A, 25028, 0, false, 0x62F73262360AD8A3),
    ("crash", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("open_loop_p95", 0x4097430000000000, 0x3FD3F7CED916872B, 0x3FE64D6A161E4F75, 0x3FE9BD7B2031CEB0, 2382, 0, false, 0x858E39F3C867EC9E),
];

#[rustfmt::skip]
const YCSB_B: &[Row] = &[
    ("default", 0x40DB7CE000000000, 0x3FE88B4395810625, 0x400E624DD2F1A9FC, 0x40183645A1CAC083, 22518, 0, false, 0x710F06C0B552B18F),
    ("llamatune_0", 0x40DA1FD000000000, 0x3FD8E5604189374C, 0x400E5C28F5C28F5C, 0x401DF0A3D70A3D71, 21401, 0, false, 0xB523FA008C019EE1),
    ("llamatune_1", 0x40D9230000000000, 0x3FE624DD2F1A9FBE, 0x400E5A1CAC083127, 0x401DED916872B021, 20592, 0, false, 0x774744F268B273EB),
    ("llamatune_2", 0x40E0F3D800000000, 0x3FD4083126E978D5, 0x400E5E353F7CED91, 0x4017F49CF56EAC42, 27775, 0, false, 0xE7B9D15B11D6ED80),
    ("llamatune_3", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("llamatune_4", 0x40D7417000000000, 0x3FD4FDF3B645A1CB, 0x400E5C28F5C28F5C, 0x401DED916872B021, 19051, 0, false, 0xC6B227CA41761C79),
    ("backend_flush_after_2", 0x40DAA3B000000000, 0x3FE028F5C28F5C29, 0x400E645A1CAC0831, 0x4031427BB2FEC568, 21823, 0, false, 0x0D97161A48303D7B),
    ("bgwriter_hot", 0x40DBDEB000000000, 0x3FE872B020C49BA6, 0x400E624DD2F1A9FC, 0x40106F9DB22D0E56, 22831, 0, false, 0xF6E31F5A500374EA),
    ("checkpoint_storm", 0x40DB97C000000000, 0x3FE8624DD2F1A9FC, 0x400E624DD2F1A9FC, 0x40183645A1CAC083, 22604, 0, false, 0x73AF14184A086DE5),
    ("autovacuum_naptime_1", 0x40DB7CE000000000, 0x3FE88B4395810625, 0x400E624DD2F1A9FC, 0x40183645A1CAC083, 22518, 0, false, 0x710F06C0B552B18F),
    ("crash", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("open_loop_p95", 0x4096FD0000000000, 0x3FC95810624DD2F2, 0x3FD3E425AEE63262, 0x3FE2F9DB22D0E560, 1177, 0, false, 0xC8332A60837BCD53),
];

#[rustfmt::skip]
const YCSB_F: &[Row] = &[
    ("default", 0x40C851B6DB6DB6DC, 0x40081A9FBE76C8B4, 0x401EB53F7CED9168, 0x40237E76C8B43958, 17432, 0, false, 0x5C9FD6DA1AEB1771),
    ("llamatune_0", 0x40CA304924924925, 0x3FEDCAC083126E98, 0x4022D810624DD2F2, 0x403C1242070B8CFE, 18772, 0, false, 0x71FE91517F00134B),
    ("llamatune_1", 0x40C4B12492492493, 0x3FFA147AE147AE14, 0x4026AF06F694465F, 0x404D514413554805, 14832, 0, false, 0xF5BB08A5C79B13F0),
    ("llamatune_2", 0x40CF4CDB6DB6DB6E, 0x3FF2189374BC6A7F, 0x4024DEB851EB851F, 0x403899C432CA57A8, 22436, 0, false, 0xA58D4A25A8F5A502),
    ("llamatune_3", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("llamatune_4", 0x40C95F0000000000, 0x3FF0B851EB851EB8, 0x4024170A3D70A3D7, 0x403E7837B4A2339E, 18186, 0, false, 0xFBC07CF824705A88),
    ("backend_flush_after_2", 0x40BEFA0000000001, 0x4007676C8B439581, 0x4037B4FDF3B645A2, 0x4039FC6A7EF9DB23, 11102, 0, false, 0x8C9176845894D307),
    ("bgwriter_hot", 0x40C8C18000000000, 0x4009A5E353F7CED9, 0x401DB645A1CAC083, 0x4020B92E1EF73C0E, 17745, 0, false, 0xFF8F37F66F0BD1E9),
    ("checkpoint_storm", 0x40C7D1DB6DB6DB6E, 0x400920C49BA5E354, 0x401FE353F7CED917, 0x40246D3C36113406, 17074, 0, false, 0x690C4D7A14A74593),
    ("autovacuum_naptime_1", 0x40C851B6DB6DB6DC, 0x40081A9FBE76C8B4, 0x401EB53F7CED9168, 0x40237E76C8B43958, 17432, 0, false, 0x5C9FD6DA1AEB1771),
    ("crash", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("open_loop_p95", 0x409736DB6DB6DB6E, 0x3FD449BA5E353F7D, 0x3FEA0C49BA5E353F, 0x3FED42EDBB59DDC3, 2080, 0, false, 0x3C17B67B7748BF71),
];

#[rustfmt::skip]
const TPCC: &[Row] = &[
    ("default", 0x409B536276276276, 0x40169A9FBE76C8B4, 0x403975C28F5C28F6, 0x4070494E65BEA0B2, 4547, 0, false, 0xD13F48D099B754C5),
    ("llamatune_0", 0x40A6F80000000000, 0x4019A2D0E5604189, 0x4032B78D4FDF3B64, 0x406644C5197A246D, 7644, 0, false, 0x44AE8433DCF4D13E),
    ("llamatune_1", 0x40A015B13B13B13B, 0x401BFDF3B645A1CB, 0x404C2A3D70A3D702, 0x406E19EDD0529342, 5353, 0, false, 0xE9523AEF0760E61D),
    ("llamatune_2", 0x40A95E9D89D89D8A, 0x4014AC083126E979, 0x40284816F0068DAA, 0x4067E15714B9CB68, 8443, 0, false, 0x664C7FD3EEC09553),
    ("llamatune_3", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("llamatune_4", 0x40A38989D89D89D8, 0x40146978D4FDF3B6, 0x402B6D35A8587938, 0x4071BDDC9C4DA8FD, 6502, 0, false, 0x119527B1C9AE139C),
    ("backend_flush_after_2", 0x4089189D89D89D8A, 0x40375CAC083126E9, 0x40498E9930BE0DE7, 0x40811C8A4D2B2C0E, 2088, 0, false, 0x7FF299A05CC703CD),
    ("bgwriter_hot", 0x409EE84EC4EC4EC5, 0x4014A0C49BA5E354, 0x40374816F0068D9A, 0x406DCDD9FD36F7DF, 5143, 0, false, 0x553493AD7E29A259),
    ("checkpoint_storm", 0x4099CB13B13B13B1, 0x4015DA1CAC083127, 0x403B072B020C49BA, 0x40720542EDBB59E6, 4292, 0, false, 0x92BC0FCD9837087F),
    ("autovacuum_naptime_1", 0x409B3189D89D89D8, 0x401504189374BC6A, 0x403607EF9DB22D0E, 0x4070C37D1782D385, 4525, 0, false, 0xA7B89A60FA004FB8),
    ("crash", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("open_loop_p95", 0x40972F6276276276, 0x401025E353F7CED9, 0x403BFE4C2F837B2E, 0x406AF8FE32A0663B, 3858, 0, false, 0x803432814EE6474B),
];

#[rustfmt::skip]
const SEATS: &[Row] = &[
    ("default", 0x40B0EE6000000000, 0x400276C8B4395810, 0x404105FD8ADAB9F2, 0x4058DD82FD75E1D3, 6935, 0, false, 0x5215118394D9F56D),
    ("llamatune_0", 0x40AC318000000000, 0x4001428F5C28F5C3, 0x404DFB6E2EB1C41B, 0x405AF068DB8BAC42, 5774, 0, false, 0x0D4C94DAA25ADEDE),
    ("llamatune_1", 0x40ADED4000000000, 0x400C89374BC6A7F0, 0x4043CA305532617B, 0x40607D0E56041893, 6129, 0, false, 0x8B1F6D0D10527C30),
    ("llamatune_2", 0x40B5C34000000000, 0x3FF983126E978D50, 0x4037E4B923A29C87, 0x405D1B851EB851EC, 8914, 0, false, 0xBFF34430AFA63F4B),
    ("llamatune_3", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("llamatune_4", 0x40AF158000000000, 0x40054ED916872B02, 0x4043C53F7CED9168, 0x4056F5F6FD21FF48, 6366, 0, false, 0x2B4F71EC5E3A321A),
    ("backend_flush_after_2", 0x40AA0F4000000000, 0x400E6C8B43958106, 0x4040B4BC6A7EF9D9, 0x406982FE718A8753, 5337, 0, false, 0xC307E2B65D72FB86),
    ("bgwriter_hot", 0x40B181E000000000, 0x4001666666666666, 0x40411D916872B021, 0x4057AFC9EECBFB3D, 7171, 0, false, 0x6B279BF79CD471CA),
    ("checkpoint_storm", 0x40B0F2C000000000, 0x400248B439581062, 0x404172B9F559B3D0, 0x405590EF88B9779A, 6942, 0, false, 0xD40F46E2951E8F1B),
    ("autovacuum_naptime_1", 0x40B0EE6000000000, 0x400276C8B4395810, 0x404105FD8ADAB9F2, 0x4058DD82FD75E1D3, 6935, 0, false, 0x5215118394D9F56D),
    ("crash", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("open_loop_p95", 0x4097480000000000, 0x3FEE147AE147AE14, 0x40205EB851EB851F, 0x40257DFF822BBED6, 2384, 0, false, 0x644EB1185309416F),
];

#[rustfmt::skip]
const TWITTER: &[Row] = &[
    ("default", 0x40CB600000000000, 0x3FFE5A1CAC083127, 0x4022B60418937479, 0x402C7E76C8B43958, 7008, 0, false, 0x7EF799E877A4A608),
    ("llamatune_0", 0x40E61DC000000000, 0x3FCEB851EB851EB8, 0x400DDB22D0E56042, 0x40100624DD2F1AA0, 22647, 0, false, 0x5DB9067F850C3C3A),
    ("llamatune_1", 0x40DF978000000000, 0x3FE56872B020C49C, 0x40079374BC6A7EFA, 0x400BEF9DB22D0E56, 16175, 0, false, 0x97DF8B89B0AE6391),
    ("llamatune_2", 0x40E06F4000000000, 0x3FE27EF9DB22D0E5, 0x401134395810624E, 0x40134083126E978D, 16829, 0, false, 0x5ECFA1B22C43D80F),
    ("llamatune_3", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("llamatune_4", 0x40E5434000000000, 0x3FD178D4FDF3B646, 0x40104BC6A7EF9DB2, 0x401146A7EF9DB22D, 21773, 0, false, 0x1D9C8D6E75EBA8E9),
    ("backend_flush_after_2", 0x40B7220000000000, 0x400649BA5E353F7D, 0x4038624DD2F1A9FC, 0x403BF89374BC6A7F, 2961, 0, false, 0xAFA44EB5E990E407),
    ("bgwriter_hot", 0x40CE640000000000, 0x3FFDF3B645A1CAC1, 0x401C14E3BCD35A6F, 0x402192A9930BE0DF, 7780, 0, false, 0x3EDEBBFA4FE8C71A),
    ("checkpoint_storm", 0x40C9BA0000000000, 0x3FFEB4395810624E, 0x40240395810624DD, 0x4029266666666666, 6586, 0, false, 0x44F8DB487A11D600),
    ("autovacuum_naptime_1", 0x40CB600000000000, 0x3FFE5A1CAC083127, 0x4022B60418937479, 0x402C7E76C8B43958, 7008, 0, false, 0x7EF799E877A4A608),
    ("crash", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("open_loop_p95", 0x4097800000000000, 0x3FE10A3D70A3D70A, 0x3FE87E90FF972474, 0x3FEADD1A21EA3593, 752, 0, false, 0x59524363389C7FFA),
];

#[rustfmt::skip]
const RESOURCE_STRESSER: &[Row] = &[
    ("default", 0x40BF342000000000, 0x4013A7EF9DB22D0E, 0x402536C8B4395810, 0x4029B7E90FF97248, 12781, 0, false, 0x9B4F4FDCCEE4587F),
    ("llamatune_0", 0x40C83D5000000000, 0x4000DB22D0E56042, 0x401FEFD21FF2E48F, 0x4027BD9A95421C02, 19857, 0, false, 0x8DF82CCD7A7DA0D7),
    ("llamatune_1", 0x40C0234000000000, 0x400B116872B020C5, 0x402488B439581062, 0x404ECFD31B9B66F8, 13220, 0, false, 0x3B3548E1A45FC47C),
    ("llamatune_2", 0x40C78C2000000000, 0x4004CAC083126E98, 0x401DC858793DD97D, 0x4023C9192641B32B, 19290, 0, false, 0x6ED5AE6C512A04A9),
    ("llamatune_3", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("llamatune_4", 0x40C5EFA000000000, 0x4001A9FBE76C8B44, 0x4023E318FC504817, 0x40313CC059210386, 17970, 0, false, 0xE295C22ED6B3B7BE),
    ("backend_flush_after_2", 0x40AE640000000000, 0x402022D0E5604189, 0x4039B4FDF3B645A2, 0x403AC02363B256FF, 6224, 0, false, 0x3404E6EC2E0F9271),
    ("bgwriter_hot", 0x40C02B6000000000, 0x40148F5C28F5C28F, 0x402208B439581062, 0x40247B645A1CAC08, 13246, 0, false, 0x636E9F9FA89AE2B4),
    ("checkpoint_storm", 0x40BD18C000000000, 0x40155604189374BC, 0x40264C710CB295E9, 0x402ACCCCCCCCCCCD, 11918, 0, false, 0x3BFA32215B57973D),
    ("autovacuum_naptime_1", 0x40BF0EA000000000, 0x4013A2D0E5604189, 0x4025189374BC6A7F, 0x40296B9F559B3D04, 12721, 0, false, 0x8FE63114ADA50738),
    ("crash", 0x0000000000000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0x41CDCD6500000000, 0, 0, true, 0xADF383E262937205),
    ("open_loop_p95", 0x4097458000000000, 0x3FEF6C8B43958106, 0x3FFE2D0E56041893, 0x3FFF22D0E5604189, 2383, 0, false, 0x13953B42FDCF3825),
];
