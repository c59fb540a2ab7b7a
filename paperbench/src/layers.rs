//! The per-layer suite of the traced run. Each metric times calls into
//! one crate's public functions, wrapped in spans by the benchmark (the
//! program itself is not instrumented); a metric is the median, over a
//! metric's spans, of self time per operation.

use std::hint::black_box;
use std::panic::catch_unwind;
use std::path::Path;

use leaky_bench::sweep::{render_json_document, render_table};
use leaky_cache::{CacheConfig, SetAssocCache};
use leaky_cpu::{Core, ProcessorModel};
use leaky_exp::{
    code_fingerprint, run_experiment_with, standard_registry, Experiment, RunConfig, SweepRun,
};
use leaky_frontend::{
    Dsb, Frontend, FrontendConfig, LineId, SmtDsbPolicy, ThreadId, TraceHook, TraceMode,
};
use leaky_frontends::channels::non_mt::NonMtKind;
use leaky_frontends::channels::{ChannelSpec, CovertChannel, REGISTRY};
use leaky_frontends::params::{ChannelParams, EncodeMode, MessagePattern};
use leaky_frontends::sgx::{SgxMtChannel, SgxNonMtChannel};
use leaky_frontends::ChannelRun;
use leaky_isa::{
    same_set_chain, Addr, Alignment, Block, BlockChain, CodeRegion, DsbSet, FrontendGeometry,
    LcpPattern,
};
use leaky_scenario::{parse_bundle, ProfileRegistry};
use leaky_spectre::{ChannelKind, SpectreV1};
use leaky_stats::error_rate;
use leaky_store::{Lookup, ResultStore};
use leaky_uarch::UarchProfile;

use crate::spans::{slug, Recorder};
use crate::sys::{WorkDir, JOBS};
use crate::verify::{self, Transmission, TransmissionTable, GOLDEN_DIR};
use crate::{Metric, Tally};

/// Timed spans per metric.
const SAMPLES: usize = 9;
/// Distinct chains the rotating metrics cycle through: more than the
/// ~290 one Spectre L1I Prime+Probe chunk touches.
const ROTATING_CHAINS: usize = 320;
/// Expected results of the suite's Spectre leaks and SGX transmissions,
/// `paperbench/expected/<LAYER_TABLE>`.
pub const LAYER_TABLE: &str = "layers.tsv";
/// The channel every trace-mode comparison transmits on.
const TRACE_CHANNEL: &str = "non-mt-fast-eviction";
/// Secret chunks per Spectre leak (tab7's quick grid size).
const SPECTRE_CHUNKS: usize = 6;
/// Bits per SGX transmission (tab6's message length).
const SGX_BITS: usize = 48;
/// Timed transmissions per registry channel (`channel.bit_us.*`).
const CHANNEL_TRANSMITS: usize = 5;
/// Timed transmissions per SGX attack, after the calibrating first one.
const SGX_TRANSMITS: usize = 3;
/// Bits of the trace-mode comparison's message.
const TRACE_BITS: usize = 1024;
/// The whole registry's untraced JSON document,
/// `paperbench/expected/<REGISTRY_JSON>`.
pub const REGISTRY_JSON: &str = "registry.json";

/// Runs the suite, appending to `tally` every verified operation.
///
/// # Errors
///
/// Fails when an input file the suite reads is missing, or when a
/// channel or attack cannot be built or calibrated: its metric would be
/// missing from the result.
pub fn measure(rec: &mut Recorder, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let expected = verify::load_table(LAYER_TABLE)?;
    let mut out = Vec::new();
    rec.span("layer.frontend", 1, |rec| frontend(rec, &mut out));
    rec.span("layer.cpu", 1, |rec| cpu(rec, &mut out));
    rec.span("layer.cache", 1, |rec| cache(rec, &mut out));
    rec.span("layer.isa", 1, |rec| isa(rec, &mut out));
    rec.span("layer.stats", 1, |rec| stats(rec, &mut out));
    rec.span("layer.channels", 1, |rec| {
        channels(rec, &expected, tally, &mut out)
    })?;
    rec.span("layer.sgx", 1, |rec| sgx(rec, &expected, tally, &mut out))?;
    rec.span("layer.spectre", 1, |rec| {
        spectre(rec, &expected, tally, &mut out)
    });
    rec.span("layer.exp", 1, |rec| exp_render(rec, tally, &mut out))?;
    rec.span("layer.store", 1, |rec| store(rec, tally, &mut out))?;
    rec.span("layer.scenario", 1, |rec| scenario(rec, &mut out))?;
    rec.span("layer.trace", 1, |rec| {
        trace(rec, &expected, tally, &mut out)
    })?;
    Ok(out)
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// Records `SAMPLES` spans of `ops` calls and pushes the median self
/// time per call, divided by `scale` nanoseconds per `unit`.
fn timed(
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
    name: &str,
    unit: &'static str,
    ops: u64,
    op: impl FnMut(),
) {
    rec.sample(name, SAMPLES, ops, op);
    let scale = match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1e9,
    };
    push(out, name, rec.median_self_ns_per_op(name) / scale, unit);
}

fn warm_frontend(config: FrontendConfig, chain: &BlockChain) -> Frontend {
    let mut fe = Frontend::new(config);
    for _ in 0..8 {
        fe.run_iteration(ThreadId::T0, chain);
    }
    fe
}

/// `ROTATING_CHAINS` distinct aligned same-set chains of 2–7 blocks.
fn rotating_chains() -> Vec<BlockChain> {
    (0..ROTATING_CHAINS)
        .map(|k| {
            let base = 0x0100_0000 + (k as u64) * 0x0004_0000;
            same_set_chain(
                base,
                DsbSet::new((k % 32) as u8),
                2 + k % 6,
                Alignment::Aligned,
            )
        })
        .collect()
}

fn frontend(rec: &mut Recorder, out: &mut Vec<Metric>) {
    let chain8 = same_set_chain(0x0041_8000, DsbSet::new(0), 8, Alignment::Aligned);
    let chain9 = same_set_chain(0x0041_8000, DsbSet::new(0), 9, Alignment::Aligned);
    let lcp = BlockChain::new(vec![Block::lcp_adds(
        Addr::new(0x10_0000),
        LcpPattern::Mixed,
        16,
    )]);
    let no_lsd = FrontendConfig {
        lsd_enabled: false,
        ..FrontendConfig::default()
    };
    for (name, config, chain) in [
        ("frontend.lsd_iter_ns", FrontendConfig::default(), &chain8),
        ("frontend.dsb_iter_ns", no_lsd, &chain8),
        ("frontend.mite_iter_ns", FrontendConfig::default(), &chain9),
        ("frontend.lcp_iter_ns", FrontendConfig::default(), &lcp),
    ] {
        let mut fe = warm_frontend(config, chain);
        timed(rec, out, name, "ns", 2_000, || {
            black_box(fe.run_iteration(ThreadId::T0, chain));
        });
    }

    // Misaligned chain on the sibling thread with both threads active.
    let mis = same_set_chain(0x0082_0000, DsbSet::new(0), 3, Alignment::Misaligned);
    let mut fe = Frontend::new(FrontendConfig::default());
    fe.set_active(ThreadId::T0, true);
    fe.set_active(ThreadId::T1, true);
    for _ in 0..8 {
        fe.run_iteration(ThreadId::T1, &mis);
    }
    timed(rec, out, "frontend.smt_iter_ns", "ns", 2_000, || {
        black_box(fe.run_iteration(ThreadId::T1, &mis));
    });

    let mut dsb = Dsb::new(FrontendGeometry::skylake(), SmtDsbPolicy::Competitive);
    let hit = LineId {
        thread: 0,
        window: 64,
        chunk: 0,
    };
    dsb.insert(hit);
    timed(rec, out, "frontend.dsb_lookup_ns", "ns", 100_000, || {
        black_box(dsb.lookup(hit));
    });
    // Nine same-set lines inserted cyclically: every insert evicts.
    let mut dsb = Dsb::new(FrontendGeometry::skylake(), SmtDsbPolicy::Competitive);
    let mut next = 0u64;
    timed(
        rec,
        out,
        "frontend.dsb_insert_evict_ns",
        "ns",
        100_000,
        || {
            black_box(dsb.insert(LineId {
                thread: 0,
                window: next * 32,
                chunk: 0,
            }));
            next = (next + 1) % 9;
        },
    );

    let chains = rotating_chains();
    let mut fe = Frontend::new(FrontendConfig::default());
    let mut i = 0;
    timed(
        rec,
        out,
        "frontend.rotating_iter_ns",
        "ns",
        4 * ROTATING_CHAINS as u64,
        || {
            black_box(fe.run_iteration(ThreadId::T0, &chains[i]));
            i = (i + 1) % chains.len();
        },
    );
}

fn cpu(rec: &mut Recorder, out: &mut Vec<Metric>) {
    let chain8 = same_set_chain(0x0041_8000, DsbSet::new(0), 8, Alignment::Aligned);
    let mut core = Core::new(ProcessorModel::gold_6226(), 7);
    for _ in 0..8 {
        core.run_once(ThreadId::T0, &chain8);
    }
    timed(rec, out, "cpu.run_once_ns", "ns", 2_000, || {
        black_box(core.run_once(ThreadId::T0, &chain8));
    });

    let chains = rotating_chains();
    let mut core = Core::new(ProcessorModel::gold_6226(), 7);
    let mut i = 0;
    timed(
        rec,
        out,
        "cpu.run_once_rotating_ns",
        "ns",
        4 * ROTATING_CHAINS as u64,
        || {
            black_box(core.run_once(ThreadId::T0, &chains[i]));
            i = (i + 1) % chains.len();
        },
    );
}

fn cache(rec: &mut Recorder, out: &mut Vec<Metric>) {
    for (name, config) in [
        ("cache.l1i_access_ns", CacheConfig::l1i()),
        ("cache.l1d_access_ns", CacheConfig::l1d()),
    ] {
        // Lines drawn from twice the cache's capacity: a mix of hits,
        // misses and evictions.
        let lines = (2 * config.capacity_bytes() / config.line_bytes) as u64;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let addrs: Vec<u64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % lines) * config.line_bytes as u64
            })
            .collect();
        let mut cache = SetAssocCache::new(config);
        let mut i = 0;
        timed(rec, out, name, "ns", 100_000, || {
            black_box(cache.access_addr(addrs[i]));
            i = (i + 1) % addrs.len();
        });
    }
}

fn isa(rec: &mut Recorder, out: &mut Vec<Metric>) {
    // One eviction-channel layout: receiver, sender-one and decoy chains
    // in three disjoint regions.
    let geom = FrontendGeometry::skylake();
    timed(rec, out, "isa.layout_us", "us", 200, || {
        let mut recv = CodeRegion::with_geometry(0x0041_8000, geom);
        let mut send = CodeRegion::with_geometry(0x0082_0000, geom);
        let mut alt = CodeRegion::with_geometry(0x00c3_0000, geom);
        black_box((
            recv.same_set_chain(DsbSet::new(3), 6, Alignment::Aligned),
            send.same_set_chain(DsbSet::new(3), 3, Alignment::Aligned),
            alt.same_set_chain(DsbSet::new(19), 3, Alignment::Aligned),
        ));
    });
}

fn stats(rec: &mut Recorder, out: &mut Vec<Metric>) {
    let sent: Vec<bool> = (0..4096u32)
        .map(|i| i.wrapping_mul(2_654_435_761) & 64 != 0)
        .collect();
    let mut received = sent.clone();
    for i in (0..received.len()).step_by(17) {
        received[i] = !received[i];
    }
    timed(rec, out, "stats.error_rate_4096_us", "us", 4, || {
        black_box(error_rate(&sent, &received));
    });
}

/// The registry channel `name` on the Gold 6226 under skylake.
fn build_channel(name: &str) -> Result<Box<dyn CovertChannel>, String> {
    ChannelSpec::new(name)
        .model(ProcessorModel::gold_6226())
        .profile(UarchProfile::skylake())
        .seed(7)
        .build()
        .map_err(|e| format!("{name}: {e}"))
}

/// Builds and calibrates `name`, calibrating inside a span.
fn calibrated(
    rec: &mut Recorder,
    span: &str,
    name: &str,
) -> Result<Box<dyn CovertChannel>, String> {
    let mut ch = build_channel(name)?;
    rec.span(span, 1, |_| ch.try_calibrate())
        .map_err(|e| format!("{name}: calibration: {e:?}"))?;
    Ok(ch)
}

/// Bits `channel.bit_us.<name>` transmits: fewer on the slower MT
/// channels.
fn channel_bits(requires_smt: bool) -> usize {
    if requires_smt {
        128
    } else {
        512
    }
}

fn channels(
    rec: &mut Recorder,
    expected: &TransmissionTable,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let msg = crate::channels::message(0);
    for info in &REGISTRY {
        let calibrate = format!("channel.calibrate_ms.{}", info.name);
        for _ in 0..4 {
            calibrated(rec, &calibrate, info.name)?;
        }
        let mut ch = calibrated(rec, &calibrate, info.name)?;
        push(
            out,
            &calibrate,
            rec.median_self_ns_per_op(&calibrate) / 1e6,
            "ms",
        );

        let bit = format!("channel.bit_us.{}", info.name);
        let bits = channel_bits(info.requires_smt);
        for k in 0..CHANNEL_TRANSMITS {
            let sent = rec.span(&bit, bits as u64, |_| {
                verify::transmitted(|| ch.transmit(&msg[..bits]))
            });
            check(expected, &format!("bit {} {k}", info.name), sent, tally);
        }
        push(out, &bit, rec.median_self_ns_per_op(&bit) / 1e3, "us");
    }
    Ok(())
}

/// One Table VI attack on the Xeon E-2286G (SGX and SMT both present).
#[derive(Clone, Copy)]
enum SgxAttack {
    NonMt(NonMtKind, EncodeMode),
    Mt(NonMtKind),
}

enum SgxChannel {
    NonMt(SgxNonMtChannel),
    Mt(SgxMtChannel),
}

const SGX_ATTACKS: [(&str, SgxAttack); 6] = [
    (
        "non-mt-stealthy-eviction",
        SgxAttack::NonMt(NonMtKind::Eviction, EncodeMode::Stealthy),
    ),
    (
        "non-mt-stealthy-misalignment",
        SgxAttack::NonMt(NonMtKind::Misalignment, EncodeMode::Stealthy),
    ),
    (
        "non-mt-fast-eviction",
        SgxAttack::NonMt(NonMtKind::Eviction, EncodeMode::Fast),
    ),
    (
        "non-mt-fast-misalignment",
        SgxAttack::NonMt(NonMtKind::Misalignment, EncodeMode::Fast),
    ),
    ("mt-eviction", SgxAttack::Mt(NonMtKind::Eviction)),
    ("mt-misalignment", SgxAttack::Mt(NonMtKind::Misalignment)),
];

impl SgxAttack {
    /// A fresh channel with tab6's parameters and seed.
    fn build(self) -> Result<SgxChannel, String> {
        let model = ProcessorModel::xeon_e2286g();
        match self {
            SgxAttack::NonMt(kind, mode) => {
                SgxNonMtChannel::new(model, kind, mode, ChannelParams::sgx_non_mt_defaults(), 321)
                    .map(SgxChannel::NonMt)
                    .map_err(|e| e.to_string())
            }
            SgxAttack::Mt(kind) => {
                SgxMtChannel::new(model, kind, ChannelParams::sgx_mt_defaults(), 321)
                    .map(SgxChannel::Mt)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

impl SgxChannel {
    fn transmit(&mut self, msg: &[bool]) -> ChannelRun {
        match self {
            SgxChannel::NonMt(ch) => ch.transmit(msg),
            SgxChannel::Mt(ch) => ch.transmit(msg),
        }
    }
}

/// Builds the attack and makes its first (calibrating) transmission,
/// the one verified against the expected results.
fn sgx_first(attack: SgxAttack) -> Result<(SgxChannel, Transmission), String> {
    let msg = MessagePattern::Alternating.generate(SGX_BITS, 0);
    let mut ch = attack.build()?;
    let t = verify::transmitted(|| ch.transmit(&msg))?;
    Ok((ch, t))
}

/// Verifies `result` against the expected entry `label`.
fn check(
    expected: &TransmissionTable,
    label: &str,
    result: Result<Transmission, String>,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    if let Err(e) = result.and_then(|t| expected.check(label, &t).map_err(|m| m.0)) {
        eprintln!("paperbench: FAILED {label}: {e}");
        tally.failed += 1;
    }
}

fn sgx(
    rec: &mut Recorder,
    expected: &TransmissionTable,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let msg = MessagePattern::Alternating.generate(SGX_BITS, 0);
    for (name, attack) in SGX_ATTACKS {
        let first = sgx_first(attack);
        let label = format!("sgx {name}");
        check(
            expected,
            &label,
            first.as_ref().map(|(_, t)| *t).map_err(Clone::clone),
            tally,
        );
        let (mut ch, _) = first.map_err(|e| format!("{label}: {e}"))?;
        let metric = format!("sgx.bit_us.{name}");
        for k in 1..=SGX_TRANSMITS {
            let sent = rec.span(&metric, SGX_BITS as u64, |_| {
                verify::transmitted(|| ch.transmit(&msg))
            });
            check(expected, &format!("{label} {k}"), sent, tally);
        }
        push(out, &metric, rec.median_self_ns_per_op(&metric) / 1e3, "us");
    }
    Ok(())
}

/// tab7's secret: 5-bit chunks `(i·7 + 3) mod 32`.
fn spectre_secret() -> Vec<u8> {
    (0..SPECTRE_CHUNKS as u8)
        .map(|i| (i * 7 + 3) % 32)
        .collect()
}

fn chunk_bits(chunks: &[u8]) -> Vec<bool> {
    chunks
        .iter()
        .flat_map(|&c| (0..5).map(move |b| (c >> b) & 1 == 1))
        .collect()
}

/// One leak, as a transmission of the secret's bits.
fn spectre_leak(kind: ChannelKind) -> Result<Transmission, String> {
    catch_unwind(|| {
        let mut attack = SpectreV1::new(kind, spectre_secret(), 2024);
        let result = attack.leak();
        Transmission::new(
            &chunk_bits(&result.actual),
            &chunk_bits(&result.recovered),
            attack.elapsed_cycles(),
        )
    })
    .map_err(|_| format!("{} leak panicked", kind.label()))
}

fn spectre(
    rec: &mut Recorder,
    expected: &TransmissionTable,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) {
    for kind in ChannelKind::all() {
        let name = format!("spectre.chunk_ms.{}", slug(kind.label()));
        let mut results = Vec::new();
        for _ in 0..3 {
            results.push(rec.span(&name, SPECTRE_CHUNKS as u64, |_| spectre_leak(kind)));
        }
        for result in results {
            check(
                expected,
                &format!("spectre {}", slug(kind.label())),
                result,
                tally,
            );
        }
        push(out, &name, rec.median_self_ns_per_op(&name) / 1e6, "ms");
    }
}

/// Sweeps every experiment under `cfg`, one span per experiment.
fn sweep_all(
    rec: &mut Recorder,
    exps: &[&dyn Experiment],
    span: &str,
    cfg: &RunConfig<'_>,
) -> Result<Vec<SweepRun>, String> {
    exps.iter()
        .map(|exp| {
            let cells = exp.grid(false).len() as u64;
            rec.span(span, cells, |_| run_experiment_with(*exp, cfg))
                .map_err(|e| format!("{}: {e}", exp.name()))
        })
        .collect()
}

fn exp_render(rec: &mut Recorder, tally: &mut Tally, out: &mut Vec<Metric>) -> Result<(), String> {
    let registry = standard_registry();
    let exps: Vec<&dyn Experiment> = registry.iter().collect();

    // Every cell, serially, straight through `run_cell`.
    for exp in &exps {
        for cell in exp.grid(false).expand() {
            rec.span("exp.cell", 1, |_| black_box(exp.run_cell(&cell)));
        }
    }
    let cell_ns: Vec<f64> = rec.named("exp.cell").map(|s| s.total_ns() as f64).collect();
    let critical = cell_ns.iter().copied().fold(0.0, f64::max);
    push(out, "exp.critical_cell_s", critical / 1e9, "s");

    // The same cells through the runner on the worker pool.
    let untraced = RunConfig {
        jobs: JOBS,
        ..RunConfig::default()
    };
    let runs = sweep_all(rec, &exps, "exp.sweep", &untraced)?;
    let wall: f64 = rec.named("exp.sweep").map(|s| s.total_ns() as f64).sum();
    let busy: f64 = cell_ns.iter().sum();
    push(
        out,
        "exp.pool_idle_frac",
        1.0 - busy / (JOBS as f64 * wall),
        "fraction",
    );

    let trivial = registry
        .get("rng_stream_grid")
        .ok_or("rng_stream_grid is not registered")?;
    let cells = trivial.grid(false).len() as u64;
    let golden = verify::read_expected(&Path::new(GOLDEN_DIR).join("rng_stream_grid.txt"))?;
    for _ in 0..SAMPLES {
        let run = rec
            .span("exp.cell_overhead_us", cells, |_| {
                run_experiment_with(trivial, &untraced)
            })
            .map_err(|e| e.to_string())?;
        same(
            tally,
            "rng_stream_grid",
            &golden,
            render_table(&run).as_bytes(),
        );
    }
    push(
        out,
        "exp.cell_overhead_us",
        rec.median_self_ns_per_op("exp.cell_overhead_us") / 1e3,
        "us",
    );

    // Rendering. Every rendered document is checked after the timing:
    // the JSON against the expected document, the two specs pinned in
    // table format against their goldens.
    let json = verify::read_expected(&verify::expected_path(REGISTRY_JSON))?;
    let mut documents = Vec::new();
    timed(rec, out, "render.json_us", "us", 1, || {
        documents.push(render_json_document(&runs));
    });
    for doc in &documents {
        same(tally, "registry JSON", &json, doc.as_bytes());
    }
    let pinned = runs
        .iter()
        .filter(|run| matches!(run.name, "tab3_uarch" | "rng_stream_grid"))
        .map(|run| {
            let golden = Path::new(GOLDEN_DIR).join(format!("{}.txt", run.name));
            Ok((run.name, verify::read_expected(&golden)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut tables = Vec::new();
    timed(rec, out, "render.table_us", "us", 1, || {
        tables.push(runs.iter().map(render_table).collect::<Vec<_>>());
    });
    for rendered in &tables {
        for (name, golden) in &pinned {
            let at = runs.iter().position(|run| run.name == *name);
            let table = at.map_or("", |i| rendered[i].as_str());
            same(tally, name, golden, table.as_bytes());
        }
    }
    Ok(())
}

/// One byte-for-byte checked operation.
fn same(tally: &mut Tally, what: &str, expected: &[u8], actual: &[u8]) {
    tally.attempted += 1;
    if let Err(m) = verify::same_bytes(what, expected, actual) {
        eprintln!("paperbench: FAILED {m}");
        tally.failed += 1;
    }
}

fn store(rec: &mut Recorder, tally: &mut Tally, out: &mut Vec<Metric>) -> Result<(), String> {
    let registry = standard_registry();
    let exps: Vec<&dyn Experiment> = registry.iter().collect();
    let work_dir = WorkDir::new("layer-store")?;
    let store = ResultStore::open(work_dir.path().join("store")).map_err(|e| e.to_string())?;
    let traced_resume = RunConfig {
        jobs: JOBS,
        resume: true,
        store: Some(&store),
        trace: TraceMode::Summary,
        ..RunConfig::default()
    };
    let cold = sweep_all(rec, &exps, "store.cold_sweep", &traced_resume)?;
    let warm = sweep_all(rec, &exps, "store.warm_sweep", &traced_resume)?;
    same(
        tally,
        "in-process warm resume",
        render_json_document(&cold).as_bytes(),
        render_json_document(&warm).as_bytes(),
    );
    let cells: usize = warm.iter().map(|r| r.cells.len()).sum();
    let hits: usize = warm
        .iter()
        .filter_map(|r| r.store_stats.map(|s| s.hits))
        .sum();
    push(out, "store.hit_ratio", hits as f64 / cells as f64, "ratio");

    // Direct reads and writes of every cell's entry.
    let keys: Vec<(String, u64)> = exps
        .iter()
        .flat_map(|exp| {
            let fp = code_fingerprint(*exp);
            exp.grid(false)
                .expand()
                .into_iter()
                .map(move |c| (c.key, fp))
        })
        .collect();
    // Every read must hit and every write succeed; a sample with a miss
    // or an error is a failed operation.
    let mut entries = Vec::new();
    for _ in 0..SAMPLES {
        entries.clear();
        rec.span("store.get_hit_us", keys.len() as u64, |_| {
            for (key, fp) in &keys {
                if let Ok(Lookup::Hit(stored)) = store.get(key, *fp) {
                    entries.push((key.clone(), *fp, stored));
                }
            }
        });
        tally.attempted += 1;
        if entries.len() != keys.len() {
            eprintln!(
                "paperbench: FAILED store served {} of {} entries",
                entries.len(),
                keys.len()
            );
            tally.failed += 1;
        }
    }
    push(
        out,
        "store.get_hit_us",
        rec.median_self_ns_per_op("store.get_hit_us") / 1e3,
        "us",
    );
    for _ in 0..SAMPLES {
        let failed = rec.span("store.put_us", entries.len() as u64, |_| {
            entries
                .iter()
                .filter(|(key, fp, stored)| store.put(&format!("copy/{key}"), *fp, stored).is_err())
                .count()
        });
        tally.attempted += 1;
        if failed > 0 {
            eprintln!(
                "paperbench: FAILED store.put: {failed} of {} writes",
                entries.len()
            );
            tally.failed += 1;
        }
    }
    push(
        out,
        "store.put_us",
        rec.median_self_ns_per_op("store.put_us") / 1e3,
        "us",
    );
    Ok(())
}

fn scenario(rec: &mut Recorder, out: &mut Vec<Metric>) -> Result<(), String> {
    let mut profiles = ProfileRegistry::builtins();
    profiles.load_dir("scenarios").map_err(|e| e.to_string())?;
    timed(rec, out, "scenario.load_dir_us", "us", 1, || {
        let mut p = ProfileRegistry::builtins();
        black_box(p.load_dir("scenarios").is_ok());
    });
    let text = std::fs::read_to_string("scenarios/tab3_riscv.toml").map_err(|e| e.to_string())?;
    timed(rec, out, "scenario.parse_us", "us", 10, || {
        black_box(parse_bundle(&text, &profiles).is_ok());
    });
    Ok(())
}

/// A freshly built channel `TRACE_CHANNEL` under `mode`, calibrated.
fn trace_channel(mode: Option<TraceMode>) -> Result<Box<dyn CovertChannel>, String> {
    let mut ch = build_channel(TRACE_CHANNEL)?;
    if let Some(mode) = mode {
        ch.set_trace(TraceHook::new(mode));
    }
    ch.try_calibrate()
        .map_err(|e| format!("{TRACE_CHANNEL}: calibration: {e:?}"))?;
    Ok(ch)
}

fn trace(
    rec: &mut Recorder,
    expected: &TransmissionTable,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    // Paired and interleaved: each round runs every mode once, in an
    // order rotated by the round, on a freshly built and calibrated
    // channel transmitting the same message. Tracing must not change
    // what is received, so every transmission is checked against one
    // expected entry.
    let msg = &crate::channels::message(0)[..TRACE_BITS];
    let label = format!("trace {TRACE_CHANNEL}");
    let modes: [(&str, Option<TraceMode>); 4] = [
        ("trace.none", None),
        ("trace.off", Some(TraceMode::Off)),
        ("trace.summary", Some(TraceMode::Summary)),
        ("trace.events", Some(TraceMode::Events)),
    ];
    for round in 0..12 {
        for k in 0..modes.len() {
            let (name, mode) = modes[(k + round) % modes.len()];
            let mut ch = trace_channel(mode)?;
            let sent = rec.span(name, msg.len() as u64, |_| {
                verify::transmitted(|| ch.transmit(msg))
            });
            check(expected, &label, sent, tally);
        }
    }
    let base = rec.median_self_ns_per_op("trace.none");
    for (metric, name) in [
        ("trace.off_ratio", "trace.off"),
        ("trace.summary_ratio", "trace.summary"),
        ("trace.events_ratio", "trace.events"),
    ] {
        push(out, metric, rec.median_self_ns_per_op(name) / base, "ratio");
    }
    Ok(())
}

/// The whole registry's untraced JSON document, swept in process as the
/// suite sweeps it.
pub fn registry_json() -> Result<String, String> {
    let registry = standard_registry();
    let untraced = RunConfig {
        jobs: JOBS,
        ..RunConfig::default()
    };
    let runs = registry
        .iter()
        .map(|exp| run_experiment_with(exp, &untraced).map_err(|e| format!("{}: {e}", exp.name())))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(render_json_document(&runs))
}

/// Captures the suite's expected transmissions and Spectre leaks, in the
/// order [`measure`] makes them.
pub fn capture() -> Result<TransmissionTable, String> {
    let mut table = TransmissionTable::default();
    let msg = crate::channels::message(0);
    for info in &REGISTRY {
        let mut ch = build_channel(info.name)?;
        ch.try_calibrate()
            .map_err(|e| format!("{}: calibration: {e:?}", info.name))?;
        let bits = channel_bits(info.requires_smt);
        for k in 0..CHANNEL_TRANSMITS {
            let t = verify::transmitted(|| ch.transmit(&msg[..bits]))?;
            table.insert(format!("bit {} {k}", info.name), t);
        }
    }
    let sgx_msg = MessagePattern::Alternating.generate(SGX_BITS, 0);
    for (name, attack) in SGX_ATTACKS {
        let (mut ch, t) = sgx_first(attack)?;
        table.insert(format!("sgx {name}"), t);
        for k in 1..=SGX_TRANSMITS {
            let t = verify::transmitted(|| ch.transmit(&sgx_msg))?;
            table.insert(format!("sgx {name} {k}"), t);
        }
    }
    let mut ch = trace_channel(None)?;
    let t = verify::transmitted(|| ch.transmit(&msg[..TRACE_BITS]))?;
    table.insert(format!("trace {TRACE_CHANNEL}"), t);
    for kind in ChannelKind::all() {
        table.insert(
            format!("spectre {}", slug(kind.label())),
            spectre_leak(kind)?,
        );
    }
    Ok(table)
}
