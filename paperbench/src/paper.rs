//! `paper`: reproduce every table and figure once per pass, through the
//! release binaries, and check each output byte for byte.

use std::path::{Path, PathBuf};
use std::time::Instant;

use leaky_exp::{standard_registry, Registry};
use leaky_scenario::{parse_bundle, ProfileRegistry};

use crate::spans::Recorder;
use crate::sys::{self, JOBS};
use crate::verify::{self, Mismatch, GOLDEN_DIR};
use crate::work::Work;
use crate::{keep_going, reference, shuffled, Ctx, EndToEnd, Tally};

/// The scenario bundle the pass runs, and the profile directory it needs.
const SCENARIO: &str = "scenarios/tab3_riscv.toml";
const PROFILE_DIR: &str = "scenarios";

/// Registry sweeps whose goldens were captured from the pre-migration
/// binaries (`--format legacy`), and those pinned in table format.
const LEGACY_SWEEPS: [&str; 5] = [
    "tab3_all_channels",
    "tab2_mt_patterns",
    "fig8_d_sweep",
    "tab5_power_channels",
    "tab7_spectre_miss_rates",
];
const TABLE_SWEEPS: [&str; 2] = ["tab3_uarch", "rng_stream_grid"];

/// Standalone binaries without a golden; their expected outputs were
/// captured for this benchmark (`paperbench/expected/<name>.txt`).
pub const STANDALONE: [&str; 11] = [
    "tab6_sgx",
    "tab4_slow_switch",
    "fig2_path_histogram",
    "fig3_layout_map",
    "fig4_lcp_counters",
    "fig9_power_histogram",
    "fig10_microcode",
    "fig11_cnn_traces",
    "fig12_cnn_distance",
    "tab_mobile_fingerprint",
    "ablation_report",
];

/// Set-ups timed before each pass; `setup_s` is their median. One set-up
/// takes well under a millisecond, so many repeats are cheap.
const SETUPS_PER_PASS: usize = 10;

/// One paper artifact: a command and the file its stdout must equal.
pub struct Artifact {
    /// Short name (span and error label).
    pub name: String,
    bin: &'static str,
    args: Vec<String>,
    expected: PathBuf,
}

impl Artifact {
    fn sweep(name: &str, format: &str) -> Artifact {
        Artifact {
            name: name.to_string(),
            bin: "leaky_sweep",
            args: vec![
                name.to_string(),
                "--format".into(),
                format.into(),
                "--jobs".into(),
                JOBS.to_string(),
            ],
            expected: Path::new(GOLDEN_DIR).join(format!("{name}.txt")),
        }
    }

    /// Runs the artifact and returns its stdout; an error exit is a
    /// mismatch.
    pub fn output(&self, bin_dir: &Path) -> Result<Vec<u8>, Mismatch> {
        let out = sys::command(bin_dir, self.bin)
            .args(&self.args)
            .output()
            .map_err(|e| Mismatch(format!("{}: cannot start {}: {e}", self.name, self.bin)))?;
        if !out.status.success() {
            return Err(Mismatch(format!(
                "{}: exited with {}",
                self.name, out.status
            )));
        }
        Ok(out.stdout)
    }

    /// Runs the artifact and checks its output.
    fn run(&self, bin_dir: &Path, expected: &[u8]) -> Result<(), Mismatch> {
        verify::same_bytes(&self.name, expected, &self.output(bin_dir)?)
    }

    /// Where the expected output lives.
    pub fn expected_path(&self) -> &Path {
        &self.expected
    }
}

/// Every artifact of one pass, in canonical order.
pub fn artifacts() -> Vec<Artifact> {
    let mut all: Vec<Artifact> = LEGACY_SWEEPS
        .iter()
        .map(|name| Artifact::sweep(name, "legacy"))
        .chain(
            TABLE_SWEEPS
                .iter()
                .map(|name| Artifact::sweep(name, "table")),
        )
        .collect();
    all.push(Artifact {
        name: "tab3_riscv".into(),
        bin: "leaky_sweep",
        args: [
            "--scenario",
            SCENARIO,
            "--profile-dir",
            PROFILE_DIR,
            "--format",
            "table",
            "--jobs",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([JOBS.to_string()])
        .collect(),
        expected: Path::new(GOLDEN_DIR).join("tab3_riscv.txt"),
    });
    all.extend(STANDALONE.iter().map(|name| Artifact {
        name: name.to_string(),
        bin: name,
        args: Vec::new(),
        expected: verify::expected_path(&format!("{name}.txt")),
    }));
    all
}

/// The work `leaky_sweep` does before its first cell: load the profile
/// directory and the scenario file, build the scenario and standard
/// registries. Returns the grid cells one pass runs.
fn setup() -> Result<usize, String> {
    let mut profiles = ProfileRegistry::builtins();
    profiles
        .load_dir(PROFILE_DIR)
        .map_err(|e| format!("loading {PROFILE_DIR}: {e}"))?;
    let text = std::fs::read_to_string(SCENARIO).map_err(|e| format!("{SCENARIO}: {e}"))?;
    let bundle = parse_bundle(&text, &profiles).map_err(|e| format!("{SCENARIO}: {e}"))?;
    let scenario_cells = bundle.cell_count();
    Registry::from_experiments([bundle.into_experiment()]).map_err(|e| e.to_string())?;
    let registry = standard_registry();
    let registry_cells: usize = registry.iter().map(|exp| exp.grid(false).len()).sum();
    Ok(registry_cells + scenario_cells)
}

/// Runs one pass in `order`; returns whether every artifact verified.
fn pass(
    ctx: &Ctx,
    arts: &[(Artifact, Vec<u8>)],
    order: &[usize],
    tally: &mut Tally,
    rec: Option<&mut Recorder>,
) -> bool {
    let mut ok = true;
    let mut run_one = |art: &Artifact, expected: &[u8]| {
        if let Err(m) = art.run(&ctx.bin_dir, expected) {
            eprintln!("paperbench: FAILED {m}");
            tally.failed += 1;
            ok = false;
        }
        tally.attempted += 1;
    };
    match rec {
        None => order.iter().for_each(|&i| run_one(&arts[i].0, &arts[i].1)),
        Some(rec) => rec.span("paper.pass", order.len() as u64, |rec| {
            for &i in order {
                let (art, expected) = &arts[i];
                rec.span(&format!("paper.artifact.{}", art.name), 1, |_| {
                    run_one(art, expected)
                });
            }
        }),
    }
    ok
}

/// Each artifact with the output it must print.
type Expected = Vec<(Artifact, Vec<u8>)>;

fn load(ctx: &Ctx) -> Result<(Expected, Vec<usize>, f64), String> {
    let arts: Expected = artifacts()
        .into_iter()
        .map(|a| {
            let expected = verify::read_expected(a.expected_path())?;
            Ok((a, expected))
        })
        .collect::<Result<_, String>>()?;
    let order = shuffled(arts.len(), ctx.seed);
    let cells = setup()? as f64;
    Ok((arts, order, cells))
}

/// The untraced run: one warm-up pass, then timed passes until
/// `ctx.seconds` have elapsed, each preceded by `SETUPS_PER_PASS` timed
/// set-ups (spread over the run, so the set-up median sees the same
/// machine as the passes).
pub fn run(ctx: &Ctx) -> Result<(EndToEnd, Tally), String> {
    let (arts, order, cells) = load(ctx)?;
    let work = crate::work::paper()?;

    let mut tally = Tally::default();
    pass(ctx, &arts, &order, &mut tally, None);
    let mut e2e = EndToEnd::default();
    let start = Instant::now();
    while keep_going(start, ctx.seconds, e2e.passes()) {
        e2e.time_reference(reference::PER_PASS)?;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            setup()?;
            e2e.record_setup(t.elapsed().as_secs_f64());
        }
        let cpu0 = sys::children_usage().cpu_s;
        let t = Instant::now();
        let ok = pass(ctx, &arts, &order, &mut tally, None);
        let wall = t.elapsed().as_secs_f64();
        if ok {
            let cpu = sys::children_usage().cpu_s - cpu0;
            e2e.record(wall, cpu, Work { cells, ..work });
        }
    }
    e2e.peak_rss_mb = sys::children_usage().max_rss_mb;
    Ok((e2e, tally))
}

/// The traced run's workload part: set-up, then passes until `deadline`
/// (at least one), in spans.
pub fn traced(
    ctx: &Ctx,
    rec: &mut Recorder,
    tally: &mut Tally,
    deadline: Instant,
) -> Result<(), String> {
    let (arts, order, _) = load(ctx)?;
    rec.span("paper.setup", 1, |_| setup())?;
    loop {
        pass(ctx, &arts, &order, tally, Some(rec));
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}
