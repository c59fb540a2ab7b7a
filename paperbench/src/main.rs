//! `paperbench`: the reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! paperbench --workload paper|channels --seed N --seconds S --trace 0|1
//! paperbench --capture      # rewrite paperbench/expected/ from this tree
//! ```
//!
//! Run from the repository root after `cargo build --release` (the
//! wrapper `paperbench/run.sh` builds both and then runs this). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). See `paperbench/README.md`.

mod channels;
mod layers;
mod paper;
mod reference;
mod spans;
mod stats;
mod sys;
mod verify;
mod work;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Recorder;
use work::Work;

/// What a workload needs from the command line and the host.
pub struct Ctx {
    /// The repository's release binaries.
    pub bin_dir: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
}

/// Operations attempted and failed (mismatch, error exit or panic).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations run.
    pub attempted: u64,
    /// Operations whose output did not verify.
    pub failed: u64,
}

/// One reported metric.
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Per-pass samples of the end-to-end metrics; each is reported as the
/// median over the run's verified, timed passes (set-up: over its
/// repeats), scaled to the reference host by the run's reference-kernel
/// timings (see [`reference`]).
#[derive(Default)]
pub struct EndToEnd {
    reference_s: Vec<f64>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    cells_per_s: Vec<f64>,
    bits_per_s: Vec<f64>,
    sim_mcycles_per_s: Vec<f64>,
    /// Peak resident memory over the run, MiB.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Times `n` reference-kernel calls, then resets the peak RSS: the
    /// kernel's table must not count as the workload's memory, neither
    /// this process's nor (a child's peak starts from its parent's at
    /// spawn) a child's.
    ///
    /// # Errors
    ///
    /// Fails when the kernel's result is wrong or the reset fails.
    pub fn time_reference(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n {
            self.reference_s.push(reference::time()?);
        }
        sys::reset_peak_rss()
    }

    /// Reference-host seconds per host second in this run.
    fn scale(&self) -> f64 {
        reference::REFERENCE_S / stats::median(&self.reference_s)
    }

    /// Records one set-up.
    pub fn record_setup(&mut self, secs: f64) {
        self.setup_s.push(secs);
    }

    /// Records one verified pass.
    pub fn record(&mut self, wall: f64, cpu: f64, work: Work) {
        self.wall_s.push(wall);
        self.cpu_s.push(cpu);
        self.cells_per_s.push(work.cells / wall);
        self.bits_per_s.push(work.bits / wall);
        self.sim_mcycles_per_s.push(work.cycles / 1e6 / wall);
    }

    /// Timed passes recorded so far.
    pub fn passes(&self) -> usize {
        self.wall_s.len()
    }

    /// Times are multiplied by the run's scale, rates divided by it.
    fn metrics(&self) -> Vec<Metric> {
        let scale = self.scale();
        let m = |name: &str, samples: &[f64], factor: f64, unit| Metric {
            name: name.to_string(),
            value: stats::median(samples) * factor,
            unit,
        };
        vec![
            m("setup_s", &self.setup_s, scale, "s"),
            m("wall_s", &self.wall_s, scale, "s"),
            m("cpu_s", &self.cpu_s, scale, "s"),
            m("cells_per_s", &self.cells_per_s, 1.0 / scale, "1/s"),
            m("bits_per_s", &self.bits_per_s, 1.0 / scale, "1/s"),
            m(
                "sim_mcycles_per_s",
                &self.sim_mcycles_per_s,
                1.0 / scale,
                "Mcycle/s",
            ),
            Metric {
                name: "peak_rss_mb".into(),
                value: self.peak_rss_mb,
                unit: "MiB",
            },
        ]
    }

    /// One stderr line per host-time sample set: median and quartiles,
    /// unscaled, and the scale the reported metrics use.
    fn describe(&self) -> String {
        let mut s = String::new();
        for (name, v) in [
            ("reference_s", &self.reference_s),
            ("setup_s", &self.setup_s),
            ("wall_s", &self.wall_s),
            ("cpu_s", &self.cpu_s),
        ] {
            let (q1, q3) = stats::quartiles(v).unwrap_or((v[0], v[0]));
            let _ = writeln!(
                s,
                "paperbench: host {name}: median {:.6} q1 {q1:.6} q3 {q3:.6} over {} samples",
                stats::median(v),
                v.len()
            );
        }
        let _ = writeln!(
            s,
            "paperbench: reported times are host times x {:.4} (reference host)",
            self.scale()
        );
        s
    }
}

/// Whether the timed loop should run another pass: until `seconds` have
/// passed and at least three passes verified, giving up on the minimum
/// at twice the time (every pass failing must not loop forever).
pub fn keep_going(start: Instant, seconds: f64, verified: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed < seconds || (verified < 3 && elapsed < 2.0 * seconds)
}

/// One SplitMix64 step: the benchmark's own input generator, so inputs
/// do not depend on the program's RNG.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x243f_6a88_85a3_08d3;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Paper,
    Channels,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Paper, Workload::Channels];

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Channels => "channels",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> &'static str {
    "usage: paperbench --workload paper|channels --seed N --seconds S --trace 0|1\n       \
     paperbench --capture"
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Every check the run's timings depend on, before any timing: release
/// build, repository root, and a negative control that trips.
fn preflight() -> Result<PathBuf, String> {
    if cfg!(debug_assertions) {
        return Err("paperbench must be built with --release: it times only release builds".into());
    }
    let bin_dir = sys::release_bin_dir()?;
    let specimen = verify::read_expected(
        &std::path::Path::new(verify::GOLDEN_DIR).join("tab2_mt_patterns.txt"),
    )?;
    let table = verify::load_table(channels::TABLE)?;
    let [byte, count] = verify::negative_control(&specimen, &table)?;
    eprintln!("paperbench: negative control reported: {byte}; {count}");
    Ok(bin_dir)
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let ctx = Ctx {
        bin_dir: preflight()?,
        seed: args.seed,
        seconds: args.seconds,
    };
    if !args.trace {
        let (e2e, tally) = match args.workload {
            Workload::Paper => paper::run(&ctx)?,
            Workload::Channels => channels::run(&ctx)?,
        };
        if e2e.passes() == 0 {
            return Err(format!(
                "no pass verified ({} of {} operations failed)",
                tally.failed, tally.attempted
            ));
        }
        eprint!("{}", e2e.describe());
        return Ok((tally, e2e.metrics()));
    }
    // The layer suite first, then the workload's passes in spans until
    // `--seconds` have passed since the start (at least one pass).
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let metrics = layers::measure(&mut rec, &mut tally)?;
    let name = args.workload.name();
    rec.span(&format!("workload.{name}"), 1, |rec| match args.workload {
        Workload::Paper => paper::traced(&ctx, rec, &mut tally, deadline),
        Workload::Channels => channels::traced(&ctx, rec, &mut tally, deadline),
    })?;
    // Against the untraced run's `wall_s`, this is the overhead of the
    // benchmark's own spans.
    let passes: Vec<f64> = rec
        .named(&format!("{name}.pass"))
        .map(|s| s.total_ns() as f64 / 1e9)
        .collect();
    eprintln!(
        "paperbench: traced {name}.pass: median {:.4} s over {} passes",
        stats::median(&passes),
        passes.len()
    );
    let path = sys::target_dir().join(format!("paperbench-spans-{name}-seed{}.jsonl", args.seed));
    rec.write_jsonl(&path)?;
    eprintln!("paperbench: spans written to {}", path.display());
    Ok((tally, metrics))
}

fn write_expected(name: &str, header: &str, body: &[u8]) -> Result<(), String> {
    let path = verify::expected_path(name);
    let mut bytes = header.as_bytes().to_vec();
    bytes.extend_from_slice(body);
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("paperbench: wrote {}", path.display());
    Ok(())
}

/// Rewrites `paperbench/expected/` from the current tree.
fn capture() -> Result<(), String> {
    let bin_dir = sys::release_bin_dir()?;
    std::fs::create_dir_all(verify::EXPECTED_DIR).map_err(|e| e.to_string())?;
    let commit = sys::git_commit();
    write_expected("COMMIT", "", format!("{commit}\n").as_bytes())?;
    for art in paper::artifacts() {
        if paper::STANDALONE.contains(&art.name.as_str()) {
            let out = art.output(&bin_dir).map_err(|m| m.0)?;
            write_expected(&format!("{}.txt", art.name), "", &out)?;
        }
    }
    let tag = format!("# captured at commit {commit}\n");
    let table = channels::capture()?;
    write_expected(channels::TABLE, &tag, table.render().as_bytes())?;
    let table = layers::capture()?;
    write_expected(layers::LAYER_TABLE, &tag, table.render().as_bytes())?;
    write_expected(
        layers::REGISTRY_JSON,
        "",
        layers::registry_json()?.as_bytes(),
    )?;

    // Telemetry totals of the paper's sweeps.
    let traced_json = |extra: &[&str]| -> Result<Work, String> {
        let out = sys::command(&bin_dir, "leaky_sweep")
            .args(extra)
            .args(["--trace=summary", "--format", "json", "--jobs"])
            .arg(sys::JOBS.to_string())
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("leaky_sweep {extra:?} exited with {}", out.status));
        }
        work::from_sweep_json(&String::from_utf8_lossy(&out.stdout))
    };
    let registry = traced_json(&[])?;
    let scenario = traced_json(&[
        "--scenario",
        "scenarios/tab3_riscv.toml",
        "--profile-dir",
        "scenarios",
    ])?;
    let total = Work {
        cells: registry.cells + scenario.cells,
        bits: registry.bits + scenario.bits,
        cycles: registry.cycles + scenario.cycles,
    };
    let path = work::paper_path();
    std::fs::write(&path, work::render_paper(total)).map_err(|e| e.to_string())?;
    eprintln!("paperbench: wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--capture" {
        return match capture() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("paperbench: capture failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("paperbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "paperbench: the model is unvalidated against hardware; no accuracy figure is reported"
    );
    let result = run(&args);
    // After the run: `git` and `rustc` are children too, and must not
    // count towards the workload's peak child memory.
    let expected_commit = std::fs::read_to_string(verify::expected_path("COMMIT"))
        .map(|c| c.trim().to_string())
        .unwrap_or_else(|_| "missing".into());
    eprintln!(
        "paperbench: {} expected-outputs={expected_commit}",
        sys::run_record()
    );
    match result {
        Ok((_, metrics)) if metrics.iter().any(|m| !m.value.is_finite()) => {
            let bad: Vec<&str> = metrics
                .iter()
                .filter(|m| !m.value.is_finite())
                .map(|m| m.name.as_str())
                .collect();
            eprintln!("paperbench: non-finite metrics: {}", bad.join(", "));
            ExitCode::FAILURE
        }
        Ok((tally, metrics)) => {
            println!("{}", result_line(tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(19, 5);
        assert_eq!(a, shuffled(19, 5));
        assert_ne!(a, shuffled(19, 6));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..19).collect::<Vec<_>>());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            Tally {
                attempted: 3,
                failed: 0,
            },
            &[Metric {
                name: "wall_s".into(),
                value: 1.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn arguments_are_all_required() {
        let args: Vec<String> = ["--workload", "paper", "--seed", "1", "--seconds", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err());
    }
}
