//! `channels`: every registry channel under every built-in profile on
//! the Gold 6226, each transmitting one seeded 2048-bit message per pass.
//! Received-bit errors, received bits and simulated cycles are checked
//! against the values captured at the expected-output commit.

use std::time::Instant;

use leaky_cpu::ProcessorModel;
use leaky_frontends::channels::{ChannelSpec, CovertChannel, REGISTRY};
use leaky_uarch::UarchProfile;

use crate::spans::Recorder;
use crate::sys;
use crate::verify::{self, Transmission, TransmissionTable};
use crate::work::Work;
use crate::{keep_going, reference, shuffled, splitmix64, Ctx, EndToEnd, Tally};

/// Message length of every transmission.
pub const BITS: usize = 2048;
/// Distinct messages with captured results; `--seed` picks one.
pub const MESSAGES: u64 = 16;
/// The channels' core/RNG seed (fixed; the message is the input).
const CHANNEL_SEED: u64 = 7;
/// Set-ups timed before each pass; the pass uses the last.
const SETUPS_PER_PASS: usize = 3;
/// Expected transmissions, `paperbench/expected/<TABLE>`.
pub const TABLE: &str = "channels.tsv";

/// One grid cell: a profile and a registry channel.
#[derive(Clone, Copy)]
pub struct Cell {
    profile: UarchProfile,
    channel: &'static str,
}

impl Cell {
    fn label(&self, message: u64) -> String {
        format!("{message} {} {}", self.profile.key, self.channel)
    }
}

/// All 27 cells: 9 registry channels × 3 built-in profiles.
pub fn cells() -> Vec<Cell> {
    UarchProfile::all()
        .into_iter()
        .flat_map(|profile| {
            REGISTRY.iter().map(move |info| Cell {
                profile,
                channel: info.name,
            })
        })
        .collect()
}

/// The seeded message: SplitMix64 bits, generated here so the program
/// under test receives only the bits.
pub fn message(index: u64) -> Vec<bool> {
    let mut state = index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed;
    (0..BITS / 64)
        .flat_map(|_| {
            let word = splitmix64(&mut state);
            (0..64).map(move |i| (word >> i) & 1 == 1)
        })
        .collect()
}

/// Builds and calibrates the cell's channel (the workload's set-up).
fn build(cell: &Cell) -> Result<Box<dyn CovertChannel>, String> {
    let mut ch = ChannelSpec::new(cell.channel)
        .model(ProcessorModel::gold_6226())
        .profile(cell.profile)
        .seed(CHANNEL_SEED)
        .build()
        .map_err(|e| format!("{} {}: {e}", cell.profile.key, cell.channel))?;
    ch.try_calibrate()
        .map_err(|e| format!("{} {}: calibration: {e:?}", cell.profile.key, cell.channel))?;
    Ok(ch)
}

/// Transmits `msg`, turning a panic into an error.
fn transmit(ch: &mut dyn CovertChannel, msg: &[bool]) -> Result<Transmission, String> {
    verify::transmitted(|| ch.transmit(msg))
}

type Built = Vec<Result<Box<dyn CovertChannel>, String>>;

fn setup(cells: &[Cell], rec: Option<&mut Recorder>) -> Built {
    match rec {
        None => cells.iter().map(build).collect(),
        Some(rec) => cells
            .iter()
            .map(|c| {
                let name = format!("channel.setup.{}.{}", c.profile.key, c.channel);
                rec.span(&name, 1, |_| build(c))
            })
            .collect(),
    }
}

struct Plan {
    cells: Vec<Cell>,
    order: Vec<usize>,
    index: u64,
    msg: Vec<bool>,
    table: TransmissionTable,
}

impl Plan {
    fn new(ctx: &Ctx) -> Result<Plan, String> {
        let cells = cells();
        let index = ctx.seed % MESSAGES;
        Ok(Plan {
            order: shuffled(cells.len(), ctx.seed),
            cells,
            index,
            msg: message(index),
            table: verify::load_table(TABLE)?,
        })
    }

    /// Transmits on every built channel in seeded order; returns whether
    /// every transmission verified, and the simulated work.
    fn pass(
        &self,
        built: &mut Built,
        tally: &mut Tally,
        mut rec: Option<&mut Recorder>,
    ) -> (bool, Work) {
        let mut ok = true;
        let mut work = Work::default();
        for &i in &self.order {
            let cell = &self.cells[i];
            let label = cell.label(self.index);
            let result = match &mut built[i] {
                Ok(ch) => match rec.as_deref_mut() {
                    None => transmit(ch.as_mut(), &self.msg),
                    Some(rec) => {
                        let name =
                            format!("channel.transmit.{}.{}", cell.profile.key, cell.channel);
                        rec.span(&name, BITS as u64, |_| transmit(ch.as_mut(), &self.msg))
                    }
                },
                Err(e) => Err(e.clone()),
            };
            let checked = result.and_then(|t| {
                self.table.check(&label, &t).map_err(|m| m.0)?;
                Ok(t)
            });
            tally.attempted += 1;
            match checked {
                Ok(t) => {
                    work.cells += 1.0;
                    work.bits += BITS as f64;
                    work.cycles += t.cycles();
                }
                Err(e) => {
                    eprintln!("paperbench: FAILED {label}: {e}");
                    tally.failed += 1;
                    ok = false;
                }
            }
        }
        (ok, work)
    }
}

/// The untraced run. Every pass builds and calibrates fresh channels so
/// each transmission starts from the same state (set-up, timed
/// `SETUPS_PER_PASS` times and kept out of `wall_s`), then times the
/// transmissions.
pub fn run(ctx: &Ctx) -> Result<(EndToEnd, Tally), String> {
    let plan = Plan::new(ctx)?;
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let mut warm_up = true;
    let start = Instant::now();
    let mut peak_rss_mb = 0.0f64;
    while keep_going(start, ctx.seconds, e2e.passes()) {
        e2e.time_reference(reference::PER_PASS)?;
        let mut built = Vec::new();
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let fresh = setup(&plan.cells, None);
            e2e.record_setup(t.elapsed().as_secs_f64());
            built = fresh;
        }
        let cpu0 = sys::self_usage().cpu_s;
        let t = Instant::now();
        let (ok, work) = plan.pass(&mut built, &mut tally, None);
        let wall = t.elapsed().as_secs_f64();
        let usage = sys::self_usage();
        let cpu = usage.cpu_s - cpu0;
        peak_rss_mb = peak_rss_mb.max(usage.max_rss_mb);
        // The first pass warms caches and page mappings; it is verified
        // but not timed.
        if ok && !warm_up {
            e2e.record(wall, cpu, work);
        }
        warm_up = false;
    }
    e2e.peak_rss_mb = peak_rss_mb;
    Ok((e2e, tally))
}

/// The traced run's workload part: set-up and pass, repeated until
/// `deadline` (at least once), in spans.
pub fn traced(
    ctx: &Ctx,
    rec: &mut Recorder,
    tally: &mut Tally,
    deadline: Instant,
) -> Result<(), String> {
    let plan = Plan::new(ctx)?;
    loop {
        let mut built = rec.span("channels.setup", plan.cells.len() as u64, |rec| {
            setup(&plan.cells, Some(rec))
        });
        rec.span("channels.pass", plan.cells.len() as u64, |rec| {
            plan.pass(&mut built, tally, Some(rec))
        });
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}

/// Captures every message's expected transmissions.
pub fn capture() -> Result<TransmissionTable, String> {
    let mut table = TransmissionTable::default();
    for index in 0..MESSAGES {
        let msg = message(index);
        for cell in cells() {
            let mut ch = build(&cell)?;
            table.insert(cell.label(index), transmit(ch.as_mut(), &msg)?);
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_seeded_balanced_and_distinct() {
        let a = message(3);
        assert_eq!(a, message(3));
        assert_eq!(a.len(), BITS);
        assert_ne!(a, message(4));
        let ones = a.iter().filter(|&&b| b).count();
        assert!((900..1150).contains(&ones), "{ones} ones");
    }

    #[test]
    fn grid_is_nine_channels_by_three_profiles() {
        assert_eq!(cells().len(), 27);
    }
}
