//! Simulated work a verified pass accounts for: covert-channel message
//! bits and simulated frontend cycles, summed from the stall telemetry
//! that `leaky_sweep --trace=summary --format json` attaches to cells.
//!
//! Sweeps whose cells carry no telemetry (tab5, tab7, rng_stream_grid)
//! and the standalone binaries contribute nothing, so these totals are a
//! lower bound on the work done; they are fixed for a given output, which
//! is what a per-second rate over verified passes needs.

use leaky_bench::perf::{parse_json, Json};

use crate::verify;

/// Message bits and simulated frontend cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// Grid cells (or channel transmissions) completed.
    pub cells: f64,
    /// Covert-channel message bits.
    pub bits: f64,
    /// Simulated cycles.
    pub cycles: f64,
}

const PAPER_FILE: &str = "paper_work.txt";

fn items(v: Option<&Json>) -> &[Json] {
    match v {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_num).unwrap_or(0.0)
}

/// Sums telemetry over a `leaky-frontends/sweep/v1` document.
///
/// # Errors
///
/// Fails when the document does not parse.
pub fn from_sweep_json(text: &str) -> Result<Work, String> {
    let doc = parse_json(text).map_err(|e| format!("sweep JSON: {e}"))?;
    let mut work = Work::default();
    for sweep in items(doc.get("sweeps")) {
        for cell in items(sweep.get("cells")) {
            work.cells += 1.0;
            let Some(t) = cell.get("telemetry") else {
                continue;
            };
            work.bits += num(t.get("channel").and_then(|c| c.get("bits")));
            if let Some(Json::Obj(sources)) = t.get("sources") {
                work.cycles += sources
                    .iter()
                    .map(|(_, s)| num(s.get("cycles")))
                    .sum::<f64>();
            }
        }
    }
    Ok(work)
}

/// Renders the `paper` totals file.
pub fn render_paper(work: Work) -> String {
    format!(
        "# Telemetry totals of one `paper` pass: every registry sweep plus\n\
         # scenarios/tab3_riscv.toml, run with --trace=summary --format json.\n\
         bits {}\ncycles {:?}\n",
        work.bits, work.cycles
    )
}

/// The `paper` totals captured with the expected outputs. The paper pass
/// prints tables, not telemetry, so its totals cannot be read off the
/// pass itself; they hold for as long as the pass's outputs verify.
///
/// # Errors
///
/// Fails when the file is missing or malformed.
pub fn paper() -> Result<Work, String> {
    let bytes = verify::read_expected(&verify::expected_path(PAPER_FILE))?;
    let text = String::from_utf8(bytes).map_err(|e| format!("{PAPER_FILE}: {e}"))?;
    let mut work = Work::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("{PAPER_FILE}: malformed line {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("{PAPER_FILE}: {key}: {e}"))?;
        match key {
            "bits" => work.bits = value,
            "cycles" => work.cycles = value,
            _ => return Err(format!("{PAPER_FILE}: unknown key {key:?}")),
        }
    }
    if work.bits <= 0.0 || work.cycles <= 0.0 {
        return Err(format!("{PAPER_FILE}: bits and cycles must be positive"));
    }
    Ok(work)
}

/// Path of the `paper` totals file.
pub fn paper_path() -> std::path::PathBuf {
    verify::expected_path(PAPER_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_bits_and_source_cycles_and_counts_cells() {
        let doc = r#"{"schema": "x", "sweeps": [{"cells": [
            {"key": "a", "telemetry": {"sources": {"dsb": {"cycles": 10.5}, "mite": {"cycles": 2.0}},
             "channel": {"bits": 256}}},
            {"key": "b"}
        ]}]}"#;
        let work = from_sweep_json(doc).expect("parses");
        assert_eq!(
            work,
            Work {
                cells: 2.0,
                bits: 256.0,
                cycles: 12.5
            }
        );
    }
}
