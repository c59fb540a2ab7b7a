//! Output checking. Every timed pass compares what the program produced
//! with what it produced at the commit the expected outputs were taken
//! at; a pass with any mismatch is a failed operation and its timings
//! are dropped. The negative control proves, on every run, that these
//! comparisons can fail.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use leaky_frontends::ChannelRun;

/// The committed goldens of the repository's own tests, read in place.
pub const GOLDEN_DIR: &str = "crates/bench/tests/golden";
/// Outputs captured for this benchmark where the repository has no golden.
pub const EXPECTED_DIR: &str = "paperbench/expected";

/// Why one operation's output was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch(pub String);

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Reads an expected-output file.
///
/// # Errors
///
/// Fails when the file is missing: without it nothing can be verified.
pub fn read_expected(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("expected output {}: {e}", path.display()))
}

/// `EXPECTED_DIR/<name>`.
pub fn expected_path(name: &str) -> PathBuf {
    Path::new(EXPECTED_DIR).join(name)
}

/// Byte-for-byte comparison, naming the first differing offset.
pub fn same_bytes(what: &str, expected: &[u8], actual: &[u8]) -> Result<(), Mismatch> {
    if expected == actual {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(actual)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(actual.len()));
    Err(Mismatch(format!(
        "{what}: output differs at byte {at} (expected {} bytes, got {})",
        expected.len(),
        actual.len()
    )))
}

/// What one covert-channel transmission produced: the quantities the
/// `channels` workload checks against the values captured at the
/// expected-output commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Received bits that differ from the sent bit at the same index
    /// (plus any length difference).
    pub bit_errors: usize,
    /// `ChannelRun::cycles`, as its exact `f64` bit pattern.
    pub cycles_bits: u64,
    /// FNV-1a digest of the received bit string.
    pub received_digest: u64,
}

impl Transmission {
    /// Summarises a transmission of `sent` that produced `received`.
    pub fn new(sent: &[bool], received: &[bool], cycles: f64) -> Transmission {
        let differing = sent.iter().zip(received).filter(|(a, b)| a != b).count();
        let mut digest = FNV_OFFSET;
        for &bit in received {
            digest = (digest ^ u64::from(bit)).wrapping_mul(FNV_PRIME);
        }
        Transmission {
            bit_errors: differing + sent.len().abs_diff(received.len()),
            cycles_bits: cycles.to_bits(),
            received_digest: digest,
        }
    }

    /// Simulated cycles.
    pub fn cycles(&self) -> f64 {
        f64::from_bits(self.cycles_bits)
    }

    fn encode(&self) -> String {
        format!(
            "{} {:016x} {:016x}",
            self.bit_errors, self.cycles_bits, self.received_digest
        )
    }

    fn decode(fields: &[&str]) -> Option<Transmission> {
        let [errors, cycles, digest] = fields else {
            return None;
        };
        Some(Transmission {
            bit_errors: errors.parse().ok()?,
            cycles_bits: u64::from_str_radix(cycles, 16).ok()?,
            received_digest: u64::from_str_radix(digest, 16).ok()?,
        })
    }
}

/// Runs one transmission and summarises it, turning a panic into an
/// error.
pub fn transmitted(f: impl FnOnce() -> ChannelRun) -> Result<Transmission, String> {
    catch_unwind(AssertUnwindSafe(f))
        .map(|run| Transmission::new(run.sent(), run.received(), run.cycles()))
        .map_err(|_| "transmit panicked".to_string())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Expected transmissions keyed by a caller-chosen label (for example
/// `3 skylake mt-eviction`: message index, profile, channel).
#[derive(Debug, Default, Clone)]
pub struct TransmissionTable(BTreeMap<String, Transmission>);

impl TransmissionTable {
    /// Records `t` under `label`.
    pub fn insert(&mut self, label: String, t: Transmission) {
        self.0.insert(label, t);
    }

    /// Checks `actual` against the entry for `label`.
    pub fn check(&self, label: &str, actual: &Transmission) -> Result<(), Mismatch> {
        let Some(expected) = self.0.get(label) else {
            return Err(Mismatch(format!("{label}: no expected transmission")));
        };
        if expected == actual {
            return Ok(());
        }
        Err(Mismatch(format!(
            "{label}: expected {} bit errors over {} cycles, got {} over {}{}",
            expected.bit_errors,
            expected.cycles(),
            actual.bit_errors,
            actual.cycles(),
            if expected.received_digest == actual.received_digest {
                ""
            } else {
                " (received bits differ)"
            }
        )))
    }

    /// One `label<TAB>errors cycles digest` line per entry, sorted.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(label, t)| format!("{label}\t{}\n", t.encode()))
            .collect()
    }

    /// Parses [`TransmissionTable::render`]'s format; `#` lines are
    /// comments.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<TransmissionTable, String> {
        let mut table = TransmissionTable::default();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let parsed = line.split_once('\t').and_then(|(label, rest)| {
                let fields: Vec<&str> = rest.split(' ').collect();
                Some((label.to_string(), Transmission::decode(&fields)?))
            });
            let Some((label, t)) = parsed else {
                return Err(format!("line {}: malformed transmission record", n + 1));
            };
            table.insert(label, t);
        }
        Ok(table)
    }

    /// Any one entry (the negative control's specimen).
    pub fn first(&self) -> Option<(&str, &Transmission)> {
        self.0.iter().next().map(|(k, v)| (k.as_str(), v))
    }
}

/// Reads a [`TransmissionTable`] from `EXPECTED_DIR/<name>`.
///
/// # Errors
///
/// Fails when the file is missing or malformed.
pub fn load_table(name: &str) -> Result<TransmissionTable, String> {
    let path = expected_path(name);
    let bytes = read_expected(&path)?;
    let text = String::from_utf8(bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    TransmissionTable::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The negative control: one flipped output byte and one altered error
/// count must each be reported as a mismatch. Returns what the verifier
/// said about each injected fault.
///
/// # Errors
///
/// Fails when either fault passes verification, which would mean output
/// checking is vacuous and no timing of this run can be trusted.
pub fn negative_control(output: &[u8], table: &TransmissionTable) -> Result<[Mismatch; 2], String> {
    if output.is_empty() {
        return Err("negative control needs a non-empty output specimen".into());
    }
    let mut flipped = output.to_vec();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let byte = match same_bytes("control", output, &flipped) {
        Err(m) => m,
        Ok(()) => return Err("a flipped output byte passed verification".into()),
    };
    let Some((label, t)) = table.first() else {
        return Err("negative control needs an expected transmission".into());
    };
    let altered = Transmission {
        bit_errors: t.bit_errors + 1,
        ..*t
    };
    let count = match table.check(label, &altered) {
        Err(m) => m,
        Ok(()) => return Err("an altered bit-error count passed verification".into()),
    };
    Ok([byte, count])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TransmissionTable {
        let mut t = TransmissionTable::default();
        t.insert(
            "0 skylake slow-switch".into(),
            Transmission::new(&[true, false, true], &[true, true, true], 1234.5),
        );
        t
    }

    #[test]
    fn flipped_byte_and_altered_count_are_reported() {
        let [byte, count] = negative_control(b"Table III\n", &table()).expect("control trips");
        assert!(byte.0.contains("byte 5"), "{byte}");
        assert!(count.0.contains("expected 1 bit errors"), "{count}");
    }

    #[test]
    fn identical_outputs_pass() {
        assert_eq!(same_bytes("x", b"abc", b"abc"), Ok(()));
        let t = Transmission::new(&[true, false, true], &[true, true, true], 1234.5);
        assert_eq!(table().check("0 skylake slow-switch", &t), Ok(()));
    }

    #[test]
    fn truncated_output_and_unknown_label_fail() {
        assert!(same_bytes("x", b"abc", b"ab").is_err());
        let t = Transmission::new(&[true], &[true], 1.0);
        assert!(table().check("9 icelake mt-eviction", &t).is_err());
    }

    #[test]
    fn received_bits_matter_even_at_equal_error_counts() {
        let a = Transmission::new(&[true, false], &[false, false], 10.0);
        let b = Transmission::new(&[true, false], &[true, true], 10.0);
        assert_eq!(a.bit_errors, b.bit_errors);
        assert_ne!(a, b);
    }

    #[test]
    fn table_roundtrips_through_its_text_form() {
        let t = table();
        let parsed = TransmissionTable::parse(&t.render()).expect("well-formed");
        assert_eq!(parsed.render(), t.render());
        assert!(TransmissionTable::parse("label\t1 2").is_err());
    }
}
