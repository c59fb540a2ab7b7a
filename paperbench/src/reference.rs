//! The reference kernel every end-to-end timing is scaled by.
//!
//! The benchmark runs on shared virtual machines whose memory system is
//! contended by other tenants: over minutes, the same binary's wall and
//! CPU time drift by 40% or more, while a pure-ALU loop barely moves. A
//! fixed hash-map workload, timed between the passes of the same run,
//! slows down with the simulator, so dividing by its time cancels much
//! (not all) of that drift. The kernel is the benchmark's own code;
//! the program under test never runs it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::splitmix64;

/// Host seconds one kernel call takes on the reference host: about its
/// median on the 2-vCPU VM the bounds were set on. A timing is
/// reported as `host seconds × REFERENCE_S ÷ median kernel seconds`.
pub const REFERENCE_S: f64 = 0.070;

/// Kernel calls timed before each pass, so the run's median sees the
/// same stretch of host time as its passes.
pub const PER_PASS: usize = 3;

/// Distinct keys inserted (a ~8 MiB table, well beyond L2).
const KEYS: u64 = 400_000;
const INSERTS: u64 = 300_000;
const LOOKUPS: u64 = 600_000;
/// The kernel's result; anything else means it did not run as written.
const CHECKSUM: u64 = 53_215_820_124;

/// One kernel call: inserts then looks up SplitMix64 keys in a fresh
/// map. Returns the sum of the values found.
fn kernel() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut state = 1;
    for i in 0..INSERTS {
        map.insert(splitmix64(&mut state) % KEYS, i);
    }
    let mut sum = 0u64;
    for _ in 0..LOOKUPS {
        if let Some(v) = map.get(&(splitmix64(&mut state) % KEYS)) {
            sum = sum.wrapping_add(*v);
        }
    }
    sum
}

/// Times one kernel call, in host seconds.
///
/// # Errors
///
/// Fails when the kernel's result is wrong.
pub fn time() -> Result<f64, String> {
    let t = Instant::now();
    let sum = kernel();
    let secs = t.elapsed().as_secs_f64();
    if sum != CHECKSUM {
        return Err(format!(
            "reference kernel returned {sum}, expected {CHECKSUM}"
        ));
    }
    Ok(secs)
}
