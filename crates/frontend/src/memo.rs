//! Keyed per-chain memos.
//!
//! Every per-chain value the simulator derives once and reuses — the
//! frontend's delivery plans and `leaky_cpu`'s backend throughput —
//! lives in a [`ChainMemo`]: a hash map keyed by *(chain key, profile
//! key)*. Both halves are already FNV content hashes
//! ([`leaky_isa::BlockChain::key`],
//! [`crate::FrontendConfig::profile_key`]), so the map uses a
//! pass-through `KeyHasher` instead of SipHash. The memo holds every
//! chain its owner ever ran (the working set of one experiment cell),
//! so a hit never depends on how many other chains ran in between.
//!
//! The map is only looked up, never iterated, so no output can depend
//! on its order.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Pass-through hasher for keys that are already content hashes: each
/// `u64` word is folded in with one rotate, xor and multiply.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

/// Odd multiplier with well-spread bits (the FxHash constant).
const MIX: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Monotonic lookup counters of a [`ChainMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that built (and stored) a new entry.
    pub misses: u64,
    /// Entries currently held.
    pub len: usize,
}

/// A memo of per-chain values keyed by *(chain key, profile key)*.
///
/// The profile-key half is what lets an owner reconfigure without a
/// flush: entries built under an old configuration simply stop
/// matching, and switching back rehits them.
#[derive(Debug, Clone)]
pub struct ChainMemo<V> {
    map: HashMap<(u64, u64), V, BuildHasherDefault<KeyHasher>>,
    hits: u64,
    misses: u64,
}

impl<V> Default for ChainMemo<V> {
    fn default() -> Self {
        ChainMemo {
            map: HashMap::default(),
            hits: 0,
            misses: 0,
        }
    }
}

impl<V: Clone> ChainMemo<V> {
    /// Returns the value for `(chain_key, profile_key)`, calling `build`
    /// and storing its result on first sight.
    pub fn get_or_insert_with(
        &mut self,
        chain_key: u64,
        profile_key: u64,
        build: impl FnOnce() -> V,
    ) -> V {
        match self.map.entry((chain_key, profile_key)) {
            Entry::Occupied(e) => {
                self.hits += 1;
                e.get().clone()
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(build()).clone()
            }
        }
    }
}

impl<V> ChainMemo<V> {
    /// The stored value for `(chain_key, profile_key)`, if any, without
    /// counting a lookup.
    pub fn peek(&self, chain_key: u64, profile_key: u64) -> Option<&V> {
        self.map.get(&(chain_key, profile_key))
    }

    /// Hit/miss counters and the current entry count.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            len: self.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_per_key_and_counts_lookups() {
        let mut memo = ChainMemo::default();
        let mut builds = 0;
        for round in 0..3 {
            for key in 0..100u64 {
                let v = memo.get_or_insert_with(key, 7, || {
                    builds += 1;
                    key * 2
                });
                assert_eq!(v, key * 2, "round {round}");
            }
        }
        assert_eq!(builds, 100);
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 200,
                misses: 100,
                len: 100
            }
        );
        assert_eq!(memo.peek(3, 7), Some(&6));
        assert_eq!(memo.stats().hits, 200, "peek is not a lookup");
    }
}
