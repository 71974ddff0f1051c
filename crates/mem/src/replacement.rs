//! Replacement policies for set-associative caches.
//!
//! The paper does not dwell on replacement (normal LRU-class policies are
//! assumed: "any line which is not being used is quickly replaced by the
//! normal cache replacement policies", Section 6.2). We provide true LRU
//! (the default), tree pseudo-LRU and random replacement so the effect of
//! the choice can be studied as an ablation.

use std::fmt;

use refrint_engine::rng::DeterministicRng;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree-based pseudo-LRU (as commonly implemented in hardware).
    TreePlru,
    /// Uniform random victim selection.
    Random,
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementKind::Lru => write!(f, "lru"),
            ReplacementKind::TreePlru => write!(f, "tree-plru"),
            ReplacementKind::Random => write!(f, "random"),
        }
    }
}

/// Replacement state for every set of one cache.
///
/// One store per cache, laid out set-major like the cache's lines: the cache
/// informs it of accesses to `(set, way)` and asks it for a victim in a set
/// whose ways are all valid (it picks free ways itself).
#[derive(Debug, Clone)]
pub enum ReplacementState {
    /// LRU: each set's ways ordered from most- to least-recently used.
    Lru {
        /// Set `s`'s order is `order[s*ways..(s+1)*ways]`; its first entry
        /// is the MRU way, its last the LRU way.
        order: Vec<u8>,
        /// Associativity.
        ways: u8,
    },
    /// Tree pseudo-LRU over `ways` leaves (ways must be a power of two).
    TreePlru {
        /// Internal node bits of every set's PLRU tree, `ways - 1` per set.
        bits: Vec<bool>,
        /// Associativity.
        ways: u8,
    },
    /// Random replacement with one deterministic stream per set.
    Random {
        /// Associativity.
        ways: u8,
        /// Set `s` draws from `rngs[s]`, seeded with `seed + s`.
        rngs: Vec<DeterministicRng>,
    },
}

impl ReplacementState {
    /// Creates replacement state for `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 128, or if `TreePlru` is
    /// requested with a non-power-of-two associativity.
    #[must_use]
    pub fn new(kind: ReplacementKind, sets: usize, ways: u8, seed: u64) -> Self {
        assert!(ways > 0 && ways <= 128, "unsupported associativity {ways}");
        match kind {
            ReplacementKind::Lru => ReplacementState::Lru {
                order: (0..sets * usize::from(ways))
                    .map(|i| (i % usize::from(ways)) as u8)
                    .collect(),
                ways,
            },
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree pseudo-LRU requires power-of-two associativity"
                );
                ReplacementState::TreePlru {
                    bits: vec![false; sets * (usize::from(ways) - 1)],
                    ways,
                }
            }
            ReplacementKind::Random => ReplacementState::Random {
                ways,
                rngs: (0..sets as u64)
                    .map(|set| DeterministicRng::from_seed(seed.wrapping_add(set)))
                    .collect(),
            },
        }
    }

    /// Notifies the policy that `way` of `set` was accessed (hit or fill).
    pub fn on_access(&mut self, set: usize, way: u8) {
        match self {
            ReplacementState::Lru { order, ways } => {
                let ways = usize::from(*ways);
                let order = &mut order[set * ways..(set + 1) * ways];
                if let Some(pos) = order.iter().position(|&w| w == way) {
                    // Move to front: shift the more recent ways back by one.
                    order.copy_within(0..pos, 1);
                    order[0] = way;
                }
            }
            ReplacementState::TreePlru { bits, ways } => {
                // Walk from the root towards the accessed leaf, setting each
                // internal bit to point *away* from the path taken.
                let ways = usize::from(*ways);
                let bits = &mut bits[set * (ways - 1)..(set + 1) * (ways - 1)];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = usize::from(way) >= mid;
                    bits[node] = !go_right;
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            ReplacementState::Random { .. } => {}
        }
    }

    /// Chooses a victim way in `set`, assuming every way holds a valid line
    /// (the cache scans for free ways itself).
    pub fn victim_all_valid(&mut self, set: usize) -> u8 {
        match self {
            ReplacementState::Lru { order, ways } => order[(set + 1) * usize::from(*ways) - 1],
            ReplacementState::TreePlru { bits, ways } => {
                let ways = usize::from(*ways);
                let bits = &bits[set * (ways - 1)..(set + 1) * (ways - 1)];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = bits[node];
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo as u8
            }
            ReplacementState::Random { ways, rngs } => rngs[set].below(u64::from(*ways)) as u8,
        }
    }

    /// The associativity this state was built for.
    #[must_use]
    pub fn ways(&self) -> u8 {
        match self {
            ReplacementState::Lru { ways, .. }
            | ReplacementState::TreePlru { ways, .. }
            | ReplacementState::Random { ways, .. } => *ways,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = ReplacementState::new(ReplacementKind::Lru, 2, 4, 0);
        // Touch ways in order 0,1,2,3 — way 0 is now LRU.
        for w in 0..4 {
            s.on_access(1, w);
        }
        assert_eq!(s.victim_all_valid(1), 0);
        // Touch way 0 again; way 1 becomes LRU.
        s.on_access(1, 0);
        assert_eq!(s.victim_all_valid(1), 1);
        // The other set's order is untouched: its LRU is still way 3.
        assert_eq!(s.victim_all_valid(0), 3);
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut s = ReplacementState::new(ReplacementKind::TreePlru, 3, 8, 0);
        for i in 0..1000u32 {
            let way = (i % 8) as u8;
            let set = (i % 3) as usize;
            s.on_access(set, way);
            let victim = s.victim_all_valid(set);
            assert_ne!(victim, way, "PLRU must not evict the just-accessed way");
        }
    }

    #[test]
    fn plru_single_way() {
        let mut s = ReplacementState::new(ReplacementKind::TreePlru, 2, 1, 0);
        s.on_access(1, 0);
        assert_eq!(s.victim_all_valid(1), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = ReplacementState::new(ReplacementKind::Random, 4, 8, 1234);
        let mut b = ReplacementState::new(ReplacementKind::Random, 4, 8, 1234);
        for i in 0..64 {
            let va = a.victim_all_valid(i % 4);
            let vb = b.victim_all_valid(i % 4);
            assert_eq!(va, vb);
            assert!(va < 8);
        }
        // Each set draws from its own stream, seeded with seed + set.
        let mut fresh = ReplacementState::new(ReplacementKind::Random, 4, 8, 1234);
        let mut set3 = DeterministicRng::from_seed(1234 + 3);
        for _ in 0..16 {
            assert_eq!(u64::from(fresh.victim_all_valid(3)), set3.below(8));
        }
    }

    #[test]
    fn ways_accessor() {
        assert_eq!(
            ReplacementState::new(ReplacementKind::Lru, 1, 4, 0).ways(),
            4
        );
        assert_eq!(
            ReplacementState::new(ReplacementKind::TreePlru, 1, 8, 0).ways(),
            8
        );
        assert_eq!(
            ReplacementState::new(ReplacementKind::Random, 1, 16, 0).ways(),
            16
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = ReplacementState::new(ReplacementKind::TreePlru, 1, 6, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementKind::Lru.to_string(), "lru");
        assert_eq!(ReplacementKind::TreePlru.to_string(), "tree-plru");
        assert_eq!(ReplacementKind::Random.to_string(), "random");
    }
}
