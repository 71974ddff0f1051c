//! A set-associative cache array.
//!
//! `Cache` models tags, state and residency metadata only — data contents do
//! not affect refresh behaviour or energy, so they are not simulated. The CMP
//! simulator composes these arrays into the private L1/L2 and the banked,
//! shared L3 of the paper's configuration.
//!
//! Every way of every set lives in one set-major `Vec<CacheLine>` (set `s`
//! is `lines[s*ways..(s+1)*ways]`) beside one flat replacement store, so a
//! tag search is a scan of `ways` adjacent 24-byte lines and building a
//! cache makes three allocations (name, lines, replacement store) whatever
//! its size.

use refrint_engine::stats::StatRegistry;
use refrint_engine::time::Cycle;

use crate::addr::LineAddr;
use crate::config::CacheGeometry;
use crate::line::{CacheLine, LineMeta, MesiState};
use crate::replacement::{ReplacementKind, ReplacementState};

/// The outcome of looking up a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The set the line maps to.
    pub set_index: u64,
    /// The way the line was found in.
    pub way: usize,
    /// The line's MESI state at the time of lookup.
    pub state: MesiState,
}

/// A valid line displaced by a fill, which the caller must handle
/// (write back if dirty, and maintain inclusion in upper levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line (state and metadata at eviction time).
    pub line: CacheLine,
}

impl EvictedLine {
    /// Whether the evicted line must be written back to the next level.
    #[must_use]
    pub fn needs_writeback(&self) -> bool {
        self.line.is_dirty()
    }
}

/// Fixed-field access counters, kept as plain integers so the per-access
/// hot path never touches a map. [`Cache::stats`] materializes them into a
/// [`StatRegistry`] (only counters that have fired, matching the shape a
/// registry built incrementally would have had).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    reads: u64,
    writes: u64,
    fills: u64,
    evictions: u64,
    dirty_evictions: u64,
    invalidations: u64,
    flushed_dirty: u64,
    flushes: u64,
}

/// An empty way: invalid, address zero (never matched because `find`
/// requires validity).
const EMPTY_WAY: CacheLine = CacheLine {
    addr: LineAddr::new(0),
    state: MesiState::Invalid,
    meta: LineMeta {
        last_touch: Cycle::ZERO,
    },
};

/// A set-associative cache array (one bank, for banked caches).
#[derive(Debug, Clone)]
pub struct Cache {
    name: String,
    geometry: CacheGeometry,
    /// Every way, set-major: set `s` is `lines[s*ways..(s+1)*ways]`.
    lines: Vec<CacheLine>,
    replacement: ReplacementState,
    /// Associativity, as an index stride.
    ways: usize,
    /// `num_sets - 1`, precomputed so set selection is a single mask.
    set_mask: u64,
    counters: CacheCounters,
}

impl Cache {
    /// Creates an empty cache with the given geometry and LRU replacement.
    #[must_use]
    pub fn new(name: &str, geometry: CacheGeometry) -> Self {
        Self::with_replacement(name, geometry, ReplacementKind::Lru, 0)
    }

    /// Creates an empty cache with an explicit replacement policy and seed.
    #[must_use]
    pub fn with_replacement(
        name: &str,
        geometry: CacheGeometry,
        replacement: ReplacementKind,
        seed: u64,
    ) -> Self {
        let sets = geometry.num_sets() as usize;
        let ways = geometry.ways();
        Cache {
            name: name.to_owned(),
            geometry,
            lines: vec![EMPTY_WAY; sets * usize::from(ways)],
            replacement: ReplacementState::new(replacement, sets, ways, seed),
            ways: usize::from(ways),
            set_mask: geometry.num_sets() - 1,
            counters: CacheCounters::default(),
        }
    }

    /// The cache's name (used for statistics and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Accumulated statistics (hits, misses, fills, evictions,
    /// invalidations), materialized from the internal fixed-field counters.
    /// Only counters that have fired at least once appear, matching the
    /// shape of a registry built incrementally.
    #[must_use]
    pub fn stats(&self) -> StatRegistry {
        let c = &self.counters;
        let mut out = StatRegistry::new();
        for (name, value, fired) in [
            ("hits", c.hits, c.hits > 0),
            ("misses", c.misses, c.misses > 0),
            ("reads", c.reads, c.reads > 0),
            ("writes", c.writes, c.writes > 0),
            ("fills", c.fills, c.fills > 0),
            ("evictions", c.evictions, c.evictions > 0),
            ("dirty_evictions", c.dirty_evictions, c.dirty_evictions > 0),
            ("invalidations", c.invalidations, c.invalidations > 0),
            ("flushed_dirty", c.flushed_dirty, c.flushes > 0),
        ] {
            if fired {
                out.add(name, value);
            }
        }
        out
    }

    #[inline]
    fn set_of(&self, addr: LineAddr) -> usize {
        // num_sets is validated as a power of two at construction, so set
        // selection is a single mask — no per-access assertion.
        (addr.raw() & self.set_mask) as usize
    }

    /// The index in `lines` of `way` in `set`.
    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The ways of `set`.
    #[inline]
    fn ways_of(&self, set: usize) -> &[CacheLine] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// The way of `set` holding `addr`, if present and valid.
    #[inline]
    fn find(&self, set: usize, addr: LineAddr) -> Option<usize> {
        self.ways_of(set)
            .iter()
            .position(|line| line.addr == addr && line.is_valid())
    }

    /// Records an access to `way` of `set` for replacement purposes.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.replacement.on_access(set, way as u8);
    }

    /// Picks the way of `set` a fill goes to: the lowest-numbered invalid
    /// way, else the replacement policy's victim.
    fn pick_victim(&mut self, set: usize) -> usize {
        if let Some(free) = self.ways_of(set).iter().position(|l| !l.is_valid()) {
            return free;
        }
        usize::from(self.replacement.victim_all_valid(set))
    }

    /// The slot of the valid line holding `addr`, if present.
    #[inline]
    fn slot_of(&self, addr: LineAddr) -> Option<usize> {
        let set = self.set_of(addr);
        self.find(set, addr).map(|way| self.slot(set, way))
    }

    /// Looks up `addr` without modifying replacement or residency state.
    #[must_use]
    pub fn probe(&self, addr: LineAddr) -> Option<LookupOutcome> {
        let set = self.set_of(addr);
        self.find(set, addr).map(|way| LookupOutcome {
            set_index: set as u64,
            way,
            state: self.lines[self.slot(set, way)].state,
        })
    }

    /// Looks up `addr` as a normal access at `now`: updates replacement
    /// order and the line's last-touch metadata, and counts a hit or miss.
    pub fn lookup(&mut self, addr: LineAddr, now: Cycle) -> Option<LookupOutcome> {
        self.lookup_prev(addr, now).map(|(_, outcome)| outcome)
    }

    /// Like [`Cache::lookup`], but additionally returns a copy of the line
    /// *as it was before this access touched it* — one tag search where the
    /// simulator's settle-then-touch pattern previously needed two
    /// (`line()` for the pre-access metadata, then `lookup()`).
    pub fn lookup_prev(
        &mut self,
        addr: LineAddr,
        now: Cycle,
    ) -> Option<(CacheLine, LookupOutcome)> {
        let set = self.set_of(addr);
        let Some(way) = self.find(set, addr) else {
            self.counters.misses += 1;
            return None;
        };
        self.touch(set, way);
        let slot = self.slot(set, way);
        let line = &mut self.lines[slot];
        let prev = *line;
        line.meta.touch(now);
        self.counters.hits += 1;
        Some((
            prev,
            LookupOutcome {
                set_index: set as u64,
                way,
                state: prev.state,
            },
        ))
    }

    /// Finds `addr` (it must be present), records the access for
    /// replacement and returns its slot.
    fn touch_present(&mut self, addr: LineAddr, op: &str) -> usize {
        let set = self.set_of(addr);
        let Some(way) = self.find(set, addr) else {
            panic!("{op} on a missing line");
        };
        self.touch(set, way);
        self.slot(set, way)
    }

    /// Reads the line (it must be present), updating metadata.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn read_hit(&mut self, addr: LineAddr, now: Cycle) {
        let slot = self.touch_present(addr, "read_hit");
        self.lines[slot].read(now);
        self.counters.reads += 1;
    }

    /// Writes the line (it must be present), upgrading it to Modified.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn write_hit(&mut self, addr: LineAddr, now: Cycle) {
        let slot = self.touch_present(addr, "write_hit");
        self.lines[slot].write(now);
        self.counters.writes += 1;
    }

    /// Fills `addr` in the given state, returning any valid line displaced.
    pub fn fill(&mut self, addr: LineAddr, state: MesiState, now: Cycle) -> Option<EvictedLine> {
        let set = self.set_of(addr);
        debug_assert!(
            self.find(set, addr).is_none(),
            "fill of a line that is already present"
        );
        let way = self.pick_victim(set);
        self.touch(set, way);
        let slot = self.slot(set, way);
        let previous = std::mem::replace(&mut self.lines[slot], CacheLine::new(addr, state, now));
        self.counters.fills += 1;
        previous.is_valid().then(|| {
            self.counters.evictions += 1;
            if previous.is_dirty() {
                self.counters.dirty_evictions += 1;
            }
            EvictedLine { line: previous }
        })
    }

    /// Changes the state of a resident line (coherence downgrades/upgrades).
    ///
    /// Returns `false` if the line is not present.
    pub fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        match self.line_mut(addr) {
            Some(line) => {
                line.state = state;
                true
            }
            None => false,
        }
    }

    /// Invalidates `addr` if present, returning the line as it was.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let line = self.line_mut(addr)?;
        let removed = *line;
        line.invalidate();
        self.counters.invalidations += 1;
        Some(removed)
    }

    /// Immutable access to a resident line.
    #[must_use]
    pub fn line(&self, addr: LineAddr) -> Option<&CacheLine> {
        self.slot_of(addr).map(|slot| &self.lines[slot])
    }

    /// Mutable access to a resident line.
    pub fn line_mut(&mut self, addr: LineAddr) -> Option<&mut CacheLine> {
        self.slot_of(addr).map(|slot| &mut self.lines[slot])
    }

    /// Iterates over all valid resident lines, set by set.
    pub fn iter_valid(&self) -> impl Iterator<Item = &CacheLine> {
        self.lines.iter().filter(|l| l.is_valid())
    }

    /// Iterates mutably over all valid resident lines, set by set.
    pub fn iter_valid_mut(&mut self) -> impl Iterator<Item = &mut CacheLine> {
        self.lines.iter_mut().filter(|l| l.is_valid())
    }

    /// Number of valid resident lines.
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.iter_valid().count() as u64
    }

    /// Number of valid dirty resident lines.
    #[must_use]
    pub fn dirty_count(&self) -> u64 {
        self.iter_valid().filter(|l| l.is_dirty()).count() as u64
    }

    /// Copies every valid resident line into `out` (cleared first). Lets
    /// callers that repeatedly snapshot residency — the simulator's
    /// end-of-run settlement, flush and invalidation paths — reuse one
    /// scratch buffer instead of collecting a fresh `Vec` each time.
    pub fn collect_valid_into(&self, out: &mut Vec<CacheLine>) {
        out.clear();
        out.extend(self.iter_valid().copied());
    }

    /// Invalidates every line, returning the dirty ones (end-of-run flush).
    pub fn flush(&mut self) -> Vec<CacheLine> {
        let mut dirty = Vec::new();
        for line in self.iter_valid_mut() {
            if line.is_dirty() {
                dirty.push(*line);
            }
            line.invalidate();
        }
        self.counters.flushes += 1;
        self.counters.flushed_dirty += dirty.len() as u64;
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn small_cache() -> Cache {
        // 8 sets x 2 ways x 64B = 1 KB.
        Cache::new("test", CacheGeometry::new(1024, 2, 64).unwrap())
    }

    /// One set of four ways, so every line conflicts with every other.
    fn one_set() -> Cache {
        Cache::new("set", CacheGeometry::new(4 * 64, 4, 64).unwrap())
    }

    fn way_of(c: &Cache, addr: u64) -> usize {
        c.probe(LineAddr::new(addr)).expect("line is resident").way
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        let a = LineAddr::new(0x40);
        assert!(c.lookup(a, Cycle::ZERO).is_none());
        assert!(c.fill(a, MesiState::Exclusive, Cycle::new(1)).is_none());
        let hit = c.lookup(a, Cycle::new(2)).unwrap();
        assert_eq!(hit.state, MesiState::Exclusive);
        assert_eq!(c.stats().get("hits"), 1);
        assert_eq!(c.stats().get("misses"), 1);
        assert_eq!(c.stats().get("fills"), 1);
    }

    #[test]
    fn conflicting_fills_evict() {
        let mut c = small_cache();
        // Lines 0, 8, 16 map to the same set (8 sets).
        for i in 0..3u64 {
            c.fill(LineAddr::new(i * 8), MesiState::Shared, Cycle::new(i));
        }
        assert_eq!(c.stats().get("evictions"), 1);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn dirty_eviction_flagged() {
        let mut c = small_cache();
        c.fill(LineAddr::new(0), MesiState::Modified, Cycle::ZERO);
        c.fill(LineAddr::new(8), MesiState::Shared, Cycle::ZERO);
        let evicted = c
            .fill(LineAddr::new(16), MesiState::Shared, Cycle::ZERO)
            .unwrap();
        assert!(evicted.needs_writeback());
        assert_eq!(c.stats().get("dirty_evictions"), 1);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = small_cache();
        let a = LineAddr::new(3);
        c.fill(a, MesiState::Exclusive, Cycle::ZERO);
        c.write_hit(a, Cycle::new(5));
        assert!(c.line(a).unwrap().is_dirty());
        assert_eq!(c.dirty_count(), 1);
        c.read_hit(a, Cycle::new(9));
        assert_eq!(c.line(a).unwrap().meta.last_touch, Cycle::new(9));
    }

    #[test]
    fn probe_does_not_touch() {
        let mut c = small_cache();
        let a = LineAddr::new(3);
        c.fill(a, MesiState::Exclusive, Cycle::new(1));
        let _ = c.probe(a);
        assert_eq!(c.line(a).unwrap().meta.last_touch, Cycle::new(1));
        assert_eq!(c.stats().get("hits"), 0);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = small_cache();
        let a = LineAddr::new(7);
        c.fill(a, MesiState::Modified, Cycle::ZERO);
        assert!(c.set_state(a, MesiState::Shared));
        assert!(!c.line(a).unwrap().is_dirty());
        let removed = c.invalidate(a).unwrap();
        assert_eq!(removed.state, MesiState::Shared);
        assert!(c.line(a).is_none());
        assert!(!c.set_state(a, MesiState::Shared));
        assert!(c.invalidate(a).is_none());
    }

    #[test]
    fn flush_returns_dirty_lines_and_empties_cache() {
        let mut c = small_cache();
        c.fill(LineAddr::new(1), MesiState::Modified, Cycle::ZERO);
        c.fill(LineAddr::new(2), MesiState::Shared, Cycle::ZERO);
        c.fill(LineAddr::new(3), MesiState::Modified, Cycle::ZERO);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 2);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_counts() {
        let mut c = small_cache();
        assert_eq!(c.occupancy(), 0);
        for i in 0..10u64 {
            c.fill(LineAddr::new(i), MesiState::Shared, Cycle::ZERO);
        }
        assert_eq!(c.occupancy(), 10);
        assert_eq!(c.iter_valid().count(), 10);
    }

    #[test]
    fn find_and_install() {
        let mut c = one_set();
        assert!(c.probe(LineAddr::new(1)).is_none());
        assert!(c
            .fill(LineAddr::new(1), MesiState::Exclusive, Cycle::ZERO)
            .is_none());
        assert_eq!(way_of(&c, 1), 0, "an empty set fills its lowest way first");
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn fills_prefer_invalid_ways_then_evict_lru() {
        let mut c = one_set();
        for i in 0..4u64 {
            assert!(c
                .fill(LineAddr::new(i), MesiState::Shared, Cycle::new(i))
                .is_none());
            assert_eq!(way_of(&c, i), i as usize);
        }
        assert_eq!(c.occupancy(), 4);
        // Next fill must evict line 0 (the LRU).
        let evicted = c.fill(LineAddr::new(100), MesiState::Shared, Cycle::new(10));
        assert_eq!(evicted.unwrap().line.addr, LineAddr::new(0));
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn touch_changes_lru_order() {
        let mut c = one_set();
        for i in 0..4u64 {
            c.fill(LineAddr::new(i), MesiState::Shared, Cycle::new(i));
        }
        // Touch line 0 so line 1 becomes LRU.
        assert!(c.lookup(LineAddr::new(0), Cycle::new(5)).is_some());
        let evicted = c.fill(LineAddr::new(100), MesiState::Shared, Cycle::new(10));
        assert_eq!(evicted.unwrap().line.addr, LineAddr::new(1));
    }

    #[test]
    fn invalid_way_preferred_over_lru() {
        let mut c = one_set();
        for i in 0..4u64 {
            c.fill(LineAddr::new(i), MesiState::Shared, Cycle::new(i));
        }
        // Way 2 is freed while way 0 is the LRU: the fill takes way 2.
        c.invalidate(LineAddr::new(2));
        assert!(c
            .fill(LineAddr::new(100), MesiState::Shared, Cycle::new(10))
            .is_none());
        assert_eq!(way_of(&c, 100), 2);
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = one_set();
        c.fill(LineAddr::new(5), MesiState::Modified, Cycle::ZERO);
        assert_eq!(c.dirty_count(), 1);
        let removed = c.invalidate(LineAddr::new(5)).unwrap();
        assert!(removed.is_dirty());
        assert!(c.probe(LineAddr::new(5)).is_none());
        assert_eq!(c.occupancy(), 0);
        assert!(c.invalidate(LineAddr::new(5)).is_none());
    }

    #[test]
    fn line_accessors() {
        let mut c = one_set();
        c.fill(LineAddr::new(9), MesiState::Exclusive, Cycle::new(3));
        assert_eq!(c.line(LineAddr::new(9)).unwrap().addr, LineAddr::new(9));
        c.line_mut(LineAddr::new(9)).unwrap().write(Cycle::new(7));
        assert!(c.line(LineAddr::new(9)).unwrap().is_dirty());
        assert!(c.line(LineAddr::new(99)).is_none());
    }

    #[test]
    fn iter_valid_mut_allows_bulk_updates() {
        let mut c = one_set();
        for i in 0..3u64 {
            c.fill(LineAddr::new(i), MesiState::Exclusive, Cycle::ZERO);
        }
        for l in c.iter_valid_mut() {
            l.write(Cycle::new(9));
        }
        assert_eq!(c.dirty_count(), 3);
    }
}
