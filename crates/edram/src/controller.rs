//! Execution-time costs of refreshing: periodic group bursts and Refrint
//! interrupt contention.
//!
//! The paper attributes the 18% slowdown of the naive `Periodic All` eDRAM
//! baseline to the cache being unavailable while groups of lines are being
//! refreshed, and the near-zero slowdown of Refrint to its highly staggered,
//! one-line-per-cycle interrupt servicing (Sections 3.2, 4.2 and 6.5). This
//! module provides the two corresponding timing models:
//!
//! * [`PeriodicBurstModel`] — each refresh period, every group (sub-array) of
//!   the cache is refreshed as a contiguous burst of one cycle per line;
//!   bursts are staggered evenly across the period. An access that arrives
//!   while a burst is in progress waits for the burst to finish.
//! * [`RefrintContention`] — sentry interrupts take priority over plain
//!   read/write requests, but are serialised one per cycle by the priority
//!   encoder, so an access at most waits for the interrupts currently
//!   pending. We model this with a deterministic utilisation accumulator.

use refrint_engine::time::Cycle;

/// Blocking model for the Periodic time policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicBurstModel {
    retention: Cycle,
    groups: u64,
    lines_per_group: u64,
}

impl PeriodicBurstModel {
    /// Creates a burst model for a cache with `groups` refresh groups of
    /// `lines_per_group` lines, refreshed once per `retention`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or if the total refresh work per
    /// period exceeds the period itself (the cache could never keep up).
    #[must_use]
    pub fn new(retention: Cycle, groups: u64, lines_per_group: u64) -> Self {
        assert!(retention > Cycle::ZERO, "retention must be non-zero");
        assert!(
            groups > 0 && lines_per_group > 0,
            "groups and lines must be non-zero"
        );
        assert!(
            groups * lines_per_group <= retention.raw(),
            "refresh work per period ({} cycles) exceeds the period ({})",
            groups * lines_per_group,
            retention
        );
        PeriodicBurstModel {
            retention,
            groups,
            lines_per_group,
        }
    }

    /// The spacing between the starts of consecutive group bursts.
    #[must_use]
    pub fn burst_spacing(&self) -> Cycle {
        self.retention / self.groups
    }

    /// Duration of one group burst (one cycle per line).
    #[must_use]
    pub fn burst_length(&self) -> Cycle {
        Cycle::new(self.lines_per_group)
    }

    /// The fraction of time the cache is blocked by refresh bursts.
    #[must_use]
    pub fn blocked_fraction(&self) -> f64 {
        (self.groups * self.lines_per_group) as f64 / self.retention.raw() as f64
    }

    /// If an access arrives at `now` while a burst is in progress, returns
    /// the extra delay until the burst completes; otherwise zero.
    ///
    /// This is the most conservative reading of the paper's "renders the
    /// cache unavailable" argument: the whole cache blocks during a group
    /// burst. The system simulator uses the sub-array-targeted
    /// [`PeriodicBurstModel::access_delay_for_line`] instead, where only
    /// accesses that map to the sub-array currently being refreshed stall.
    #[must_use]
    pub fn access_delay(&self, now: Cycle) -> Cycle {
        let phase = now % self.burst_spacing();
        let burst = self.burst_length();
        if phase < burst {
            burst - phase
        } else {
            Cycle::ZERO
        }
    }

    /// The group (sub-array) being refreshed at `now`, if a burst is in
    /// progress.
    #[must_use]
    pub fn group_in_refresh(&self, now: Cycle) -> Option<u64> {
        let spacing = self.burst_spacing();
        let phase = now % spacing;
        if phase < self.burst_length() {
            Some((now % self.retention).div_span(spacing) % self.groups)
        } else {
            None
        }
    }

    /// Stall seen by an access to the line whose sub-array index is
    /// `line_group` (`line address mod groups`): it waits only if its own
    /// sub-array is the one currently being refreshed.
    #[must_use]
    pub fn access_delay_for_line(&self, now: Cycle, line_group: u64) -> Cycle {
        match self.group_in_refresh(now) {
            Some(busy) if busy == line_group % self.groups => {
                self.burst_length() - (now % self.burst_spacing())
            }
            _ => Cycle::ZERO,
        }
    }

    /// Like [`PeriodicBurstModel::access_delay_for_line`], but the wait is
    /// capped at `preemption_window` cycles: the refresh engine yields to a
    /// pending demand access after at most that many line refreshes and then
    /// resumes the burst. This is the model the system simulator uses; the
    /// uncapped variants above are the most pessimistic readings.
    #[must_use]
    pub fn access_delay_preemptible(
        &self,
        now: Cycle,
        line_group: u64,
        preemption_window: Cycle,
    ) -> Cycle {
        self.access_delay_for_line(now, line_group)
            .min(preemption_window)
    }

    /// Total number of line refreshes performed by the periodic engine over
    /// `window` cycles (every line, every period — the naive baseline's
    /// refresh count, independent of the data policy's extra actions).
    #[must_use]
    pub fn refreshes_in(&self, window: Cycle) -> u64 {
        let lines = self.groups * self.lines_per_group;
        lines * window.div_span(self.retention)
    }
}

/// Contention model for Refrint sentry interrupts.
///
/// Sentry interrupts are serviced one line per cycle with priority over plain
/// requests. The expected number of pending interrupts when an access arrives
/// equals the refresh utilisation of the cache (refreshes per cycle), which is
/// far below one for realistic retention times. We accumulate that utilisation
/// deterministically and charge a whole stall cycle each time it reaches one,
/// so long simulations converge to the expected penalty without randomness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RefrintContention {
    accumulated: f64,
    total_stalls: u64,
}

impl RefrintContention {
    /// Creates a contention accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `refreshes` interrupt services occurred somewhere in a
    /// window of `window` cycles, and returns the stall cycles to charge to
    /// the access that observed them.
    pub fn charge(&mut self, refreshes: u64, window: Cycle) -> Cycle {
        if window == Cycle::ZERO || refreshes == 0 {
            return Cycle::ZERO;
        }
        // An access overlaps a 1-cycle interrupt service with probability
        // `refreshes / window`; accumulate and emit whole cycles.
        self.accumulated += refreshes as f64 / window.raw() as f64;
        if self.accumulated >= 1.0 {
            let whole = self.accumulated.floor();
            self.accumulated -= whole;
            let stalls = whole as u64;
            self.total_stalls += stalls;
            Cycle::new(stalls)
        } else {
            Cycle::ZERO
        }
    }

    /// Total stall cycles charged so far.
    #[must_use]
    pub fn total_stalls(&self) -> u64 {
        self.total_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_blocking_fraction_at_50us() {
        // DL1: 4 groups of 128 lines, 50_000-cycle retention.
        let m = PeriodicBurstModel::new(Cycle::new(50_000), 4, 128);
        assert!((m.blocked_fraction() - 512.0 / 50_000.0).abs() < 1e-12);
        assert_eq!(m.burst_spacing(), Cycle::new(12_500));
        assert_eq!(m.burst_length(), Cycle::new(128));
    }

    #[test]
    fn access_delay_inside_and_outside_bursts() {
        let m = PeriodicBurstModel::new(Cycle::new(1_000), 2, 100);
        // Burst spacing 500, burst length 100. At cycle 0 a burst starts.
        assert_eq!(m.access_delay(Cycle::new(0)), Cycle::new(100));
        assert_eq!(m.access_delay(Cycle::new(40)), Cycle::new(60));
        assert_eq!(m.access_delay(Cycle::new(99)), Cycle::new(1));
        assert_eq!(m.access_delay(Cycle::new(100)), Cycle::ZERO);
        assert_eq!(m.access_delay(Cycle::new(499)), Cycle::ZERO);
        // Second burst starts at 500.
        assert_eq!(m.access_delay(Cycle::new(500)), Cycle::new(100));
        assert_eq!(m.access_delay(Cycle::new(560)), Cycle::new(40));
        // Next period.
        assert_eq!(m.access_delay(Cycle::new(1000)), Cycle::new(100));
    }

    #[test]
    fn average_delay_matches_expectation() {
        let m = PeriodicBurstModel::new(Cycle::new(10_000), 4, 250);
        let total: u64 = (0..10_000u64)
            .map(|c| m.access_delay(Cycle::new(c)).raw())
            .sum();
        let avg = total as f64 / 10_000.0;
        // Expected: blocked fraction 0.1, mean residual wait ~ (250+1)/2 within
        // a burst -> average over all cycles ~ 12.5.
        assert!((avg - 12.5).abs() < 0.5, "avg = {avg}");
    }

    #[test]
    fn group_targeted_delay_only_hits_the_busy_subarray() {
        let m = PeriodicBurstModel::new(Cycle::new(1_000), 2, 100);
        // Burst 0 runs over cycles 0..100, burst 1 over 500..600.
        assert_eq!(m.group_in_refresh(Cycle::new(50)), Some(0));
        assert_eq!(m.group_in_refresh(Cycle::new(550)), Some(1));
        assert_eq!(m.group_in_refresh(Cycle::new(300)), None);
        // An access to group 0 at cycle 40 waits; group 1 does not.
        assert_eq!(m.access_delay_for_line(Cycle::new(40), 0), Cycle::new(60));
        assert_eq!(m.access_delay_for_line(Cycle::new(40), 1), Cycle::ZERO);
        // And vice versa during the second burst.
        assert_eq!(m.access_delay_for_line(Cycle::new(520), 1), Cycle::new(80));
        assert_eq!(m.access_delay_for_line(Cycle::new(520), 0), Cycle::ZERO);
        // Outside any burst nobody waits.
        assert_eq!(m.access_delay_for_line(Cycle::new(300), 0), Cycle::ZERO);
    }

    #[test]
    fn preemptible_delay_is_capped() {
        let m = PeriodicBurstModel::new(Cycle::new(50_000), 4, 4096);
        // At cycle 0 sub-array 0's burst has 4096 cycles left, but a demand
        // access only waits for the preemption window.
        assert_eq!(
            m.access_delay_preemptible(Cycle::ZERO, 0, Cycle::new(256)),
            Cycle::new(256)
        );
        // Near the end of the burst the true remaining time is shorter than
        // the window, so the smaller value wins.
        assert_eq!(
            m.access_delay_preemptible(Cycle::new(4_000), 0, Cycle::new(256)),
            Cycle::new(96)
        );
        // Other sub-arrays never wait.
        assert_eq!(
            m.access_delay_preemptible(Cycle::ZERO, 1, Cycle::new(256)),
            Cycle::ZERO
        );
    }

    #[test]
    fn group_targeted_delay_is_never_larger_than_whole_cache_delay() {
        let m = PeriodicBurstModel::new(Cycle::new(10_000), 4, 250);
        for c in 0..10_000u64 {
            for g in 0..4u64 {
                assert!(m.access_delay_for_line(Cycle::new(c), g) <= m.access_delay(Cycle::new(c)));
            }
        }
    }

    #[test]
    fn refreshes_in_window() {
        let m = PeriodicBurstModel::new(Cycle::new(1_000), 4, 100);
        assert_eq!(m.refreshes_in(Cycle::new(10_000)), 400 * 10);
        assert_eq!(m.refreshes_in(Cycle::new(999)), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the period")]
    fn overcommitted_refresh_panics() {
        let _ = PeriodicBurstModel::new(Cycle::new(100), 4, 100);
    }

    #[test]
    fn contention_accumulates_to_expected_rate() {
        let mut c = RefrintContention::new();
        // 500 refreshes per 50_000-cycle window, charged 1000 times:
        // expected stalls = 1000 * 0.01 = 10.
        let mut total = Cycle::ZERO;
        for _ in 0..1000 {
            total += c.charge(500, Cycle::new(50_000));
        }
        assert_eq!(total, Cycle::new(10));
        assert_eq!(c.total_stalls(), 10);
    }

    #[test]
    fn contention_zero_cases() {
        let mut c = RefrintContention::new();
        assert_eq!(c.charge(0, Cycle::new(100)), Cycle::ZERO);
        assert_eq!(c.charge(10, Cycle::ZERO), Cycle::ZERO);
        assert_eq!(c.total_stalls(), 0);
    }
}
