//! The simulated clock and execution phases.
//!
//! Every cost in the simulator — CPU work, memory latency, bandwidth-limited
//! transfers, garbage-collection pauses — advances a single simulated clock.
//! Costs are attributed to a *phase* so that the evaluation can reproduce the
//! paper's mutator/GC time breakdown (Figure 5).

use std::fmt;

/// What the simulated machine is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Application (Spark task) execution, including allocation fast paths.
    #[default]
    Mutator,
    /// A young-generation (minor) collection.
    MinorGc,
    /// A full-heap (major) collection.
    MajorGc,
}

impl Phase {
    /// All phases in a fixed order (useful for per-phase tables).
    pub const ALL: [Phase; 3] = [Phase::Mutator, Phase::MinorGc, Phase::MajorGc];

    /// Index into a three-element per-phase table.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Mutator => 0,
            Phase::MinorGc => 1,
            Phase::MajorGc => 2,
        }
    }

    /// True for either GC phase.
    #[inline]
    pub fn is_gc(self) -> bool {
        !matches!(self, Phase::Mutator)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Mutator => write!(f, "mutator"),
            Phase::MinorGc => write!(f, "minor-gc"),
            Phase::MajorGc => write!(f, "major-gc"),
        }
    }
}

/// Whole picoseconds in `ns` nanoseconds, rounded to the nearest (ties to
/// even): the one rounding a price takes on its way into simulated time.
/// Total: a negative or NaN price is 0, and one of 2⁵² ps (75 simulated
/// minutes) or more, already whole, takes the saturating cast.
#[inline]
pub fn ps_of(ns: f64) -> u64 {
    // Past 2⁵² a double has no fraction bits, so adding it rounds `ps`
    // to an integer, which the low mantissa bits then hold.
    const SHIFT: f64 = (1u64 << 52) as f64;
    let ps = ns * 1000.0;
    if (0.0..SHIFT).contains(&ps) {
        (ps + SHIFT).to_bits() - SHIFT.to_bits()
    } else {
        std::hint::cold_path();
        ps as u64
    }
}

/// Nanoseconds in `ps` picoseconds, for events and reports.
#[inline]
pub fn ns_of(ps: u64) -> f64 {
    ps as f64 / 1000.0
}

/// A simulated clock with per-phase elapsed-time attribution, in whole
/// picoseconds: sums are exact, so the phases add up to the total whatever
/// order the charges came in, and the total saturates at `u64::MAX`.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ps: u64,
    phase: Phase,
    phase_ps: [u64; 3],
}

impl SimClock {
    /// A clock at time zero in the mutator phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in picoseconds.
    #[inline]
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> f64 {
        ns_of(self.now_ps)
    }

    /// The currently active phase.
    #[inline]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Switch to `phase`, returning the previous one so callers can restore
    /// it when a nested activity (e.g. a GC triggered mid-allocation) ends.
    pub fn enter_phase(&mut self, phase: Phase) -> Phase {
        std::mem::replace(&mut self.phase, phase)
    }

    /// Advance the clock by `ns` nanoseconds, rounded to whole picoseconds
    /// and attributed to the active phase.
    #[inline]
    pub fn advance(&mut self, ns: f64) {
        self.advance_to(self.now_ps.saturating_add(ps_of(ns)));
    }

    /// Advance the clock to `t_ps` if it is behind, charging the gap to the
    /// active phase; a no-op otherwise (time never rewinds).
    #[inline]
    pub fn advance_to(&mut self, t_ps: u64) {
        if t_ps > self.now_ps {
            self.phase_ps[self.phase.index()] += t_ps - self.now_ps;
            self.now_ps = t_ps;
        }
    }

    /// Total time spent in `phase`, in picoseconds.
    #[inline]
    pub fn phase_ps(&self, phase: Phase) -> u64 {
        self.phase_ps[phase.index()]
    }

    /// Total time spent in `phase`, in nanoseconds.
    #[inline]
    pub fn phase_ns(&self, phase: Phase) -> f64 {
        ns_of(self.phase_ps(phase))
    }

    /// Total time spent in both GC phases, in nanoseconds.
    pub fn gc_ns(&self) -> f64 {
        ns_of(self.phase_ps(Phase::MinorGc) + self.phase_ps(Phase::MajorGc))
    }

    /// Time spent in the mutator phase, in nanoseconds.
    pub fn mutator_ns(&self) -> f64 {
        self.phase_ns(Phase::Mutator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_attributes_to_phase() {
        let mut c = SimClock::new();
        c.advance(10.0);
        let prev = c.enter_phase(Phase::MinorGc);
        assert_eq!(prev, Phase::Mutator);
        c.advance(5.0);
        c.enter_phase(prev);
        c.advance(1.0);
        assert_eq!(c.now_ns(), 16.0);
        assert_eq!(c.mutator_ns(), 11.0);
        assert_eq!(c.phase_ns(Phase::MinorGc), 5.0);
        assert_eq!(c.gc_ns(), 5.0);
    }

    #[test]
    fn phases_sum_to_total() {
        let mut c = SimClock::new();
        for (i, p) in Phase::ALL.iter().enumerate() {
            c.enter_phase(*p);
            c.advance((i + 1) as f64);
        }
        let sum: u64 = Phase::ALL.iter().map(|p| c.phase_ps(*p)).sum();
        assert_eq!(sum, c.now_ps());
    }

    #[test]
    fn ps_of_rounds_to_nearest_even_and_saturates() {
        assert_eq!(ps_of(1.0), 1_000);
        // Nearest, ties to even, exactly as `round_ties_even` rounds the
        // product, on both sides of every half picosecond.
        for i in 0..4_000u32 {
            for ns in [f64::from(i) * 0.000_25, f64::from(i) * 1.000_5e3] {
                assert_eq!(ps_of(ns), (ns * 1000.0).round_ties_even() as u64, "{ns}");
            }
        }
        assert_eq!(ps_of(-1.0), 0);
        assert_eq!(ps_of(f64::NAN), 0);
        assert_eq!(ps_of(1e300), u64::MAX);
        assert_eq!(ps_of(f64::INFINITY), u64::MAX);
        // Either side of the shift's 2⁵² ps edge.
        let edge = (1u64 << 52) as f64 / 1000.0;
        for ns in [edge.next_down(), edge, edge.next_up()] {
            assert_eq!(ps_of(ns), (ns * 1000.0).round_ties_even() as u64, "{ns}");
        }
    }

    #[test]
    fn advance_to_only_moves_forward_and_sums_saturate() {
        let mut c = SimClock::new();
        c.advance_to(5);
        c.enter_phase(Phase::MinorGc);
        c.advance_to(3);
        assert_eq!((c.now_ps(), c.phase_ps(Phase::Mutator)), (5, 5));
        assert_eq!(c.phase_ps(Phase::MinorGc), 0);
        c.advance(1e300);
        c.advance(1e300);
        assert_eq!(c.now_ps(), u64::MAX);
        assert_eq!(c.phase_ps(Phase::MinorGc), u64::MAX - 5);
    }

    #[test]
    fn gc_phases_flagged() {
        assert!(!Phase::Mutator.is_gc());
        assert!(Phase::MinorGc.is_gc());
        assert!(Phase::MajorGc.is_gc());
    }
}
