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

/// A simulated clock with per-phase elapsed-time attribution.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: f64,
    phase: Phase,
    phase_ns: [f64; 3],
}

impl SimClock {
    /// A clock at time zero in the mutator phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> f64 {
        self.now_ns
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

    /// Advance the clock by `ns` nanoseconds, attributed to the active phase.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `ns` is negative or not finite.
    #[inline]
    pub fn advance(&mut self, ns: f64) {
        debug_assert!(ns.is_finite() && ns >= 0.0, "bad time delta: {ns}");
        self.now_ns += ns;
        self.phase_ns[self.phase.index()] += ns;
    }

    /// Total time spent in `phase`, in nanoseconds.
    #[inline]
    pub fn phase_ns(&self, phase: Phase) -> f64 {
        self.phase_ns[phase.index()]
    }

    /// Total time spent in both GC phases, in nanoseconds.
    pub fn gc_ns(&self) -> f64 {
        self.phase_ns(Phase::MinorGc) + self.phase_ns(Phase::MajorGc)
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
        let sum: f64 = Phase::ALL.iter().map(|p| c.phase_ns(*p)).sum();
        assert_eq!(sum, c.now_ns());
    }

    #[test]
    fn gc_phases_flagged() {
        assert!(!Phase::Mutator.is_gc());
        assert!(Phase::MinorGc.is_gc());
        assert!(Phase::MajorGc.is_gc());
    }
}
