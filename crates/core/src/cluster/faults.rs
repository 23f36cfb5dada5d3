//! Fault injection at the exchange boundary.
//!
//! [`FaultedExchange`] wraps the real [`Exchange`] and implements the
//! same [`ExchangeClient`] protocol, consulting a [`FaultPlan`] at each
//! rendezvous:
//!
//! - **Crash points** fire at *barrier entry*, before the executor
//!   deposits its clock. Barriers are perfect cuts: every earlier
//!   collective has completed (a gather only returns once all `E`
//!   executors deposited, and a depositor stays blocked until the result
//!   exists), and no later collective has been entered — so a crashed
//!   executor never leaves a half-deposited slot behind, and replaying
//!   the program from the top re-reads exactly the completed prefix.
//! - **Loss points** fire on gathers: the contribution is conceptually
//!   lost once and retransmitted, so the executor's clock is advanced by
//!   the retransmit penalty *before* the (value-identical) deposit. Loss
//!   costs virtual time, never correctness.
//!
//! All bookkeeping is keyed to simulation structure — per-executor,
//! per-kind gather ordinals that span restarts — so the same plan fires
//! the same faults at the same virtual instants under any host-thread
//! budget.

use super::exchange::Exchange;
use panthera_recovery::{FaultPlan, GatherKind};
use sparklet::{
    ActionContrib, ClusterError, Deposit, ExchangeClient, RecoverySlot, ShuffleContrib,
    ShuffleGather,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An [`ExchangeClient`] that injects the faults of a [`FaultPlan`]
/// while delegating the real collective work to the wrapped
/// [`Exchange`].
pub struct FaultedExchange {
    inner: Arc<Exchange>,
    /// Crash points not yet fired. A fired point is consumed so the
    /// restarted executor does not crash again when it replays the same
    /// barrier.
    crashes: Mutex<Vec<(u16, u64)>>,
    /// Loss points, consumed on fire for the same reason.
    losses: Mutex<Vec<(u16, GatherKind, u64)>>,
    /// Per-(executor, kind) gather call counters, spanning restarts.
    ordinals: Mutex<HashMap<(u16, GatherKind), u64>>,
    retransmit_ns: f64,
    /// Per-executor recovery counters, for attributing losses and crash
    /// marks to the executor that experienced them.
    slots: Vec<Arc<RecoverySlot>>,
}

impl std::fmt::Debug for FaultedExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultedExchange")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl FaultedExchange {
    /// Wrap `inner`, injecting the faults of `plan`. `slots[e]` is
    /// executor `e`'s recovery counter block.
    pub fn new(inner: Arc<Exchange>, plan: &FaultPlan, slots: Vec<Arc<RecoverySlot>>) -> Self {
        FaultedExchange {
            inner,
            crashes: Mutex::new(plan.crashes.iter().map(|c| (c.exec, c.barrier)).collect()),
            losses: Mutex::new(
                plan.losses
                    .iter()
                    .map(|l| (l.exec, l.kind, l.ordinal))
                    .collect(),
            ),
            ordinals: Mutex::new(HashMap::new()),
            retransmit_ns: plan.retransmit_penalty_ns,
            slots,
        }
    }

    /// The wrapped exchange (for poisoning and permit management).
    pub fn exchange(&self) -> &Arc<Exchange> {
        &self.inner
    }

    /// Advance `exec`'s gather ordinal for `kind` and, if a loss point
    /// matches it, return the retransmit penalty to add to the clock.
    fn loss_penalty(&self, exec: u16, kind: GatherKind) -> f64 {
        let ordinal = {
            let mut ords = self.ordinals.lock().expect("fault ordinal lock");
            let c = ords.entry((exec, kind)).or_insert(0);
            let o = *c;
            *c += 1;
            o
        };
        let mut losses = self.losses.lock().expect("fault loss lock");
        let hit = losses
            .iter()
            .position(|&(e, k, o)| e == exec && k == kind && o == ordinal);
        match hit {
            Some(i) => {
                losses.swap_remove(i);
                self.slots[usize::from(exec)].with(|c| c.stats.messages_lost += 1);
                self.retransmit_ns
            }
            None => 0.0,
        }
    }
}

impl ExchangeClient for FaultedExchange {
    fn gather_shuffle(
        &self,
        exec: u16,
        rdd: u32,
        deposit: Deposit<ShuffleContrib>,
        clock_ns: f64,
    ) -> Result<(Arc<ShuffleGather>, f64), ClusterError> {
        let penalty = self.loss_penalty(exec, GatherKind::Shuffle);
        self.inner
            .gather_shuffle(exec, rdd, deposit, clock_ns + penalty)
    }

    fn gather_action(
        &self,
        exec: u16,
        seq: u64,
        deposit: Deposit<ActionContrib>,
        clock_ns: f64,
    ) -> Result<(Arc<Vec<ActionContrib>>, f64), ClusterError> {
        let penalty = self.loss_penalty(exec, GatherKind::Action);
        self.inner
            .gather_action(exec, seq, deposit, clock_ns + penalty)
    }

    fn barrier(&self, exec: u16, index: u64, clock_ns: f64) -> Result<f64, ClusterError> {
        let fire = {
            let mut crashes = self.crashes.lock().expect("fault crash lock");
            let hit = crashes.iter().position(|&(e, b)| e == exec && b == index);
            match hit {
                Some(i) => {
                    crashes.swap_remove(i);
                    true
                }
                None => false,
            }
        };
        if fire {
            // Unwind before depositing: the barrier slot stays clean and
            // the survivors keep waiting for the restarted incarnation.
            return Err(ClusterError::InjectedCrash {
                exec,
                barrier: index,
                at_ns: clock_ns,
            });
        }
        self.inner.barrier(exec, index, clock_ns)
    }
}
