//! The in-process shuffle exchange: a deterministic rendezvous hub.
//!
//! Executors run on host OS threads but interact only through *gathers* —
//! all-to-all collective operations keyed by a value every executor
//! derives from the (shared, deterministic) program structure: the
//! shuffled RDD's id, the action sequence number, or the statement
//! barrier index. Each gather blocks until all `E` executors have
//! deposited their contribution, then hands every participant the same
//! `Arc`-shared result — action partials in executor-id order, a
//! shuffle's map output merged into scan order ([`ShuffleGather`], which
//! also carries the shuffle's build-once key index) — together with the
//! barrier time `t_bar = max` over the participants' virtual clocks. A
//! statement barrier is the same gather over empty contributions: only
//! its `t_bar` is read. Because the result depends only on *what* was
//! deposited (never on deposit order), the exchange is a Kahn network:
//! host scheduling cannot change any simulated value.
//!
//! The exchange also rations *host* parallelism. Each executor thread
//! holds a run permit while it computes; a thread that blocks in a gather
//! returns its permit to the pool so that, even with a single permit,
//! the remaining executors can run and complete the collective. This
//! makes `host_threads = 1` a true serialization of the same computation
//! — used by the determinism checks — without changing any value.
//!
//! # Poisoning
//!
//! A gather can only complete if every executor eventually arrives. When
//! one of them dies instead — a panic in an executor thread, or an
//! injected crash the driver chooses not to recover — every peer blocked
//! in the `Condvar` wait would deadlock forever. [`Exchange::poison`]
//! prevents that: it records the failure and wakes every waiter; every
//! blocked or future rendezvous call then returns the same typed
//! [`ClusterError`] instead of a result, and its executor returns it.
//!
//! A panic under the exchange's lock poisons the `std` mutex, not the
//! exchange: every lock and the one wait recover the guard
//! ([`lock`]), so a peer never panics on it, and only
//! [`Exchange::poison`] stops the run.
//!
//! Permits are accounted *per executor* ([`Exchange::acquire_permit`] /
//! [`Exchange::release_permit`] take the executor id, and the exchange
//! tracks who holds one): handing a permit back is a no-op unless that
//! executor actually holds one, so a thread that returns out of a gather
//! wait — where it had already handed its permit back — cannot over-grant
//! the pool when the driver releases on its behalf, and the accounting
//! stays exact across arbitrarily many crash→restart cycles.
//!
//! # Replay
//!
//! Every gather is idempotent: completed results — statement barriers
//! included — are cached for the lifetime of the run, so a restarted
//! executor replaying the program from the top re-reads every rendezvous
//! it had already completed without blocking and without re-depositing,
//! then deposits live once it passes the crash point. Deposits are
//! *digest-validated*: the exchange records each live contribution's
//! structural digest, and a repeated deposit (a replayed executor
//! re-issuing an operation whose first issue already landed) is accepted
//! as a no-op when the digests match. When they don't, replay has
//! diverged and determinism is broken: the depositor gets a typed
//! [`ClusterError::DivergentDeposit`] and the exchange is poisoned with
//! it, so every peer — blocked or yet to arrive — sees why the run died.

use crate::{
    ActionContrib, ClusterError, Deposit, ShuffleContrib, ShuffleGather, ShuffleTransport,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a thread panicked while holding it.
///
/// Sound for the exchange and the checkpoint store because nothing under
/// either lock can panic halfway through an update: a panic there (an
/// out-of-range executor id, a commit without a begin) fires before the
/// state is touched, so the recovered state is always a consistent one.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One collective gather in flight (or completed and cached): deposits
/// of `T`, merged into an `R` once all have arrived.
struct Slot<T, R> {
    /// Per-executor deposits: `(contribution, clock at deposit in ps)`.
    contribs: Vec<Option<(T, u64)>>,
    /// Structural digest of each executor's live deposit, kept past
    /// finalization (contributions are drained into the result) so a
    /// replayed deposit can be validated against what actually landed.
    digests: Vec<Option<u64>>,
    /// Finalized result, kept for idempotent re-requests (an executor
    /// that evicted and recomputed a shuffled RDD gathers it again, and a
    /// restarted executor replays every completed gather).
    result: Option<(Arc<R>, u64)>,
}

impl<T, R> Slot<T, R> {
    fn new(n: usize) -> Self {
        Slot {
            contribs: (0..n).map(|_| None).collect(),
            digests: vec![None; n],
            result: None,
        }
    }
}

struct ExState {
    /// Host-thread run permits currently available.
    permits_free: usize,
    /// Which executors currently hold a run permit. Exact bookkeeping —
    /// a release for an executor that holds nothing is a no-op — so
    /// crash→restart cycles and returns out of gather waits can never
    /// over-grant the pool or strand a waiter.
    holders: Vec<bool>,
    /// First failure, if the exchange has been poisoned.
    poisoned: Option<ClusterError>,
    /// Shuffle gathers keyed by the shuffled RDD's id.
    shuffles: HashMap<u32, Slot<ShuffleContrib, ShuffleGather>>,
    /// Action gathers keyed by the action sequence number.
    actions: HashMap<u64, Slot<ActionContrib, Vec<ActionContrib>>>,
    /// Statement barriers keyed by the barrier index: gathers of empty
    /// contributions, of which only `t_bar` is read.
    barriers: HashMap<u64, Slot<(), Vec<()>>>,
    /// Total modelled bytes deposited into the shared shuffle region
    /// (0 under the serde transport). Deposits are packed
    /// `mheap::WireBatch`es whose texts are intern-table symbols, so peers
    /// read them in place — this counter is the whole "transfer": no
    /// serialization, no per-record wire copies. It is the sum of what
    /// each batch tallied while it was encoded.
    shared_region_bytes: u64,
}

impl ExState {
    /// Take a run permit for executor `e` (the caller saw one free).
    fn take_permit(&mut self, e: usize) {
        self.permits_free -= 1;
        self.holders[e] = true;
    }

    /// Hand executor `e`'s run permit back, if it holds one.
    fn return_permit(&mut self, e: usize) {
        if std::mem::replace(&mut self.holders[e], false) {
            self.permits_free += 1;
        }
    }
}

/// The shared exchange for one cluster run: `E` executors, a bounded pool
/// of host-thread run permits, and the collective state behind one lock.
pub struct Exchange {
    n_exec: usize,
    /// How map-side shuffle output reaches reducers: per-record serde over
    /// the simulated network, or in-place deposits into a shared memory
    /// region charged at memory bandwidth (DESIGN.md §10).
    transport: ShuffleTransport,
    state: Mutex<ExState>,
    cv: Condvar,
}

impl std::fmt::Debug for Exchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Exchange")
            .field("n_exec", &self.n_exec)
            .finish_non_exhaustive()
    }
}

impl Exchange {
    /// An exchange for `n_exec` executors with `host_threads` run
    /// permits. `host_threads` is clamped to `1..=n_exec`; it bounds how
    /// many executors *compute* concurrently and has no effect on any
    /// simulated value. Under [`ShuffleTransport::SharedRegion`] the
    /// exchange additionally accounts every map-side deposit's modelled
    /// bytes as shared-region residency
    /// ([`Exchange::shared_region_bytes`]); the rendezvous protocol and
    /// every gathered value are identical under both transports — only
    /// the engine-side cost charge differs.
    pub fn new(n_exec: u16, host_threads: usize, transport: ShuffleTransport) -> Arc<Exchange> {
        let n = usize::from(n_exec.max(1));
        Arc::new(Exchange {
            n_exec: n,
            transport,
            state: Mutex::new(ExState {
                permits_free: host_threads.clamp(1, n),
                holders: vec![false; n],
                poisoned: None,
                shuffles: HashMap::new(),
                actions: HashMap::new(),
                barriers: HashMap::new(),
                shared_region_bytes: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Total modelled bytes deposited into the shared shuffle region over
    /// the run. Always 0 under [`ShuffleTransport::Serde`]. Deposits are
    /// counted once per live gather contribution (idempotent re-reads and
    /// replay re-traversals deposit nothing, so they add nothing).
    pub fn shared_region_bytes(&self) -> u64 {
        lock(&self.state).shared_region_bytes
    }

    /// `(indexed, gathered)`: how many completed shuffle gathers the
    /// exchange holds, and how many of them carry their key index. A
    /// gather is kept — index and all — for the whole run, so a shuffle
    /// is gathered and indexed once however many executors and replaying
    /// incarnations read it (diagnostic).
    pub fn shuffle_index_builds(&self) -> (u64, u64) {
        let st = lock(&self.state);
        let done = st.shuffles.values().filter_map(|s| s.result.as_ref());
        done.fold((0, 0), |(indexed, gathered), (g, _)| {
            (indexed + u64::from(g.is_indexed()), gathered + 1)
        })
    }

    /// Host bytes of packed records the exchange holds on to: the batches
    /// of every completed shuffle and action gather, which stay for the
    /// whole run as replay state (key indexes not included). A sum of
    /// buffer lengths — deterministic, and the same however many
    /// incarnations re-read the gathers (diagnostic).
    pub fn retained_bytes(&self) -> u64 {
        let st = lock(&self.state);
        let shuffles = st.shuffles.values().filter_map(|s| s.result.as_ref());
        let actions = st.actions.values().filter_map(|s| s.result.as_ref());
        shuffles.map(|(g, _)| g.host_bytes()).sum::<u64>()
            + actions
                .flat_map(|(partials, _)| partials.iter())
                .map(ActionContrib::host_bytes)
                .sum::<u64>()
    }

    /// Poison the exchange: record `err` as the run's failure (first
    /// poisoner wins) and wake everyone. Every executor blocked in — or
    /// later entering — a collective observes the recorded error instead
    /// of deadlocking; the wait checks poison *before* permits, so the
    /// pool needs no flooding and stays exactly accounted.
    ///
    /// Never panics, even on a lock a panicking thread left poisoned: a
    /// panicking executor calls this while it unwinds.
    pub fn poison(&self, err: ClusterError) {
        self.poison_locked(&mut lock(&self.state), err);
    }

    fn poison_locked(&self, st: &mut ExState, err: ClusterError) {
        if st.poisoned.is_none() {
            st.poisoned = Some(err);
        }
        self.cv.notify_all();
    }

    /// The failure the exchange was poisoned with, if any.
    pub fn poison_cause(&self) -> Option<ClusterError> {
        lock(&self.state).poisoned.clone()
    }

    /// Block until a run permit is free and take it for executor `exec`.
    /// Called by each executor incarnation before it starts computing.
    /// Fails instead of blocking if the exchange is poisoned. If `exec`
    /// already holds a permit — an incarnation acquired twice, which would
    /// deadlock a single-permit pool — fails with
    /// [`ClusterError::PermitHeld`] and poisons the exchange with it; the
    /// permit it holds stays held.
    pub fn acquire_permit(&self, exec: u16) -> Result<(), ClusterError> {
        let mut st = lock(&self.state);
        if st.holders[usize::from(exec)] {
            let err = ClusterError::PermitHeld { exec };
            self.poison_locked(&mut st, err.clone());
            return Err(err);
        }
        self.wait_for(st, exec, |_| Some(()))
    }

    /// Return executor `exec`'s run permit to the pool, if it holds one.
    /// Called by the driver after each incarnation returns, done or
    /// stopped. A no-op when the executor holds nothing — it died inside
    /// a gather wait, where the permit had already been handed back — so
    /// repeated crash→restart cycles keep the pool exact.
    pub fn release_permit(&self, exec: u16) {
        lock(&self.state).return_permit(usize::from(exec));
        self.cv.notify_all();
    }

    /// Run permits currently available (test/diagnostic hook — the pool
    /// must return to its configured size once every executor is done).
    pub fn permits_free(&self) -> usize {
        lock(&self.state).permits_free
    }

    /// Contribute to (or re-read) the gather for shuffle node `rdd`.
    pub fn gather_shuffle(
        &self,
        exec: u16,
        rdd: u32,
        deposit: Deposit<ShuffleContrib>,
        clock_ps: u64,
    ) -> Result<(Arc<ShuffleGather>, u64), ClusterError> {
        self.gather(|st| &mut st.shuffles, rdd, exec, deposit, clock_ps)
    }

    /// Contribute to (or re-read) the gather for the `seq`-th action.
    pub fn gather_action(
        &self,
        exec: u16,
        seq: u64,
        deposit: Deposit<ActionContrib>,
        clock_ps: u64,
    ) -> Result<(Arc<Vec<ActionContrib>>, u64), ClusterError> {
        self.gather(|st| &mut st.actions, seq, exec, deposit, clock_ps)
    }

    /// Statement barrier `index`: a gather of empty contributions, all
    /// with one digest. Blocks until every executor arrives and returns
    /// the barrier clock, in picoseconds.
    pub fn barrier(&self, exec: u16, index: u64, clock_ps: u64) -> Result<u64, ClusterError> {
        let arrival = Deposit {
            contrib: (),
            digest: 0,
            bytes: 0,
        };
        let (_, t_bar) = self.gather(|st| &mut st.barriers, index, exec, arrival, clock_ps)?;
        Ok(t_bar)
    }

    /// The one gather protocol, for shuffles, actions and barriers.
    ///
    /// The caller holds a run permit. If the slot already has a result
    /// (an idempotent re-request), validate the caller's digest against
    /// what it originally deposited (if it deposited at all) and serve
    /// the cached result. Otherwise deposit; the last depositor finalizes
    /// (contributions in executor-id order, `t_bar = max` clock) and
    /// returns still holding its permit. A non-final depositor returns
    /// its permit to the pool, waits for the result, then re-acquires a
    /// permit before resuming.
    ///
    /// A repeated deposit into a *live* slot (the caller's contribution
    /// is present but the gather has not completed) is a no-op when the
    /// digests match: the original deposit — and its clock — stands, and
    /// the caller proceeds to the wait. A digest mismatch in either case
    /// is [`ClusterError::DivergentDeposit`] — replay re-issued a
    /// different payload than the original timeline produced, so
    /// determinism is broken — returned to the caller and poisoned into
    /// the exchange for everyone else.
    ///
    /// The deposit's digest and modelled bytes come with it, computed
    /// once by the depositor. The bytes — its shared-region footprint —
    /// are added to the region counter under
    /// [`ShuffleTransport::SharedRegion`] only, and only when a live
    /// deposit actually happens (never on cached re-reads or validated
    /// duplicates), under the same lock acquisition as the deposit.
    fn gather<K, T, R>(
        &self,
        select: impl Fn(&mut ExState) -> &mut HashMap<K, Slot<T, R>>,
        key: K,
        exec: u16,
        deposit: Deposit<T>,
        clock_ps: u64,
    ) -> Result<(Arc<R>, u64), ClusterError>
    where
        K: Eq + Hash + Copy,
        R: From<Vec<T>>,
    {
        let Deposit {
            contrib,
            digest,
            bytes,
        } = deposit;
        let mut st = lock(&self.state);
        if let Some(err) = &st.poisoned {
            return Err(err.clone());
        }
        let n = self.n_exec;
        let e = usize::from(exec);
        let slot = select(&mut st).entry(key).or_insert_with(|| Slot::new(n));
        if let Some(landed) = slot.digests[e].filter(|&landed| landed != digest) {
            let err = ClusterError::DivergentDeposit {
                exec,
                landed,
                replayed: digest,
            };
            self.poison_locked(&mut st, err.clone());
            return Err(err);
        }
        if let Some((res, t_bar)) = &slot.result {
            return Ok((Arc::clone(res), *t_bar));
        }
        // A live duplicate changes nothing: the first deposit (and its
        // clock) stands.
        let deposited = slot.digests[e].is_none();
        if deposited {
            slot.contribs[e] = Some((contrib, clock_ps));
            slot.digests[e] = Some(digest);
        }
        let finalized = if slot.contribs.iter().all(Option::is_some) {
            let (items, clocks): (Vec<T>, Vec<u64>) = slot.contribs.drain(..).flatten().unzip();
            let t_bar = clocks.into_iter().max().unwrap_or(0);
            let res = Arc::new(R::from(items));
            slot.result = Some((Arc::clone(&res), t_bar));
            Some((res, t_bar))
        } else {
            None
        };
        if deposited && self.transport == ShuffleTransport::SharedRegion {
            st.shared_region_bytes += bytes;
        }
        self.cv.notify_all();
        if let Some(done) = finalized {
            return Ok(done);
        }
        // Not complete yet: hand the permit back so peers can run even
        // under a single-permit host budget, and wait for the result.
        st.return_permit(e);
        self.wait_for(st, exec, |st| {
            select(st).get(&key).and_then(|s| s.result.clone())
        })
    }

    /// The one wait: block until the exchange is poisoned — its error is
    /// returned — or until `ready` yields a value while a run permit is
    /// free, which executor `exec` then takes.
    fn wait_for<V>(
        &self,
        mut st: MutexGuard<'_, ExState>,
        exec: u16,
        ready: impl Fn(&mut ExState) -> Option<V>,
    ) -> Result<V, ClusterError> {
        loop {
            if let Some(err) = &st.poisoned {
                return Err(err.clone());
            }
            if st.permits_free > 0 {
                if let Some(v) = ready(&mut st) {
                    st.take_permit(usize::from(exec));
                    return Ok(v);
                }
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that dies instead of arriving must not strand waiters in
    /// the condvar forever. Poisoning wakes the blocked executor with a
    /// typed error.
    #[test]
    fn poison_wakes_blocked_barrier_waiter() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        let ex2 = Arc::clone(&ex);
        ex.acquire_permit(0).unwrap();
        let waiter = std::thread::spawn(move || ex2.barrier(0, 0, 1));
        // Give the waiter time to deposit and block, then poison instead
        // of arriving as executor 1.
        while lock(&ex.state).barriers.is_empty() {
            std::thread::yield_now();
        }
        ex.poison(ClusterError::Poisoned {
            exec: 1,
            reason: "synthetic failure".into(),
        });
        let got = waiter.join().expect("waiter must not deadlock or panic");
        assert_eq!(
            got,
            Err(ClusterError::Poisoned {
                exec: 1,
                reason: "synthetic failure".into(),
            })
        );
    }

    /// Every rendezvous entered after poisoning fails fast, too.
    #[test]
    fn poisoned_exchange_rejects_new_collectives() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        ex.poison(ClusterError::Poisoned {
            exec: 0,
            reason: "gone".into(),
        });
        assert!(ex.barrier(1, 7, 0).is_err());
        assert!(ex
            .gather_action(1, 0, ActionContrib::Count(1).into(), 0)
            .is_err());
        assert!(ex.acquire_permit(1).is_err());
        assert!(ex.poison_cause().is_some());
    }

    /// Completed barriers are cached: a replaying executor re-traverses
    /// them without blocking and without depositing again.
    #[test]
    fn completed_barriers_serve_replays_from_cache() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        let ex2 = Arc::clone(&ex);
        let peer = std::thread::spawn(move || ex2.barrier(1, 0, 5).unwrap());
        ex.acquire_permit(0).unwrap();
        let t0 = ex.barrier(0, 0, 3).unwrap();
        assert_eq!(peer.join().unwrap(), 5);
        assert_eq!(t0, 5);
        // Replay: same executor, same barrier — served, not deposited.
        assert_eq!(ex.barrier(0, 0, 99).unwrap(), 5);
    }

    /// A barrier is a gather, so a live duplicate arrival is the no-op it
    /// is for any gather: the first arrival's clock stands.
    #[test]
    fn live_duplicate_barrier_arrival_is_a_noop() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        let arrive = |clock_ps| {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || ex.barrier(0, 0, clock_ps))
        };
        let first = arrive(1);
        while lock(&ex.state).barriers.is_empty() {
            std::thread::yield_now();
        }
        let duplicate = arrive(9);
        assert_eq!(ex.barrier(1, 0, 2), Ok(2));
        assert_eq!(first.join().unwrap(), Ok(2));
        assert_eq!(duplicate.join().unwrap(), Ok(2));
    }

    /// The permit pool stays exact across crash→restart cycles: a release
    /// for an executor that holds nothing (it died inside a gather wait,
    /// or the driver releases defensively after an error) is a no-op, so
    /// the pool can never grow past its configured size.
    #[test]
    fn release_without_hold_cannot_over_grant_permits() {
        let ex = Exchange::new(3, 2, ShuffleTransport::Serde);
        assert_eq!(ex.permits_free(), 2);
        ex.acquire_permit(0).unwrap();
        assert_eq!(ex.permits_free(), 1);
        // Many defensive releases for executors that hold nothing.
        for _ in 0..5 {
            ex.release_permit(1);
            ex.release_permit(2);
        }
        assert_eq!(ex.permits_free(), 1, "no-op releases must not mint permits");
        // Double release by the holder is also counted once.
        ex.release_permit(0);
        ex.release_permit(0);
        assert_eq!(ex.permits_free(), 2);
        // Repeated crash→restart cycles: acquire/release per incarnation.
        for _ in 0..10 {
            ex.acquire_permit(1).unwrap();
            ex.release_permit(1);
        }
        assert_eq!(ex.permits_free(), 2, "pool returns to its configured size");
    }

    /// A panic under the lock that nobody answers with `poison` leaves the
    /// `std` mutex poisoned but not the exchange: every later call
    /// recovers the guard and goes on as if nothing happened.
    #[test]
    fn a_panic_under_the_lock_is_not_a_peers_panic() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        let ex2 = Arc::clone(&ex);
        let holder = std::thread::spawn(move || {
            let _st = lock(&ex2.state);
            panic!("a thread panicked under the exchange lock");
        });
        assert!(holder.join().is_err());
        assert!(ex.state.is_poisoned());
        ex.acquire_permit(0).unwrap();
        assert_eq!(ex.permits_free(), 1);
        let ex2 = Arc::clone(&ex);
        let peer = std::thread::spawn(move || ex2.barrier(1, 0, 4));
        assert_eq!(ex.barrier(0, 0, 2), Ok(4));
        assert_eq!(peer.join().unwrap(), Ok(4));
        assert_eq!(ex.shared_region_bytes(), 0);
        assert_eq!(ex.retained_bytes(), 0);
        assert_eq!(ex.poison_cause(), None);
    }

    /// A panic under the exchange lock poisons the `std` mutex. A
    /// panicking executor still poisons the exchange while it unwinds —
    /// a second panic there would abort the process — and a peer's next
    /// collective returns the typed error instead of panicking too.
    #[test]
    fn poison_survives_a_panic_under_the_lock() {
        let ex = Exchange::new(2, 1, ShuffleTransport::Serde);
        let ex2 = Arc::clone(&ex);
        let holder = std::thread::spawn(move || {
            let _st = lock(&ex2.state);
            panic!("executor 0 panicked under the exchange lock");
        });
        assert!(holder.join().is_err());
        assert!(ex.state.is_poisoned());
        let err = ClusterError::Poisoned {
            exec: 0,
            reason: "executor panicked".into(),
        };
        ex.poison(err.clone());
        assert_eq!(ex.barrier(1, 0, 0), Err(err));
    }

    /// Acquiring a permit the executor already holds is a typed error, not
    /// a panic under the lock: the caller gets `PermitHeld`, the exchange
    /// is poisoned with it for every peer, and the pool is not touched.
    #[test]
    fn double_acquire_is_a_typed_error() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        ex.acquire_permit(0).unwrap();
        let expect = ClusterError::PermitHeld { exec: 0 };
        assert_eq!(ex.acquire_permit(0), Err(expect.clone()));
        assert!(expect.to_string().contains("executor 0"));
        assert_eq!(ex.permits_free(), 1, "the held permit stays held");
        assert_eq!(ex.poison_cause(), Some(expect.clone()));
        assert_eq!(ex.acquire_permit(1), Err(expect));
        ex.release_permit(0);
        assert_eq!(ex.permits_free(), 2);
    }

    /// Poisoning no longer floods the permit pool: waiters are woken by
    /// the poison error itself, and the pool stays exactly accounted so a
    /// later inspection sees the true state.
    #[test]
    fn poison_preserves_permit_accounting() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        ex.acquire_permit(0).unwrap();
        ex.poison(ClusterError::Poisoned {
            exec: 1,
            reason: "gone".into(),
        });
        assert_eq!(ex.permits_free(), 1, "poison must not mint permits");
        ex.release_permit(0);
        assert_eq!(ex.permits_free(), 2);
    }

    /// A replayed deposit with an identical payload is a validated no-op:
    /// the original deposit's clock stands (the barrier time does not
    /// move), and the duplicate adds no shared-region bytes.
    #[test]
    fn duplicate_deposit_with_equal_digest_is_noop() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        let ex2 = Arc::clone(&ex);
        let peer =
            std::thread::spawn(move || ex2.gather_action(1, 0, ActionContrib::Count(10).into(), 7));
        ex.acquire_permit(0).unwrap();
        let (res, t_bar) = ex
            .gather_action(0, 0, ActionContrib::Count(5).into(), 3)
            .unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(t_bar, 7);
        peer.join().unwrap().unwrap();
        // Replay the same deposit with a *different* clock: served from
        // cache, digest-validated, clock ignored.
        let (res2, t2) = ex
            .gather_action(0, 0, ActionContrib::Count(5).into(), 99)
            .unwrap();
        assert_eq!(t2, 7, "the original deposit's clock stands");
        assert_eq!(res2.len(), 2);
    }

    /// A replayed deposit whose payload diverges from what landed is a
    /// determinism violation: the depositor gets the typed error (not a
    /// panic under the lock, which used to poison the mutex itself), and
    /// the exchange stays usable enough to tell everyone else the same.
    #[test]
    fn duplicate_deposit_with_divergent_digest_is_a_typed_error() {
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        let ex2 = Arc::clone(&ex);
        let peer =
            std::thread::spawn(move || ex2.gather_action(1, 0, ActionContrib::Count(10).into(), 7));
        ex.acquire_permit(0).unwrap();
        ex.gather_action(0, 0, ActionContrib::Count(5).into(), 3)
            .unwrap();
        peer.join().unwrap().unwrap();
        let landed = ActionContrib::Count(5).digest();
        let replayed = ActionContrib::Count(6).digest();
        let expect = ClusterError::DivergentDeposit {
            exec: 0,
            landed,
            replayed,
        };
        let got = ex.gather_action(0, 0, ActionContrib::Count(6).into(), 3);
        assert_eq!(got.unwrap_err(), expect);
        assert!(expect.to_string().contains("divergent payload"));
        // Poisoned with the same value: later collectives report it too.
        assert_eq!(ex.poison_cause(), Some(expect.clone()));
        assert_eq!(ex.barrier(1, 0, 0), Err(expect));
    }

    /// A peer blocked in the same (live) gather wakes with the typed
    /// error as well, instead of dying on a poisoned mutex. Executor 1's
    /// first incarnation deposited and is gone (here: still parked in the
    /// wait, which changes nothing); its replay re-deposits differently
    /// while executor 0 waits for executor 2.
    #[test]
    fn divergent_live_deposit_wakes_the_blocked_peer_with_the_same_error() {
        let ex = Exchange::new(3, 3, ShuffleTransport::Serde);
        let waiters: Vec<_> = (0..2u16)
            .map(|exec| {
                ex.acquire_permit(exec).unwrap();
                let ex = Arc::clone(&ex);
                std::thread::spawn(move || {
                    ex.gather_action(exec, 0, ActionContrib::Count(1).into(), 1)
                })
            })
            .collect();
        // Both have deposited once their digests are on the slot; from
        // then on they can only be waiting (executor 2 never arrives).
        let both_deposited = |st: &ExState| {
            st.actions
                .get(&0)
                .is_some_and(|s| s.digests[0].is_some() && s.digests[1].is_some())
        };
        while !both_deposited(&lock(&ex.state)) {
            std::thread::yield_now();
        }
        let got = ex.gather_action(1, 0, ActionContrib::Count(2).into(), 1);
        let expect = ClusterError::DivergentDeposit {
            exec: 1,
            landed: ActionContrib::Count(1).digest(),
            replayed: ActionContrib::Count(2).digest(),
        };
        assert_eq!(got.unwrap_err(), expect);
        for w in waiters {
            let woken = w.join().expect("a blocked peer must not panic");
            assert_eq!(woken.unwrap_err(), expect);
        }
    }

    /// One gather, one index: every executor — and a replaying
    /// incarnation re-reading the completed gather — gets the same
    /// `Arc`, so the `OnceLock` inside it is filled exactly once.
    #[test]
    fn every_reader_of_a_shuffle_gather_shares_one_index() {
        use mheap::{Payload, WireBatch};
        use sparklang::Transform;
        let contrib = |exec: u16| -> Deposit<ShuffleContrib> {
            let records: Vec<Payload> = (0..8)
                .map(|i| Payload::keyed(i % 3, Payload::Long(i)))
                .collect();
            ShuffleContrib {
                left: vec![(u64::from(exec), WireBatch::encode(&records))],
                right: None,
            }
            .into()
        };
        let ex = Exchange::new(2, 2, ShuffleTransport::Serde);
        let ex2 = Arc::clone(&ex);
        let peer = std::thread::spawn(move || ex2.gather_shuffle(1, 9, contrib(1), 2).unwrap());
        ex.acquire_permit(0).unwrap();
        let (g0, _) = ex.gather_shuffle(0, 9, contrib(0), 1).unwrap();
        let (g1, _) = peer.join().unwrap();
        let (replayed, _) = ex.gather_shuffle(1, 9, contrib(1), 50).unwrap();
        assert!(Arc::ptr_eq(&g0, &g1) && Arc::ptr_eq(&g0, &replayed));
        assert_eq!(ex.shuffle_index_builds(), (0, 1), "built lazily");
        let t = Transform::GroupByKey;
        assert!(std::ptr::eq(
            g0.key_index(&t).unwrap(),
            replayed.key_index(&t).unwrap()
        ));
        assert_eq!(g1.key_index(&t).unwrap().n_keys(), 3);
        assert_eq!(ex.shuffle_index_builds(), (1, 1));
        // Two deposits of 8 (Long, Long) pairs: 5 words and one offset
        // each, however often the gather is re-read.
        assert_eq!(ex.retained_bytes(), 2 * 8 * (5 * 8 + 4));
    }
}
