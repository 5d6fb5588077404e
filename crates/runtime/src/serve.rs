//! The session scheduler: bounded admission, parallel epochs, a
//! deterministic decision barrier, and a contained failure domain.
//!
//! [`serve`] (and its warm-starting variants [`serve_with`] and
//! [`serve_warm`]) drives every tenant through three stages:
//!
//! 1. **Admission** — tenants arrive (at round zero, or staggered by a
//!    churn schedule) in id order into a bounded queue
//!    (`queue_capacity`); at most `max_active` sessions run
//!    concurrently. A full queue defers arrivals — the backpressure
//!    the [`QueueStats`](crate::QueueStats) expose. A zero-capacity
//!    queue means "no buffering": arrivals are admitted directly up to
//!    `max_active` and the rest stay deferred. Under sustained
//!    overload an optional admission timeout *sheds* waiting arrivals:
//!    they are pushed back out and retry after an exponential backoff,
//!    so the queue never silently grows a convoy.
//! 2. **Rounds** — each round runs one epoch of every active session,
//!    fanned out over `jobs` scoped worker threads. Sessions only
//!    touch their own simulator and publish commutative occupancy
//!    updates to the shared map, so worker scheduling cannot affect
//!    any result. Every epoch runs inside a panic boundary: a session
//!    that panics (or that poisoned its lock) is *quarantined* at the
//!    next barrier — taken out of rotation with its partial metrics
//!    kept — instead of killing the serve.
//! 3. **Barrier** — with the workers joined, all cross-tenant
//!    decisions happen serially in deterministic order: contention and
//!    peak accounting, quarantine, departures and churn events
//!    (finished, disconnecting, and crashing tenants release their
//!    shard bytes; disconnects checkpoint first, crashes rewind to
//!    their last checkpoint), shard-pressure eviction (each
//!    overflowing shard plans its whole victim set, then applies it
//!    with one eviction pass per victim tenant: without sharing, the
//!    heaviest tenant sheds the oldest half of its regions there —
//!    with utility eviction, the tenant with the most bytes per
//!    recent cached instruction sheds its coldest half — repeatedly,
//!    until the shard fits), per-tenant policy decisions, and
//!    periodic checkpoints.
//!
//! In code each round is one call per phase on the scheduler, in this
//! order: `arrive`, `admit`, `execute` (the only parallel phase),
//! `depart`, `relieve_pressure`, `decide`, and `checkpoint`; `finish`
//! assembles the reports. Everything the scheduler knows about one
//! tenant lives in one record, so a per-tenant field is added in one
//! place.
//!
//! # Churn and chaos
//!
//! A [`ChurnConfig`] turns the static population into seeded traffic:
//! staggered arrivals, graceful mid-run disconnects that checkpoint
//! and later reconnect warm (resuming the recorded stream where the
//! checkpoint cut it), and crashes that recover from the *last*
//! checkpoint, re-executing everything since. Every lifecycle is a
//! pure function of the churn seed and the tenant id — like the fault
//! schedules, worker count cannot perturb it — so the outcome stays
//! byte-identical for every `jobs` value under any churn schedule. A
//! [`ChaosConfig`] additionally plants a deterministic poison pill (a
//! real panic inside one chosen epoch) to exercise the quarantine
//! path end to end.
//!
//! The outcome is byte-identical for every `jobs` value, warm-started
//! or not, churned or not, and every outcome carries a
//! [`ServeSnapshot`](crate::ServeSnapshot) of the final state so the
//! next run can warm-start from it.

use crate::churn::{ChaosConfig, ChurnConfig, LifecycleKind, TenantLifecycle};
use crate::policy::{PolicyConfig, PolicyEngine, PolicyState, SwitchRecord, derive_tenant_policy};
use crate::report::{
    DipTracker, QueueStats, ServeOutcome, ServeReport, ShardReport, TenantSummary, wait_bucket,
};
use crate::session::{EpochStats, TenantSession, TenantSpec};
use crate::shard::{SharedCacheMap, plan_shed};
use crate::snapshot::{
    ServeSnapshot, SnapshotError, TenantSnapshot, WarmStart, tenant_snapshot_bytes,
};
use crate::store::{RegionStore, StoreShardStats, debug_check_consistency};
use rsel_core::SimConfig;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Derives tenant `tenant`'s fault-schedule seed from the run's base
/// seed (a SplitMix64-style finalizer over the pair).
///
/// Every tenant session owns its own [`FaultInjector`]
/// (rsel_core::sim::faults::FaultInjector) seeded with this value, so
/// a tenant's self-modifying-code schedule is a function of the base
/// seed and its id alone — worker count, admission order, and the
/// other tenants cannot perturb it. That is what keeps a faulted
/// serve byte-identical for every `jobs` value. The churn layer
/// derives its per-tenant lifecycle seeds the same way (over a salted
/// base, so the streams never collide).
pub fn tenant_fault_seed(base: u64, tenant: u16) -> u64 {
    let mut z = base ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(tenant) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why a serve could not run (or could not set up). Runtime defects in
/// a single tenant never surface here — those quarantine the tenant
/// and the serve completes; this type covers only conditions where no
/// meaningful run exists.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// More tenant specs than tenant ids (`u16`).
    TooManyTenants(usize),
    /// A degenerate configuration knob (zero epoch length, active
    /// limit, or shard count, or inconsistent churn knobs).
    InvalidConfig(&'static str),
    /// The warm-start state does not match the specs or policy
    /// configuration (tenant count, workload names, candidate list).
    Snapshot(SnapshotError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::TooManyTenants(n) => {
                write!(f, "{n} tenant specs exceed the u16 tenant-id space")
            }
            ServeError::InvalidConfig(why) => write!(f, "invalid serve configuration: {why}"),
            ServeError::Snapshot(e) => write!(f, "warm-start state rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// Configuration for a serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-session simulator configuration.
    pub sim: SimConfig,
    /// Adaptive-policy tuning (candidates, scoring, phase-shift
    /// sensitivity).
    pub policy: PolicyConfig,
    /// Steps each session replays per round.
    pub epoch_len: usize,
    /// Most sessions allowed to run concurrently.
    pub max_active: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Shards in the shared cache map.
    pub shard_count: usize,
    /// Per-shard byte budget; overflowing a shard triggers pressure
    /// eviction at the next barrier.
    pub shard_capacity: u64,
    /// Whether the policy engine may switch selectors; `false` serves
    /// every session on the first candidate forever.
    pub adaptive: bool,
    /// Seeded tenant churn: staggered arrivals, disconnects,
    /// reconnects, crashes. Inert by default.
    pub churn: ChurnConfig,
    /// Targeted chaos injection (poison pill). Inert by default.
    pub chaos: ChaosConfig,
    /// Rounds between periodic per-tenant checkpoints (what crash
    /// recovery rewinds to); zero checkpoints only at graceful
    /// disconnects.
    pub checkpoint_every: u64,
    /// Rounds an arrival may wait in the deferred set before being
    /// shed (pushed back with exponential backoff); zero disables
    /// shedding.
    pub admission_timeout: u64,
    /// Reconnect cold: a reconnecting tenant resumes its stream at
    /// the checkpoint position but with an *empty* cache and fresh
    /// blacklist — the control arm for measuring what checkpointed
    /// warm reconnects are worth.
    pub reconnect_cold: bool,
    /// Content-addressed region sharing: identical regions across
    /// tenants are deduplicated through the
    /// [`RegionStore`](crate::RegionStore) — each shard charges
    /// *unique* bytes against `shard_capacity` (logical per-tenant
    /// bytes stay reported), regions shard by content key instead of
    /// `(tenant, entry)`, and pressure eviction drops shared entries
    /// from every referencing tenant at once.
    pub share: bool,
    /// Rounds a quarantined tenant sits out before re-admission with
    /// a fresh cold session (one retry per tenant — a second
    /// quarantine drops it for the run). Zero keeps the original
    /// behavior: quarantine drops the tenant immediately.
    pub quarantine_penalty: u64,
    /// Utility-aware pressure eviction: victims are chosen by bytes
    /// per recent cached instruction (cold bulk goes first) instead of
    /// raw byte footprint, both per-tenant in a shard and per-entry in
    /// the shared store. Off preserves the legacy largest-first waves
    /// byte for byte.
    pub utility_evict: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sim: SimConfig::default(),
            policy: PolicyConfig::default(),
            epoch_len: 4096,
            max_active: 8,
            queue_capacity: 2,
            shard_count: 16,
            shard_capacity: 2048,
            adaptive: true,
            churn: ChurnConfig::default(),
            chaos: ChaosConfig::default(),
            checkpoint_every: 0,
            admission_timeout: 0,
            reconnect_cold: false,
            share: false,
            quarantine_penalty: 0,
            utility_evict: false,
        }
    }
}

/// Serves every spec to completion on `jobs` worker threads from a
/// cold start; the result is identical for any `jobs >= 1`. See
/// [`serve_with`] to warm-start from a snapshot.
///
/// # Errors
///
/// [`ServeError::TooManyTenants`] if `specs` holds more than
/// `u16::MAX` tenants; [`ServeError::InvalidConfig`] if the
/// configuration is degenerate (zero epoch length, active limit, or
/// shard count, or inconsistent churn knobs).
pub fn serve(
    specs: &[TenantSpec],
    config: &ServeConfig,
    jobs: usize,
) -> Result<ServeOutcome, ServeError> {
    serve_impl(specs, config, jobs, None, 0)
}

/// Serves every spec to completion on `jobs` worker threads,
/// warm-starting from `warm` when given: each tenant's policy engine
/// resumes with the snapshot's learned scores and phase, and its code
/// cache starts pre-populated with the snapshot's regions (rebuilt
/// against the live program). The result is identical for any
/// `jobs >= 1`, warm or cold.
///
/// `warm` must come from [`load_snapshot`](crate::load_snapshot) (or
/// an outcome of a run over the same specs and policy configuration)
/// — the loader is the validation boundary that turns corrupt or
/// mismatched snapshots into typed errors.
///
/// # Errors
///
/// Everything [`serve`] returns, plus [`ServeError::Snapshot`] when
/// `warm` does not match `specs`/`config` (tenant count, workload
/// names, candidate list) — states the loader never produces.
pub fn serve_with(
    specs: &[TenantSpec],
    config: &ServeConfig,
    jobs: usize,
    warm: Option<&ServeSnapshot>,
) -> Result<ServeOutcome, ServeError> {
    match warm {
        None => serve_impl(specs, config, jobs, None, 0),
        Some(snap) => {
            let slots: Vec<Option<&TenantSnapshot>> = snap.tenants.iter().map(Some).collect();
            serve_impl(specs, config, jobs, Some(&slots), 0)
        }
    }
}

/// Serves every spec on `jobs` worker threads, warm-starting from a
/// possibly partial [`WarmStart`]: tenants whose snapshot the lenient
/// loader ([`load_warm_start`](crate::load_warm_start)) rejected hold
/// a `None` slot and cold-start, everyone else resumes warm. The
/// carried rejection count surfaces as
/// [`warm_rejected_tenants`](ServeReport::warm_rejected_tenants) in
/// the report. The result is identical for any `jobs >= 1`.
///
/// # Errors
///
/// The same conditions as [`serve_with`]; the restored slots must
/// come from the loader run against the same specs and policy
/// configuration.
pub fn serve_warm(
    specs: &[TenantSpec],
    config: &ServeConfig,
    jobs: usize,
    warm: &WarmStart,
) -> Result<ServeOutcome, ServeError> {
    let slots: Vec<Option<&TenantSnapshot>> = warm.tenants.iter().map(|t| t.as_ref()).collect();
    serve_impl(specs, config, jobs, Some(&slots), warm.rejected)
}

/// A tenant's last persisted state: the `RSNP` tenant section plus
/// where in the recorded stream it was cut and the tenant's lifetime
/// epoch count at that moment.
struct Checkpoint {
    snap: TenantSnapshot,
    pos: usize,
    epoch: u64,
}

impl Checkpoint {
    /// Captures `session` where its stream stands now and counts the
    /// checkpoint in the tenant's `summary`.
    fn capture(
        session: &TenantSession<'_>,
        engine: &PolicyEngine,
        summary: &mut TenantSummary,
    ) -> Self {
        let snap = freeze_tenant(session, engine);
        summary.checkpoints += 1;
        summary.checkpoint_bytes = tenant_snapshot_bytes(&snap);
        Checkpoint {
            snap,
            pos: session.pos(),
            epoch: summary.epochs,
        }
    }
}

/// Captures `session`'s persistent state as an `RSNP` tenant section.
fn freeze_tenant(session: &TenantSession<'_>, engine: &PolicyEngine) -> TenantSnapshot {
    TenantSnapshot {
        workload: session.workload().to_string(),
        selector: session.kind(),
        policy: engine.export(),
        regions: session.region_snapshots(),
        blacklist: session.blacklist_snapshot(),
    }
}

/// A tenant's session slot. Workers lock it during a round; the
/// barrier reaches it through [`slot`].
type SessionSlot<'p> = Mutex<Option<TenantSession<'p>>>;

/// Barrier-side access to a session slot. A slot poisoned by a
/// panicking epoch still holds the session's last consistent state
/// (the tenant is quarantined with its partial metrics kept).
fn slot<'s, 'p>(cell: &'s mut SessionSlot<'p>) -> &'s mut Option<TenantSession<'p>> {
    cell.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the scheduler keeps about one tenant: its fixed inputs,
/// its live session and policy engine, its admission state, and the
/// report row it accumulates.
///
/// Epoch deltas accumulate into the row every round (so
/// crash-recovery re-execution is counted as the work it is), and each
/// torn-down session's monotone counters fold in exactly once (at
/// teardown, or at the end for the final session).
struct Tenant<'p> {
    id: u16,
    spec: &'p TenantSpec,
    /// The simulator configuration, with the tenant's own fault seed.
    sim: SimConfig,
    /// The policy configuration derived from the tenant's stream.
    policy: PolicyConfig,
    lifecycle: TenantLifecycle,
    /// The next lifecycle event to fire.
    next_event: usize,
    engine: PolicyEngine,
    /// `None` while the tenant is offline.
    session: SessionSlot<'p>,
    checkpoint: Option<Checkpoint>,
    /// Switches the warm-start snapshot already counted.
    warm_switches: u64,
    /// This round's epoch deltas, read only for tenants in the round's
    /// active set; `None` when the session panicked mid-epoch (or its
    /// lock was found poisoned) and is quarantined at the barrier.
    epoch: Option<EpochStats>,
    /// When the tenant last (re)arrived — the admission-latency clock.
    /// Shed pushbacks do not reset it: a shed tenant's wait is honest
    /// about the whole time since it first asked for service.
    arrived_at: u64,
    /// The next admission is a quarantine retry, not a reconnect.
    retry_pending: bool,
    /// Shed by the admission timeout and not yet back.
    shed_out: bool,
    waiting_rounds: u64,
    backoff: u64,
    /// The tenant's report row; `finish` fills in what only the end of
    /// the run knows (final selector, switch total, dip summary).
    summary: TenantSummary,
    smc_by_shard: Vec<u64>,
    /// Switch decisions a crash rewound the engine past — the log
    /// keeps them (they happened), the restored engine does not.
    forgotten_switches: u64,
    dips: DipTracker,
}

impl<'p> Tenant<'p> {
    fn fold_epoch(&mut self, e: &EpochStats) {
        let row = &mut self.summary;
        row.epochs += 1;
        row.total_insts += e.insts;
        row.cache_insts += e.cache_insts;
        row.insts_selected += e.insts_selected;
        row.regions_selected += e.regions_selected;
        row.smc_events += e.smc_events;
        row.smc_invalidated += e.smc_invalidated;
        // Epochs that executed nothing say nothing about the cache.
        if e.insts > 0 {
            self.dips.on_epoch(e.hit_rate(), e.smc_invalidated > 0);
        }
    }

    fn fold_session(&mut self, session: &TenantSession<'_>) {
        let res = session.resilience();
        let row = &mut self.summary;
        row.pressure_evicted += res.pressure_evicted_regions;
        row.reformations += res.reformations;
        row.blacklisted_targets += res.blacklisted_targets;
        row.blacklist_hits += res.blacklist_hits;
        for (s, &n) in session.smc_by_shard().iter().enumerate() {
            self.smc_by_shard[s] += n;
        }
    }

    fn fresh_engine(&self) -> PolicyEngine {
        PolicyEngine::new(self.policy.clone())
    }

    fn restored_engine(&self, state: &PolicyState) -> Option<PolicyEngine> {
        PolicyEngine::restore(self.policy.clone(), state)
    }

    /// A cold session at the top of the stream, on the engine's
    /// current selector.
    fn cold_session(&self, shard_count: usize) -> TenantSession<'p> {
        TenantSession::new(
            self.id,
            self.spec,
            self.engine.current(),
            &self.sim,
            shard_count,
        )
    }

    fn restored_session(
        &self,
        snap: &TenantSnapshot,
        shard_count: usize,
    ) -> Result<TenantSession<'p>, SnapshotError> {
        TenantSession::restore(self.id, self.spec, snap, &self.sim, shard_count)
    }

    /// The session a (re)admitted tenant runs on: warm from its
    /// checkpoint when one exists (or cold-at-position under
    /// `reconnect_cold`), cold from the top otherwise.
    fn rebuild_session(&self, config: &ServeConfig) -> TenantSession<'p> {
        let (pos, warm) = match &self.checkpoint {
            None => (0, None),
            Some(cp) => (cp.pos, (!config.reconnect_cold).then_some(&cp.snap)),
        };
        // A checkpoint captured from a live session always rebuilds;
        // if it somehow does not, degrade the tenant to a cold resume
        // rather than failing the serve.
        let mut session = warm
            .and_then(|snap| self.restored_session(snap, config.shard_count).ok())
            .unwrap_or_else(|| self.cold_session(config.shard_count));
        session.seek(pos);
        session
    }
}

/// The scheduler's cross-tenant state. Each round is the phase list
/// in [`serve_impl`]: every phase but [`execute`](Scheduler::execute)
/// runs serially in tenant (or arrival) order, so no cross-tenant
/// decision can see worker scheduling.
struct Scheduler<'p> {
    config: &'p ServeConfig,
    tenants: Vec<Tenant<'p>>,
    map: SharedCacheMap,
    /// Share mode: the content-addressed store dedups identical
    /// regions across tenants; absent, every tenant pays for its own
    /// copies.
    store: Option<RegionStore>,
    /// Arrival book: round -> tenants (re)arriving at it.
    due: BTreeMap<u64, Vec<usize>>,
    /// Arrivals deferred behind the queue.
    pending: VecDeque<usize>,
    queue: VecDeque<usize>,
    active: Vec<usize>,
    /// The tenants that ran an epoch this round, ascending.
    ran: Vec<usize>,
    /// The tenants whose stream ran dry this round.
    finished_now: Vec<usize>,
    q: QueueStats,
    switches: Vec<SwitchRecord>,
    total_insts: u64,
    round: u64,
    /// Tenants still owed service: not finished and not quarantined.
    live: usize,
    /// The chaos pill is one-shot per serve: once it fired (and the
    /// tenant was quarantined), a retried session must not re-arm it —
    /// it models a transient defect, and an eternal pill would make
    /// the retry path untestable.
    poison_spent: bool,
    warm_started: bool,
    warm_regions_restored: u64,
    warm_rejected_tenants: u64,
}

impl<'p> Scheduler<'p> {
    fn new(
        specs: &'p [TenantSpec],
        config: &'p ServeConfig,
        warm: Option<&[Option<&TenantSnapshot>]>,
        warm_rejected_tenants: u64,
    ) -> Result<Self, ServeError> {
        if specs.len() > u16::MAX as usize {
            return Err(ServeError::TooManyTenants(specs.len()));
        }
        if config.epoch_len == 0 {
            return Err(ServeError::InvalidConfig("epochs must make progress"));
        }
        if config.max_active == 0 {
            return Err(ServeError::InvalidConfig(
                "need at least one active session",
            ));
        }
        if config.shard_count == 0 {
            return Err(ServeError::InvalidConfig("need at least one shard"));
        }
        config.churn.check().map_err(ServeError::InvalidConfig)?;
        if let Some(w) = warm {
            if w.len() != specs.len() {
                return Err(SnapshotError::TenantCountMismatch {
                    snapshot: w.len().min(u16::MAX as usize) as u16,
                    specs: specs.len(),
                }
                .into());
            }
        }

        let mut tenants = Vec::with_capacity(specs.len());
        // Arrival book: round -> tenants (re)arriving at it.
        let mut due: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut warm_regions_restored = 0u64;
        for (t, spec) in specs.iter().enumerate() {
            let id = t as u16;
            // Each tenant's fault schedule is seeded from the base seed
            // and its id, so the schedule is a property of the tenant
            // alone. With all fault rates zero the seed is never drawn.
            let mut sim = config.sim.clone();
            sim.faults.seed = tenant_fault_seed(config.sim.faults.seed, id);
            // With a stream-adaptive base policy the candidate schedule
            // is derived from the decoded stream shape (a pure function
            // of config and spec — the snapshot loader re-derives the
            // same schedules). Non-adaptive bases pass through.
            let (policy, features) = derive_tenant_policy(&config.policy, spec);
            // Lifecycles are pure per-tenant functions of the churn
            // seed, so any worker count replays the same traffic.
            let horizon = spec.len().div_ceil(config.epoch_len) as u64 + 1;
            let lifecycle = TenantLifecycle::generate(&config.churn, id, horizon);
            due.entry(lifecycle.arrival_round).or_default().push(t);
            let warm_slot = warm.and_then(|w| w[t]);
            let mut tenant = Tenant {
                id,
                spec,
                sim,
                engine: PolicyEngine::new(policy.clone()),
                policy,
                arrived_at: lifecycle.arrival_round,
                lifecycle,
                next_event: 0,
                session: Mutex::new(None),
                checkpoint: None,
                warm_switches: warm_slot.map_or(0, |ts| ts.policy.switches),
                epoch: None,
                retry_pending: false,
                shed_out: false,
                waiting_rounds: 0,
                backoff: 2,
                summary: TenantSummary {
                    tenant: id,
                    policy_features: features,
                    ..TenantSummary::default()
                },
                smc_by_shard: vec![0; config.shard_count],
                forgotten_switches: 0,
                dips: DipTracker::default(),
            };
            let session = match warm_slot {
                Some(ts) => {
                    tenant.engine = tenant
                        .restored_engine(&ts.policy)
                        .ok_or(SnapshotError::BadPolicyState(id))?;
                    let session = tenant.restored_session(ts, config.shard_count)?;
                    warm_regions_restored += ts.regions.len() as u64;
                    // A warm slot doubles as the tenant's first
                    // checkpoint: a crash before any new checkpoint
                    // recovers to it.
                    tenant.checkpoint = Some(Checkpoint {
                        snap: ts.clone(),
                        pos: 0,
                        epoch: 0,
                    });
                    session
                }
                None => tenant.cold_session(config.shard_count),
            };
            *slot(&mut tenant.session) = Some(session);
            tenants.push(tenant);
        }
        Ok(Scheduler {
            config,
            live: tenants.len(),
            tenants,
            map: SharedCacheMap::new(config.shard_count, config.shard_capacity),
            store: config.share.then(|| RegionStore::new(config.shard_count)),
            due,
            pending: VecDeque::new(),
            queue: VecDeque::new(),
            active: Vec::new(),
            ran: Vec::new(),
            finished_now: Vec::new(),
            q: QueueStats::default(),
            switches: Vec::new(),
            total_insts: 0,
            round: 0,
            poison_spent: false,
            warm_started: warm.is_some(),
            warm_regions_restored,
            warm_rejected_tenants,
        })
    }

    /// Books tenant `t` to (re)arrive at round `at`.
    fn reschedule(&mut self, t: usize, at: u64) {
        self.due.entry(at).or_default().push(t);
        self.tenants[t].arrived_at = at;
    }

    /// Drops every shard byte and store ref tenant `t` holds.
    fn release(&mut self, t: usize) {
        self.map.clear_tenant(t as u16);
        if let Some(store) = self.store.as_mut() {
            store.release_tenant(t as u16);
        }
    }

    /// Moves the arrivals due by this round, in tenant order, behind
    /// the deferred set.
    fn arrive(&mut self) {
        let later = self.due.split_off(&(self.round + 1));
        let due_now = std::mem::replace(&mut self.due, later);
        let mut arrivals: Vec<usize> = due_now.into_values().flatten().collect();
        arrivals.sort_unstable();
        for t in arrivals {
            let tenant = &mut self.tenants[t];
            if tenant.summary.quarantined {
                continue;
            }
            if tenant.shed_out {
                tenant.shed_out = false;
                self.q.admission_retries += 1;
            }
            self.pending.push_back(t);
        }
    }

    /// Tops the bounded queue up from the deferred arrivals.
    fn refill_queue(&mut self) {
        let room = self.config.queue_capacity.saturating_sub(self.queue.len());
        let n = room.min(self.pending.len());
        self.queue.extend(self.pending.drain(..n));
    }

    /// Admits from the queue (arrival order) up to the active limit,
    /// opening or rebuilding each admitted tenant's session, then
    /// sheds arrivals stuck past the admission timeout.
    fn admit(&mut self) {
        let config = self.config;
        let room = config.max_active.saturating_sub(self.active.len());
        let to_admit: Vec<usize> = if config.queue_capacity == 0 {
            // A zero-capacity queue buffers nothing: arrivals are
            // admitted directly up to the active limit. (Routing them
            // through the queue would livelock — nothing could ever
            // enter a queue that holds zero tenants.)
            let n = room.min(self.pending.len());
            self.pending.drain(..n).collect()
        } else {
            self.refill_queue();
            let n = room.min(self.queue.len());
            let admitted = self.queue.drain(..n).collect();
            // Arrivals keep the bounded queue full while the round
            // runs; whoever does not fit is deferred behind it
            // (backpressure).
            self.refill_queue();
            admitted
        };
        let round = self.round;
        for t in to_admit {
            let tenant = &mut self.tenants[t];
            if slot(&mut tenant.session).is_none() {
                let session = tenant.rebuild_session(config);
                *slot(&mut tenant.session) = Some(session);
            }
            if config.chaos.poison_tenant == Some(tenant.id) && !self.poison_spent {
                // The pill fires at a *lifetime* epoch; a session that
                // starts mid-life arms the remainder.
                let remaining = config
                    .chaos
                    .poison_epoch
                    .saturating_sub(tenant.summary.epochs);
                if let Some(session) = slot(&mut tenant.session).as_mut() {
                    session.poison_after(remaining);
                }
            }
            let wait = round - tenant.arrived_at;
            if tenant.retry_pending {
                // Quarantine retry: a fresh cold admission, not a
                // churn reconnect.
                tenant.retry_pending = false;
            } else if tenant.summary.admitted {
                tenant.summary.reconnects += 1;
            } else {
                tenant.summary.admitted = true;
                tenant.summary.admitted_round = round;
                tenant.summary.admission_wait = wait;
            }
            // Every admission (first, reconnect, retry) lands one
            // sample in the log2 wait histogram.
            self.q.admission_wait_hist[wait_bucket(wait)] += 1;
            tenant.waiting_rounds = 0;
            self.active.push(t);
            self.q.admissions += 1;
        }
        // Overload shedding: arrivals stuck behind the queue past the
        // timeout are pushed back out and retry after an exponential
        // backoff, instead of convoying forever.
        if config.admission_timeout > 0 {
            let (tenants, due, q) = (&mut self.tenants, &mut self.due, &mut self.q);
            self.pending.retain(|&t| {
                let tenant = &mut tenants[t];
                tenant.waiting_rounds += 1;
                if tenant.waiting_rounds < config.admission_timeout {
                    return true;
                }
                q.shed_arrivals += 1;
                tenant.shed_out = true;
                tenant.waiting_rounds = 0;
                due.entry(round + tenant.backoff).or_default().push(t);
                tenant.backoff = (tenant.backoff * 2).min(64);
                false
            });
        }
        self.active.sort_unstable();
        let q = &mut self.q;
        q.peak_active = q.peak_active.max(self.active.len() as u64);
        q.peak_queue_depth = q.peak_queue_depth.max(self.queue.len() as u64);
        q.queued_tenant_rounds += self.queue.len() as u64;
        q.deferred_tenant_rounds += self.pending.len() as u64;
    }

    /// Runs one epoch of every active session across up to `jobs`
    /// scoped workers, then folds the epochs in tenant order. Every
    /// epoch runs inside the failure domain: a panic (e.g. a poison
    /// pill) or an already-poisoned lock yields no epoch, for
    /// [`depart`](Scheduler::depart) to quarantine; nothing unwinds
    /// past here, on any worker.
    fn execute(&mut self, jobs: usize) {
        let (config, map, store) = (self.config, &self.map, self.store.as_ref());
        let tenants = &self.tenants;
        let run_one = |t: usize| -> Option<EpochStats> {
            catch_unwind(AssertUnwindSafe(|| {
                let mut guard = tenants[t].session.lock().ok()?;
                let session = guard.as_mut()?;
                let e = session.run_epoch(config.epoch_len);
                match store {
                    Some(st) => session.publish_shared(map, st, config.utility_evict),
                    None => session.publish_occupancy(map, config.utility_evict),
                }
                Some(e)
            }))
            .ok()
            .flatten()
        };
        let active = &self.active;
        let epochs: Vec<Option<EpochStats>> = if jobs <= 1 || active.len() <= 1 {
            active.iter().map(|&t| run_one(t)).collect()
        } else {
            let slots: Vec<OnceLock<Option<EpochStats>>> =
                active.iter().map(|_| OnceLock::new()).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs.min(active.len()) {
                    scope.spawn(|| {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&t) = active.get(i) else { break };
                            let _ = slots[i].set(run_one(t));
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().flatten())
                .collect()
        };

        self.map.end_round();
        if let Some(store) = self.store.as_mut() {
            store.end_round();
        }
        for (&t, epoch) in self.active.iter().zip(epochs) {
            let tenant = &mut self.tenants[t];
            if let Some(e) = &epoch {
                self.total_insts += e.insts;
                tenant.fold_epoch(e);
            }
            tenant.epoch = epoch;
        }
    }

    /// Quarantine, completions, and churn events, in tenant order: each
    /// departing tenant releases its shard bytes before pressure
    /// resolves.
    fn depart(&mut self) {
        let ran = std::mem::take(&mut self.active);
        self.finished_now.clear();
        let round = self.round;
        for &t in &ran {
            if self.tenants[t].epoch.is_none() {
                self.quarantine(t);
                continue;
            }
            let tenant = &mut self.tenants[t];
            if slot(&mut tenant.session)
                .as_ref()
                .is_some_and(|s| s.finished())
            {
                // The session is retained for the final report and
                // snapshot; only its shard bytes (and store refs)
                // release.
                tenant.summary.finished_round = round;
                self.finished_now.push(t);
                self.release(t);
                self.live -= 1;
                continue;
            }
            let event = tenant
                .lifecycle
                .events
                .get(tenant.next_event)
                .copied()
                .filter(|e| e.at_epoch <= tenant.summary.epochs);
            let Some(ev) = event else {
                self.active.push(t);
                continue;
            };
            tenant.next_event += 1;
            if let Some(session) = slot(&mut tenant.session).take() {
                match ev.kind {
                    LifecycleKind::Disconnect => {
                        // Graceful: checkpoint where the stream was
                        // cut, then depart.
                        tenant.summary.disconnects += 1;
                        tenant.checkpoint = Some(Checkpoint::capture(
                            &session,
                            &tenant.engine,
                            &mut tenant.summary,
                        ));
                    }
                    LifecycleKind::Crash => {
                        // Abrupt: everything since the last checkpoint
                        // is lost and will be re-executed.
                        tenant.summary.crashes += 1;
                        let (cp_epoch, cp_switches) = tenant
                            .checkpoint
                            .as_ref()
                            .map_or((0, 0), |c| (c.epoch, c.snap.policy.switches));
                        tenant.summary.recovered_epochs += tenant.summary.epochs - cp_epoch;
                        tenant.forgotten_switches += tenant.engine.switches() - cp_switches;
                        tenant.engine = tenant
                            .checkpoint
                            .as_ref()
                            .and_then(|c| tenant.restored_engine(&c.snap.policy))
                            .unwrap_or_else(|| tenant.fresh_engine());
                    }
                }
                tenant.fold_session(&session);
            }
            self.release(t);
            self.reschedule(t, round + ev.gap);
        }
        self.ran = ran;
    }

    /// The failure domain: tenant `t`'s session panicked (or its lock
    /// was poisoned). Contain it — keep whatever consistent state the
    /// session reached for the final report, take the tenant out of
    /// rotation, and keep serving everyone else.
    fn quarantine(&mut self, t: usize) {
        let config = self.config;
        self.tenants[t].session.clear_poison();
        if config.chaos.poison_tenant == Some(t as u16) {
            self.poison_spent = true;
        }
        self.release(t);
        let tenant = &mut self.tenants[t];
        if config.quarantine_penalty > 0 && tenant.summary.quarantine_retries == 0 {
            // Retry: tear the defective session down entirely (its
            // monotone counters fold into the summary — the work
            // happened) and re-admit fresh and cold after the penalty.
            // A second quarantine drops the tenant for good.
            tenant.retry_pending = true;
            tenant.summary.quarantine_retries += 1;
            self.q.quarantine_retries += 1;
            if let Some(session) = slot(&mut tenant.session).take() {
                tenant.fold_session(&session);
            }
            // The fresh engine restarts its learning; decisions already
            // logged stay logged, same bookkeeping as a crash rewind.
            tenant.forgotten_switches += tenant.engine.switches();
            tenant.engine = tenant.fresh_engine();
            tenant.checkpoint = None;
            self.reschedule(t, self.round + config.quarantine_penalty);
        } else {
            tenant.summary.quarantined = true;
            tenant.summary.finished_round = self.round;
            self.live -= 1;
        }
    }

    /// Brings every overflowing shard back under its budget. In share
    /// mode the budget covers *unique* bytes and the store plans the
    /// wave: evicting a shared entry drops it from every referencing
    /// tenant at once. Without sharing, [`plan_shed`] plans the
    /// shard's whole victim set first, then it is applied with a
    /// single eviction pass per victim tenant — the repeated cache
    /// rebuilds of per-batch eviction were quadratic in the region
    /// count.
    fn relieve_pressure(&mut self) {
        let capacity = self.config.shard_capacity;
        let utility = self.config.utility_evict;
        let (map, tenants) = (&mut self.map, &mut self.tenants);
        match self.store.as_mut() {
            Some(store) => {
                for shard in store.overflowing(capacity) {
                    map.note_wave(shard);
                    let wave = store.plan_wave(shard, capacity, utility);
                    // Group the doomed keys by holder tenant; each
                    // victim tenant takes one eviction pass, in tenant
                    // order.
                    let mut by_tenant: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
                    for (key, entry) in &wave {
                        for &holder in &entry.holders {
                            by_tenant.entry(holder).or_default().push(*key);
                        }
                    }
                    for (t, keys) in &by_tenant {
                        let tenant = &mut tenants[*t as usize];
                        let (evicted, left, left_recent) = slot(&mut tenant.session)
                            .as_mut()
                            .map_or((0, 0, 0), |s| s.evict_shared(shard, keys));
                        map.note_shed(shard, evicted);
                        map.set_load(shard, *t, left, left_recent);
                        if utility {
                            tenant.summary.utility_evictions += evicted;
                        }
                    }
                }
                store.check_invariants();
                debug_check_consistency(store, map);
            }
            None => {
                for shard in map.overflowing() {
                    map.note_wave(shard);
                    let plan = plan_shed(&map.shard_load(shard), capacity, utility, |t| {
                        slot(&mut tenants[t as usize].session)
                            .as_ref()
                            .map(|s| s.shard_regions_with_heat(shard))
                            .unwrap_or_default()
                    });
                    for &count in &plan.sheds {
                        map.note_shed(shard, count);
                    }
                    for (&t, shed) in &plan.victims {
                        let tenant = &mut tenants[t as usize];
                        if !shed.ids.is_empty() {
                            if let Some(session) = slot(&mut tenant.session).as_mut() {
                                session.evict_planned(shard, &shed.ids, shed.bytes_left);
                            }
                        }
                        map.set_load(shard, t, shed.bytes_left, shed.heat_left);
                        if utility {
                            tenant.summary.utility_evictions += shed.ids.len() as u64;
                        }
                    }
                }
            }
        }
    }

    /// Per-tenant policy decisions, tenant order. Stream-adaptive
    /// policies also feed the final epoch of tenants that finished this
    /// round: a short stream's last explore epoch is often its last
    /// epoch, and without this decision the engine would never reach
    /// exploit (leaving `first_exploit_round` null for a tenant that
    /// did learn a best selector).
    fn decide(&mut self) {
        if self.config.adaptive {
            let mut deciders = self.active.clone();
            if self.config.policy.adaptive {
                deciders.extend_from_slice(&self.finished_now);
                deciders.sort_unstable();
            }
            for t in deciders {
                let tenant = &mut self.tenants[t];
                let Some(e) = tenant.epoch else {
                    continue;
                };
                let Some((kind, reason)) = tenant.engine.on_epoch(&e) else {
                    continue;
                };
                if let Some(session) = slot(&mut tenant.session).as_mut() {
                    self.switches.push(SwitchRecord {
                        tenant: tenant.id,
                        workload: session.workload(),
                        epoch: tenant.summary.epochs,
                        from: session.kind(),
                        to: kind,
                        reason,
                    });
                    session.switch_selector(kind, &tenant.sim);
                }
            }
        }
        // First round at which each tenant's engine was exploiting —
        // for warm-restored engines already past exploration, that is
        // their first active round (even if they also finish in it).
        for &t in &self.ran {
            let tenant = &mut self.tenants[t];
            if tenant.summary.first_exploit_round.is_none() && tenant.engine.exploiting() {
                tenant.summary.first_exploit_round = Some(self.round);
            }
        }
    }

    /// Periodic checkpoints — what crash recovery rewinds to. Taken
    /// after policy decisions so a checkpoint never resurrects a
    /// selector the engine just abandoned.
    fn checkpoint(&mut self) {
        let every = self.config.checkpoint_every;
        if every == 0 || !(self.round + 1).is_multiple_of(every) {
            return;
        }
        for &t in &self.active {
            let tenant = &mut self.tenants[t];
            if let Some(session) = slot(&mut tenant.session).as_ref() {
                tenant.checkpoint = Some(Checkpoint::capture(
                    session,
                    &tenant.engine,
                    &mut tenant.summary,
                ));
            }
        }
    }

    /// Assembles the deterministic reports and the end-of-run
    /// snapshot.
    fn finish(mut self) -> ServeOutcome {
        let config = self.config;
        self.q.rounds = self.round;
        let n = self.tenants.len();
        let mut summaries = Vec::with_capacity(n);
        let mut run_reports = Vec::with_capacity(n);
        let mut snapshot_tenants = Vec::with_capacity(n);
        let mut shard_smc = vec![0u64; config.shard_count];
        for mut tenant in std::mem::take(&mut self.tenants) {
            // Every tenant ends holding a session (finished and
            // quarantined sessions are retained); materialize an empty
            // one defensively if that invariant ever breaks.
            let session = slot(&mut tenant.session)
                .take()
                .unwrap_or_else(|| tenant.cold_session(config.shard_count));
            tenant.fold_session(&session);
            let switches = tenant.engine.switches() + tenant.forgotten_switches;
            // The engine is the authority on its own switch count; the
            // global log (plus any decisions a crash rewound past) must
            // agree with it.
            debug_assert_eq!(
                switches,
                self.switches
                    .iter()
                    .filter(|s| s.tenant == tenant.id)
                    .count() as u64
                    + tenant.warm_switches,
                "engine switch count drifted from the switch log"
            );
            for (s, &n) in tenant.smc_by_shard.iter().enumerate() {
                shard_smc[s] += n;
            }
            let dip = tenant.dips.finish();
            summaries.push(TenantSummary {
                workload: session.workload(),
                final_selector: session.kind().name(),
                switches,
                smc_dips: dip.dips,
                max_dip_depth: dip.max_depth,
                max_dip_recovery_epochs: dip.max_recovery_epochs,
                ..tenant.summary
            });
            run_reports.push(session.report());
            snapshot_tenants.push(freeze_tenant(&session, &tenant.engine));
        }
        let store_totals = self.store.as_ref().map(|s| s.totals()).unwrap_or_default();
        let store_stats: Vec<StoreShardStats> = match self.store {
            Some(s) => s.into_stats(),
            None => vec![StoreShardStats::default(); config.shard_count],
        };
        let shards = self
            .map
            .into_stats()
            .into_iter()
            .enumerate()
            .map(|(i, (s, final_bytes))| ShardReport {
                shard: i,
                peak_bytes: s.peak_bytes,
                contended_rounds: s.contended_rounds,
                pressure_waves: s.pressure_waves,
                shed_actions: s.shed_actions,
                evicted_regions: s.evicted_regions,
                smc_invalidated: shard_smc[i],
                final_bytes,
                unique_bytes: store_stats[i].peak_unique_bytes,
                logical_bytes: store_stats[i].peak_logical_bytes,
                shared_refs: store_stats[i].peak_shared_refs,
            })
            .collect();

        ServeOutcome {
            report: ServeReport {
                epoch_len: config.epoch_len,
                shard_count: config.shard_count,
                shard_capacity: config.shard_capacity,
                max_active: config.max_active,
                queue_capacity: config.queue_capacity,
                warm_started: self.warm_started,
                warm_regions_restored: self.warm_regions_restored,
                warm_rejected_tenants: self.warm_rejected_tenants,
                smc_write_ppm: config.sim.faults.smc_write_ppm,
                fault_seed: config.sim.faults.seed,
                flush_wave_ppm: config.sim.faults.flush_wave_ppm,
                counter_fault_ppm: config.sim.faults.counter_fault_ppm,
                churn_active: config.churn.active(),
                churn_seed: config.churn.seed,
                checkpoint_every: config.checkpoint_every,
                share_active: config.share,
                unique_bytes: store_totals.unique_bytes,
                logical_bytes: store_totals.logical_bytes,
                shared_refs: store_totals.shared_refs,
                queue: self.q,
                tenants: summaries,
                shards,
                switches: self.switches,
                total_insts: self.total_insts,
                insts_per_sec: None,
            },
            run_reports,
            snapshot: ServeSnapshot {
                tenants: snapshot_tenants,
            },
        }
    }
}

fn serve_impl(
    specs: &[TenantSpec],
    config: &ServeConfig,
    jobs: usize,
    warm: Option<&[Option<&TenantSnapshot>]>,
    warm_rejected_tenants: u64,
) -> Result<ServeOutcome, ServeError> {
    let mut s = Scheduler::new(specs, config, warm, warm_rejected_tenants)?;
    let jobs = jobs.max(1);
    while s.live > 0 {
        s.arrive();
        s.admit();
        s.execute(jobs);
        s.depart();
        s.relieve_pressure();
        s.decide();
        s.checkpoint();
        s.round += 1;
    }
    Ok(s.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_workloads::{Scale, suite};

    fn two_specs() -> Vec<TenantSpec> {
        suite()
            .iter()
            .take(2)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect()
    }

    fn churn_config() -> ServeConfig {
        ServeConfig {
            churn: ChurnConfig {
                seed: 5,
                arrival_spread: 3,
                max_disconnects: 2,
                max_gap: 2,
                crash_percent: 50,
            },
            checkpoint_every: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_everything_to_completion() {
        let specs = two_specs();
        let out = serve(&specs, &ServeConfig::default(), 1).unwrap();
        assert_eq!(out.report.tenants.len(), 2);
        assert_eq!(out.run_reports.len(), 2);
        for (t, rep) in out.report.tenants.iter().zip(&out.run_reports) {
            assert!(t.total_insts > 0);
            assert_eq!(t.total_insts, rep.total_insts);
            assert_eq!(t.cache_insts, rep.cache_insts);
        }
        let sum: u64 = out.report.tenants.iter().map(|t| t.total_insts).sum();
        assert_eq!(out.report.total_insts, sum);
        assert!(out.report.insts_per_round() > 0.0);
    }

    #[test]
    fn bounded_queue_exerts_backpressure() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 2,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        let q = &out.report.queue;
        assert_eq!(q.admissions, 6, "everyone is eventually admitted");
        assert_eq!(q.peak_active, 2);
        assert_eq!(q.peak_queue_depth, 1);
        assert!(q.deferred_tenant_rounds > 0, "arrivals piled up: {q:?}");
        assert_eq!(q.shed_arrivals, 0, "no timeout, no shedding");
        // Later tenants were admitted later.
        let rounds: Vec<u64> = out
            .report
            .tenants
            .iter()
            .map(|t| t.admitted_round)
            .collect();
        assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "{rounds:?}");
        assert!(rounds[5] > rounds[0]);
    }

    #[test]
    fn static_mode_never_switches() {
        let specs = two_specs();
        let config = ServeConfig {
            adaptive: false,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 1).unwrap();
        assert!(out.report.switches.is_empty());
        for t in &out.report.tenants {
            assert_eq!(t.final_selector, "NET");
            assert_eq!(t.switches, 0);
        }
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let specs = two_specs();
        let config = ServeConfig {
            epoch_len: 0,
            ..ServeConfig::default()
        };
        let err = serve(&specs, &config, 1).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
        let config = ServeConfig {
            churn: ChurnConfig {
                crash_percent: 101,
                ..ChurnConfig::default()
            },
            ..ServeConfig::default()
        };
        let err = serve(&specs, &config, 1).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_capacity_queue_terminates_and_admits_everyone() {
        // Regression: queue_capacity = 0 used to livelock — nothing
        // could ever enter a queue that holds zero tenants, so the
        // admission loop spun forever with everybody pending.
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(4)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 2,
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        let q = &out.report.queue;
        assert_eq!(q.admissions, 4, "everyone is admitted directly");
        assert_eq!(q.peak_active, 2);
        assert_eq!(q.peak_queue_depth, 0, "nothing is ever buffered");
        assert_eq!(q.queued_tenant_rounds, 0);
        assert!(q.deferred_tenant_rounds > 0, "arrivals still wait: {q:?}");
        for t in &out.report.tenants {
            assert!(t.total_insts > 0, "every tenant ran to completion");
        }
    }

    #[test]
    fn summary_switches_agree_with_the_switch_log() {
        let specs = two_specs();
        let out = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for t in &out.report.tenants {
            let logged = out
                .report
                .switches
                .iter()
                .filter(|s| s.tenant == t.tenant)
                .count() as u64;
            assert_eq!(t.switches, logged, "tenant {}", t.tenant);
        }
    }

    #[test]
    fn warm_start_runs_from_the_snapshot() {
        let specs = two_specs();
        let config = ServeConfig::default();
        let cold = serve(&specs, &config, 1).unwrap();
        let warm = serve_with(&specs, &config, 1, Some(&cold.snapshot)).unwrap();
        assert!(warm.report.warm_started);
        assert!(!cold.report.warm_started);
        assert_eq!(cold.report.warm_regions_restored, 0);
        assert_eq!(
            warm.report.warm_regions_restored,
            cold.snapshot.region_count()
        );
        // The warm run replays the same streams, so totals agree even
        // though the cache starts hot.
        assert_eq!(cold.report.total_insts, warm.report.total_insts);
        for (c, w) in cold.report.tenants.iter().zip(&warm.report.tenants) {
            assert!(w.switches >= c.switches, "switch count carries over");
        }
    }

    #[test]
    fn tenant_fault_seeds_are_distinct_and_stable() {
        let a = tenant_fault_seed(7, 0);
        let b = tenant_fault_seed(7, 1);
        let c = tenant_fault_seed(8, 0);
        assert_ne!(a, b, "tenants get distinct schedules");
        assert_ne!(a, c, "the base seed matters");
        assert_eq!(a, tenant_fault_seed(7, 0), "pure function of its inputs");
    }

    fn smc_config() -> ServeConfig {
        let mut config = ServeConfig::default();
        config.sim.faults.seed = 42;
        config.sim.faults.smc_write_ppm = 4_000;
        config
    }

    #[test]
    fn smc_serving_is_identical_for_every_worker_count() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(4)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = smc_config();
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(
            one.report.smc_invalidated_regions() > 0,
            "this rate must strike over the test streams: {:?}",
            one.report.tenants
        );
        assert_eq!(one.report.smc_write_ppm, 4_000);
        assert_eq!(one.report.fault_seed, 42);
        // Shard attribution conserves the per-tenant counts.
        let by_shard: u64 = one.report.shards.iter().map(|s| s.smc_invalidated).sum();
        assert_eq!(by_shard, one.report.smc_invalidated_regions());
    }

    #[test]
    fn flush_and_counter_faults_serve_identically_for_every_worker_count() {
        // The flush-wave and counter-fault scenarios, measured the way
        // the SMC one is: per-tenant seeded schedules, worker-count
        // identity, and the configured rates echoed in the report.
        let specs = two_specs();
        let mut config = ServeConfig::default();
        config.sim.faults.seed = 2005;
        config.sim.faults.flush_wave_ppm = 2_000;
        config.sim.faults.counter_fault_ppm = 2_000;
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert_eq!(one.report.flush_wave_ppm, 2_000);
        assert_eq!(one.report.counter_fault_ppm, 2_000);
        let waves: u64 = one
            .run_reports
            .iter()
            .map(|r| r.resilience.flush_waves)
            .sum();
        assert!(waves > 0, "flush waves must strike at this rate");
        let ctr: u64 = one
            .run_reports
            .iter()
            .map(|r| r.resilience.counter_faults)
            .sum();
        assert!(ctr > 0, "counter faults must strike at this rate");
    }

    #[test]
    fn smc_snapshot_round_trips_the_blacklist() {
        let specs = two_specs();
        let mut config = smc_config();
        config.sim.faults.smc_write_ppm = 50_000; // hammer the cache
        config.sim.faults.blacklist_after = 2;
        let cold = serve(&specs, &config, 1).unwrap();
        assert!(
            cold.report.blacklisted_targets() > 0,
            "this rate must demote something: {:?}",
            cold.report.tenants
        );
        assert!(
            cold.snapshot
                .tenants
                .iter()
                .any(|t| !t.blacklist.is_empty()),
            "demotions persist in the snapshot"
        );
        let warm = serve_with(&specs, &config, 2, Some(&cold.snapshot)).unwrap();
        assert!(warm.report.warm_started);
        assert_eq!(warm.report.warm_rejected_tenants, 0);
    }

    #[test]
    fn serve_warm_cold_starts_rejected_slots() {
        let specs = two_specs();
        let config = ServeConfig::default();
        let cold = serve(&specs, &config, 1).unwrap();
        let mut warm = cold.snapshot.clone().into_warm_start();
        warm.tenants[1] = None; // as if the lenient loader rejected it
        warm.rejected = 1;
        let out = serve_warm(&specs, &config, 1, &warm).unwrap();
        assert!(out.report.warm_started);
        assert_eq!(out.report.warm_rejected_tenants, 1);
        assert_eq!(
            out.report.warm_regions_restored,
            cold.snapshot.tenants[0].regions.len() as u64,
            "only the surviving slot restores"
        );
        // The rejected tenant replays the same stream from cold, so
        // totals still match the cold run.
        assert_eq!(out.report.total_insts, cold.report.total_insts);
        // A fully rejected warm start is just a cold run that says so.
        let none = serve_warm(
            &specs,
            &config,
            1,
            &WarmStart {
                tenants: vec![None, None],
                rejected: 2,
            },
        )
        .unwrap();
        assert_eq!(none.report.warm_rejected_tenants, 2);
        assert_eq!(none.report.warm_regions_restored, 0);
        assert_eq!(none.report.total_insts, cold.report.total_insts);
    }

    #[test]
    fn mismatched_snapshot_is_a_typed_error() {
        let specs = two_specs();
        let config = ServeConfig::default();
        let cold = serve(&specs, &config, 1).unwrap();
        let mut snap = cold.snapshot;
        snap.tenants.pop();
        let err = serve_with(&specs, &config, 1, Some(&snap)).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Snapshot(SnapshotError::TenantCountMismatch { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn churned_serving_completes_and_is_identical_for_every_worker_count() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(4)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = churn_config();
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.churn_active);
        assert!(
            one.report.disconnects() + one.report.crashes() > 0,
            "this schedule must churn somebody: {:?}",
            one.report.tenants
        );
        assert_eq!(
            one.report.reconnects(),
            one.report.disconnects() + one.report.crashes(),
            "every departed tenant came back"
        );
        assert_eq!(one.report.quarantined_tenants(), 0, "clean path");
        // Everyone still finishes their whole workload; crash recovery
        // re-executes work, so totals can only grow versus a calm run.
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for (churned, base) in one.report.tenants.iter().zip(&calm.report.tenants) {
            assert!(!churned.quarantined);
            assert!(
                churned.total_insts >= base.total_insts,
                "tenant {} lost work: {} < {}",
                churned.tenant,
                churned.total_insts,
                base.total_insts
            );
        }
    }

    #[test]
    fn crash_recovery_resumes_from_the_last_checkpoint() {
        let specs = two_specs();
        let config = ServeConfig {
            churn: ChurnConfig {
                seed: 11,
                arrival_spread: 0,
                max_disconnects: 0,
                max_gap: 1,
                crash_percent: 100,
            },
            checkpoint_every: 2,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        assert_eq!(out.report.crashes(), 2, "every tenant crashes once");
        assert!(out.report.checkpoints_taken() > 0);
        assert!(out.report.checkpoint_bytes() > 0);
        assert_eq!(out.report.quarantined_tenants(), 0);
        // Recovered tenants finish their workloads: lifetime totals
        // cover at least the whole stream (re-execution can only add).
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for (crashed, base) in out.report.tenants.iter().zip(&calm.report.tenants) {
            assert!(crashed.total_insts >= base.total_insts);
            assert_eq!(crashed.crashes, 1);
            assert_eq!(crashed.reconnects, 1);
        }
    }

    #[test]
    fn warm_churned_serving_is_identical_for_every_worker_count() {
        let specs = two_specs();
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        let config = churn_config();
        let one = serve_with(&specs, &config, 1, Some(&calm.snapshot)).unwrap();
        let eight = serve_with(&specs, &config, 8, Some(&calm.snapshot)).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.warm_started && one.report.churn_active);
    }

    #[test]
    fn poison_pill_quarantines_exactly_one_tenant() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(3)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            chaos: ChaosConfig {
                poison_tenant: Some(1),
                poison_epoch: 2,
            },
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "quarantine is deterministic");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert_eq!(one.report.quarantined_tenants(), 1);
        assert!(one.report.tenants[1].quarantined);
        assert_eq!(one.report.tenants[1].epochs, 2, "died entering epoch 2");
        // The failure domain held: everyone else finished their full
        // workload exactly as on the clean path.
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        for t in [0usize, 2] {
            assert!(!one.report.tenants[t].quarantined);
            assert_eq!(
                one.report.tenants[t].total_insts, calm.report.tenants[t].total_insts,
                "tenant {t} unaffected by the quarantine"
            );
        }
    }

    #[test]
    fn quarantine_retry_readmits_once_with_a_fresh_session() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(3)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            chaos: ChaosConfig {
                poison_tenant: Some(1),
                poison_epoch: 2,
            },
            quarantine_penalty: 3,
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "retry is deterministic");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        // The pill fired once, the tenant sat out the penalty, came
        // back cold, and this time (the pill is spent) finished.
        assert_eq!(one.report.quarantine_retries(), 1);
        assert_eq!(one.report.tenants[1].quarantine_retries, 1);
        assert_eq!(one.report.quarantined_tenants(), 0, "the retry saved it");
        let calm = serve(&specs, &ServeConfig::default(), 1).unwrap();
        assert!(
            one.report.tenants[1].total_insts >= calm.report.tenants[1].total_insts,
            "the fresh session replays the whole workload"
        );
        for t in [0usize, 2] {
            assert_eq!(
                one.report.tenants[t].total_insts, calm.report.tenants[t].total_insts,
                "tenant {t} unaffected by the retry"
            );
        }
    }

    #[test]
    fn zero_penalty_keeps_quarantine_permanent() {
        let specs = two_specs();
        let config = ServeConfig {
            chaos: ChaosConfig {
                poison_tenant: Some(0),
                poison_epoch: 1,
            },
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 1).unwrap();
        assert_eq!(out.report.quarantined_tenants(), 1);
        assert_eq!(out.report.quarantine_retries(), 0);
    }

    #[test]
    fn admission_wait_histogram_accounts_every_admission() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 2,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 1).unwrap();
        let q = &out.report.queue;
        assert_eq!(
            q.admission_wait_hist.iter().sum::<u64>(),
            q.admissions,
            "one histogram sample per admission"
        );
        assert!(q.admission_wait_hist[0] > 0, "someone got in immediately");
        assert!(
            q.admission_wait_hist[1..].iter().sum::<u64>() > 0,
            "the bounded queue made someone wait: {:?}",
            q.admission_wait_hist
        );
        // With no churn everyone arrives at round zero, so each
        // tenant's wait is exactly its admission round.
        for t in &out.report.tenants {
            assert_eq!(t.admission_wait, t.admitted_round);
        }
        assert!(out.report.mean_admission_wait() > 0.0);
    }

    #[test]
    fn shared_serving_dedups_identical_tenants() {
        // Four replicas of two workloads: the store should hold one
        // copy of each workload's regions while eight tenants run.
        let specs = TenantSpec::replicate(two_specs(), 4);
        let config = ServeConfig {
            share: true,
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "share mode is deterministic");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.share_active);
        assert!(one.report.unique_bytes > 0);
        assert!(one.report.shared_refs > 0, "replicas shared entries");
        assert!(
            one.report.dedup_ratio() > 1.5,
            "homogeneous tenants must dedup: {}",
            one.report.dedup_ratio()
        );
        // The dedup payoff: unique bytes stay near the 1-replica run
        // instead of scaling with the tenant count.
        let base = serve(&two_specs(), &config, 1).unwrap();
        assert!(
            one.report.unique_bytes <= 2 * base.report.unique_bytes,
            "unique bytes scaled with replicas: {} vs {}",
            one.report.unique_bytes,
            base.report.unique_bytes
        );
        // Per-shard stats are populated and consistent.
        for s in &one.report.shards {
            assert!(s.unique_bytes <= s.logical_bytes);
        }
    }

    #[test]
    fn share_mode_does_not_change_any_tenants_execution() {
        // Parity: with capacity high enough that pressure never fires,
        // sharing is pure accounting — every tenant's run report and
        // snapshot must be byte-identical to the unshared serve.
        let specs = two_specs();
        let off_cfg = ServeConfig {
            shard_capacity: u64::MAX,
            ..ServeConfig::default()
        };
        let on_cfg = ServeConfig {
            share: true,
            shard_capacity: u64::MAX,
            ..ServeConfig::default()
        };
        let off = serve(&specs, &off_cfg, 1).unwrap();
        let on = serve(&specs, &on_cfg, 1).unwrap();
        assert_eq!(off.run_reports, on.run_reports);
        assert_eq!(off.snapshot, on.snapshot);
        assert_eq!(off.report.total_insts, on.report.total_insts);
        assert!(!off.report.share_active && on.report.share_active);
        assert_eq!(off.report.unique_bytes, 0, "store inert with sharing off");
    }

    #[test]
    fn shared_snapshot_warm_starts_and_rededups() {
        // Snapshots store per-tenant regions (RSNP unchanged); a warm
        // start into share mode re-dedups them on load.
        let specs = TenantSpec::replicate(two_specs(), 2);
        let config = ServeConfig {
            share: true,
            ..ServeConfig::default()
        };
        let cold = serve(&specs, &config, 1).unwrap();
        let warm1 = serve_with(&specs, &config, 1, Some(&cold.snapshot)).unwrap();
        let warm8 = serve_with(&specs, &config, 8, Some(&cold.snapshot)).unwrap();
        assert_eq!(warm1.report, warm8.report);
        assert_eq!(warm1.run_reports, warm8.run_reports);
        assert_eq!(warm1.snapshot, warm8.snapshot);
        assert!(warm1.report.warm_started);
        assert!(warm1.report.unique_bytes > 0);
        assert!(
            warm1.report.dedup_ratio() > 1.0,
            "restored replicas re-dedup: {}",
            warm1.report.dedup_ratio()
        );
    }

    #[test]
    fn overload_sheds_arrivals_and_still_serves_everyone() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            max_active: 1,
            queue_capacity: 1,
            admission_timeout: 2,
            ..ServeConfig::default()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let four = serve(&specs, &config, 4).unwrap();
        assert_eq!(one.report, four.report);
        let q = &one.report.queue;
        assert!(q.shed_arrivals > 0, "sustained pressure must shed: {q:?}");
        assert!(q.admission_retries > 0, "shed arrivals retry: {q:?}");
        for t in &one.report.tenants {
            assert!(t.total_insts > 0, "tenant {} was starved", t.tenant);
        }
    }

    /// A config whose shards overflow constantly, so pressure waves
    /// fire on every path the eviction policy touches.
    fn pressured_config() -> ServeConfig {
        ServeConfig {
            shard_count: 4,
            shard_capacity: 384,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn utility_eviction_fires_under_pressure_and_stays_deterministic() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(8)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let legacy = serve(&specs, &pressured_config(), 1).unwrap();
        assert!(
            legacy.report.shed_actions() > 0,
            "the squeeze must actually squeeze"
        );
        assert!(
            legacy
                .report
                .tenants
                .iter()
                .all(|t| t.utility_evictions == 0),
            "knob off, counter silent"
        );
        let config = ServeConfig {
            utility_evict: true,
            ..pressured_config()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "utility eviction is 1-vs-8 safe");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        let chosen: u64 = one.report.tenants.iter().map(|t| t.utility_evictions).sum();
        let evicted: u64 = one.report.tenants.iter().map(|t| t.pressure_evicted).sum();
        assert!(chosen > 0, "pressure fired but nothing was utility-chosen");
        assert_eq!(
            chosen, evicted,
            "with the knob on, every pressure victim goes through utility scoring"
        );
    }

    #[test]
    fn utility_eviction_composes_with_the_shared_store() {
        let specs = TenantSpec::replicate(two_specs(), 3);
        let config = ServeConfig {
            share: true,
            utility_evict: true,
            ..pressured_config()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report);
        assert_eq!(one.snapshot, eight.snapshot);
        assert!(one.report.shed_actions() > 0, "shared shards overflowed");
        let chosen: u64 = one.report.tenants.iter().map(|t| t.utility_evictions).sum();
        assert!(chosen > 0, "shared waves count their utility victims");
    }

    #[test]
    fn stream_adaptive_policy_leaves_no_tenant_unexploited() {
        // The whole suite, stream lengths from one epoch up: every
        // tenant's schedule must be sized so its engine reaches the
        // exploit phase before its stream runs out.
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            policy: PolicyConfig {
                adaptive: true,
                ..PolicyConfig::default()
            },
            ..ServeConfig::default()
        };
        let out = serve(&specs, &config, 2).unwrap();
        assert_eq!(out.report.never_exploited(), 0, "{:#?}", {
            let stuck: Vec<_> = out
                .report
                .tenants
                .iter()
                .filter(|t| t.first_exploit_round.is_none())
                .map(|t| (t.tenant, t.workload, t.epochs))
                .collect();
            stuck
        });
        for t in &out.report.tenants {
            let f = t.policy_features.expect("adaptive derivation ran");
            assert!(f.explore_len >= 1);
            assert_eq!(
                u64::from(f.explore_len),
                f.expected_epochs.div_ceil(2).clamp(1, 4),
                "tenant {} explore budget drifted from its stream shape",
                t.tenant
            );
        }
    }

    #[test]
    fn extended_pool_serves_identically_on_any_worker_count() {
        let specs: Vec<TenantSpec> = suite()
            .iter()
            .take(6)
            .map(|w| TenantSpec::record(w, 7, Scale::Test))
            .collect();
        let config = ServeConfig {
            policy: PolicyConfig {
                adaptive: true,
                candidates: rsel_core::select::SelectorKind::extended().to_vec(),
                ..PolicyConfig::default()
            },
            utility_evict: true,
            ..pressured_config()
        };
        let one = serve(&specs, &config, 1).unwrap();
        let eight = serve(&specs, &config, 8).unwrap();
        assert_eq!(one.report, eight.report, "extended pool is 1-vs-8 safe");
        assert_eq!(one.run_reports, eight.run_reports);
        assert_eq!(one.snapshot, eight.snapshot);
        assert_eq!(one.report.never_exploited(), 0);
        // Long-enough streams keep more than the core four candidates
        // — the extended pool is actually in play.
        assert!(
            one.report
                .tenants
                .iter()
                .any(|t| t.policy_features.is_some_and(|f| f.explore_len > 4)),
            "no tenant ever saw the extended candidates"
        );
    }
}
