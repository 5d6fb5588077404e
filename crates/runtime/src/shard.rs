//! The sharded shared-capacity map over every tenant's cached regions.
//!
//! Tenants keep private region namespaces (a region copied from one
//! tenant's program is never executable by another), but they compete
//! for shared cache capacity. The map tracks, per shard, how many
//! estimated bytes each tenant's live regions occupy. A region belongs
//! to the shard addressed by the fxhash of `(tenant, entry address)` —
//! or, in share mode, by its content key alone (see
//! [`shard_of_key`](crate::store::shard_of_key)) — so one tenant's
//! regions spread across shards and one shard mixes regions from many
//! tenants: capacity pressure is a property of the *shared* cache, not
//! of any single tenant.
//!
//! Occupancy is held sparsely, keyed by tenant id: a slot only stores
//! the tenants actually resident in it, so a 10k-tenant serve does not
//! pay `shards × tenants` dense entries (the old representation) for a
//! population where most tenants hold bytes in a few shards at a time.
//!
//! Workers update shards concurrently during a round (per-shard
//! locking; updates are commutative, so worker scheduling cannot leak
//! into results). All *decisions* — which shards are over budget, who
//! sheds — happen at the round barrier in deterministic order.

use rsel_program::Addr;
use rsel_program::fxhash::FxHasher;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hasher;
use std::sync::{Mutex, PoisonError};

/// The shard an entry of `tenant`'s cache maps to, out of
/// `shard_count`.
pub fn shard_of(tenant: u16, entry: Addr, shard_count: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_u16(tenant);
    h.write_u64(entry.raw());
    (h.finish() % shard_count as u64) as usize
}

/// One shard's occupancy: estimated bytes per resident tenant (sparse,
/// tenant-id-keyed), plus which tenants touched it this round.
#[derive(Debug, Default)]
struct Slot {
    /// Estimated bytes per tenant; zero-byte tenants are absent.
    bytes: BTreeMap<u16, u64>,
    /// Decayed recent cache heat per tenant — the utility-aware
    /// eviction planner's denominator. Kept in lockstep with `bytes`
    /// (a tenant dropping to zero bytes leaves both maps).
    recent: BTreeMap<u16, u64>,
    /// Tenants that published an update this round. Distinct count
    /// ≥ 2 means the shard's lock was shared by concurrent sessions
    /// this round — the contention metric. Small per round, so a
    /// linear-scanned vec beats a set.
    touched: Vec<u16>,
}

impl Slot {
    fn total(&self) -> u64 {
        self.bytes.values().sum()
    }

    fn set(&mut self, tenant: u16, bytes: u64, recent: u64) {
        if bytes == 0 {
            self.bytes.remove(&tenant);
            self.recent.remove(&tenant);
        } else {
            self.bytes.insert(tenant, bytes);
            self.recent.insert(tenant, recent);
        }
    }
}

/// Lifetime statistics for one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLifetime {
    /// Peak occupancy observed at any round barrier.
    pub peak_bytes: u64,
    /// Rounds in which two or more tenants updated this shard.
    pub contended_rounds: u64,
    /// Pressure waves: barriers at which the shard exceeded capacity
    /// (at most one per round, however many evictions resolving the
    /// wave took).
    pub pressure_waves: u64,
    /// Shed actions: individual eviction calls applied while resolving
    /// pressure waves (one wave may shed several times before the
    /// shard fits).
    pub shed_actions: u64,
    /// Regions evicted from this shard by pressure waves.
    pub evicted_regions: u64,
}

/// The sharded shared-capacity map.
///
/// Shared (`&self`) methods are safe to call from concurrent workers;
/// exclusive (`&mut self`) methods are barrier-only and lock-free.
///
/// Shard locks are poison-tolerant: every write to a slot is a single
/// assignment, so the data is consistent at whatever point a panicking
/// worker left it, and the scheduler quarantines the panicking tenant
/// at the next barrier anyway. One tenant's defect must not wedge the
/// map for everyone else.
#[derive(Debug)]
pub struct SharedCacheMap {
    slots: Vec<Mutex<Slot>>,
    capacity: u64,
    stats: Vec<ShardLifetime>,
}

impl SharedCacheMap {
    /// Creates a map of `shard_count` shards, each budgeted `capacity`
    /// estimated bytes. Occupancy is sparse, so the map's size scales
    /// with resident tenants, not the population.
    pub fn new(shard_count: usize, capacity: u64) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        SharedCacheMap {
            slots: (0..shard_count).map(|_| Mutex::default()).collect(),
            capacity,
            stats: vec![ShardLifetime::default(); shard_count],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Per-shard byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Publishes one tenant's new occupancy for the changed shards
    /// (worker-side, per-shard locking). `changes` triples a shard
    /// index with the tenant's new byte total and recent-heat total in
    /// that shard.
    pub fn publish(&self, tenant: u16, changes: &[(usize, u64, u64)]) {
        for &(shard, bytes, recent) in changes {
            let mut slot = self.slots[shard]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slot.set(tenant, bytes, recent);
            if !slot.touched.contains(&tenant) {
                slot.touched.push(tenant);
            }
        }
    }

    /// Barrier: folds this round's touches into the contention and
    /// peak statistics and clears them for the next round.
    pub fn end_round(&mut self) {
        for (slot, stat) in self.slots.iter_mut().zip(self.stats.iter_mut()) {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if slot.touched.len() >= 2 {
                stat.contended_rounds += 1;
            }
            slot.touched.clear();
            stat.peak_bytes = stat.peak_bytes.max(slot.total());
        }
    }

    /// Barrier: shard indices currently over the byte budget, in shard
    /// order.
    pub fn overflowing(&mut self) -> Vec<usize> {
        let capacity = self.capacity;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| {
                (s.get_mut().unwrap_or_else(PoisonError::into_inner).total() > capacity)
                    .then_some(i)
            })
            .collect()
    }

    /// Barrier: the resident tenants of `shard` with bytes and recent
    /// heat, in ascending tenant order — the unshared pressure
    /// planner's view. Zero-byte tenants are absent; a tenant that
    /// never published heat reads as zero.
    pub fn shard_load(&mut self, shard: usize) -> Vec<(u16, u64, u64)> {
        let slot = self.slots[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        slot.bytes
            .iter()
            .map(|(&t, &b)| (t, b, slot.recent.get(&t).copied().unwrap_or(0)))
            .collect()
    }

    /// Barrier: overwrites one tenant's byte and recent-heat totals in
    /// `shard` (zero bytes removes the tenant from the slot).
    pub fn set_load(&mut self, shard: usize, tenant: u16, bytes: u64, recent: u64) {
        self.slots[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .set(tenant, bytes, recent);
    }

    /// Barrier: records that `shard` was over capacity at this round's
    /// barrier — one pressure wave, regardless of how many shed
    /// actions resolving it takes.
    pub fn note_wave(&mut self, shard: usize) {
        self.stats[shard].pressure_waves += 1;
    }

    /// Barrier: records one shed action against `shard` that evicted
    /// `evicted` regions.
    pub fn note_shed(&mut self, shard: usize, evicted: u64) {
        self.stats[shard].shed_actions += 1;
        self.stats[shard].evicted_regions += evicted;
    }

    /// Barrier: drops a departing tenant's occupancy from every shard
    /// (its regions are reclaimed when the session completes),
    /// returning the bytes reclaimed.
    pub fn clear_tenant(&mut self, tenant: u16) -> u64 {
        let mut reclaimed = 0;
        for slot in &mut self.slots {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            reclaimed += slot.bytes.remove(&tenant).unwrap_or(0);
            slot.recent.remove(&tenant);
        }
        reclaimed
    }

    /// Current total occupancy across all shards.
    pub fn total_bytes(&mut self) -> u64 {
        self.slots
            .iter_mut()
            .map(|s| s.get_mut().unwrap_or_else(PoisonError::into_inner).total())
            .sum()
    }

    /// Final per-shard statistics, paired with each shard's closing
    /// occupancy.
    pub fn into_stats(mut self) -> Vec<(ShardLifetime, u64)> {
        let finals: Vec<u64> = self
            .slots
            .iter_mut()
            .map(|s| s.get_mut().unwrap_or_else(PoisonError::into_inner).total())
            .collect();
        self.stats.into_iter().zip(finals).collect()
    }
}

/// Orders two `(bytes, recent heat)` loads by eviction utility:
/// `Greater` when `a` holds more bytes per recent cached instruction,
/// i.e. is the better victim. The comparison cross-multiplies in u128
/// (`bytes / (heat + 1)` on both sides), so no float ever enters an
/// eviction decision.
pub(crate) fn by_utility(a: (u64, u64), b: (u64, u64)) -> Ordering {
    let ua = u128::from(a.0) * (u128::from(b.1) + 1);
    let ub = u128::from(b.0) * (u128::from(a.1) + 1);
    ua.cmp(&ub)
}

/// What one victim tenant sheds from a shard (see [`plan_shed`]).
pub(crate) struct Shed<I> {
    /// Regions to evict, in eviction order. Empty for a tenant whose
    /// published load no live region backed: its load is zeroed.
    pub ids: Vec<I>,
    /// The tenant's bytes in the shard once `ids` are gone.
    pub bytes_left: u64,
    /// The tenant's recent heat in the shard once `ids` are gone.
    pub heat_left: u64,
}

/// An unshared shard's pressure plan (see [`plan_shed`]).
pub(crate) struct ShedPlan<I> {
    /// Every victim tenant's shed, in ascending tenant order.
    pub victims: BTreeMap<u16, Shed<I>>,
    /// The regions each shed action doomed, in action order (zero for
    /// an action that only zeroed an unbacked load).
    pub sheds: Vec<u64>,
}

/// Plans how an unshared shard sheds back under `capacity`: a pure
/// function of the shard's load and the victims' regions, mirroring
/// [`RegionStore::plan_wave`](crate::RegionStore::plan_wave) for the
/// shared store.
///
/// `load` holds the shard's residents as `(tenant, bytes, recent
/// heat)` in ascending tenant order ([`SharedCacheMap::shard_load`]).
/// `regions(t)` lists tenant `t`'s live regions in the shard as `(id,
/// bytes, recent heat)` in selection order; it is called at most once
/// per tenant, and only for victims. Region ids are opaque here (the
/// scheduler passes `RegionId`s); only their order breaks ties.
///
/// Each shed action picks the resident with the most bytes per recent
/// cached instruction (ties to the larger footprint, then the lower
/// tenant id) and dooms the more evictable half of its remaining
/// regions: most bytes per recent instruction first, ties to the lower
/// region id. With `utility` off every heat reads as zero, so the
/// victim is the heaviest resident and its *oldest* half goes.
/// Actions repeat until the shard fits, or until the victim has
/// nothing left to shed.
pub(crate) fn plan_shed<I: Copy + Ord>(
    load: &[(u16, u64, u64)],
    capacity: u64,
    utility: bool,
    mut regions: impl FnMut(u16) -> Vec<(I, u64, u64)>,
) -> ShedPlan<I> {
    let heat = |h: u64| if utility { h } else { 0 };
    let mut left: Vec<(u16, u64, u64)> = load.iter().map(|&(t, b, h)| (t, b, heat(h))).collect();
    let mut remaining: BTreeMap<u16, VecDeque<(I, u64, u64)>> = BTreeMap::new();
    let mut plan = ShedPlan {
        victims: BTreeMap::new(),
        sheds: Vec::new(),
    };
    while left.iter().map(|&(_, b, _)| b).sum::<u64>() > capacity {
        let mut victim = 0usize;
        for (i, &(_, b, h)) in left.iter().enumerate() {
            let (_, vb, vh) = left[victim];
            if by_utility((b, h), (vb, vh)).then(b.cmp(&vb)) == Ordering::Greater {
                victim = i;
            }
        }
        let (tv, vb, _) = left[victim];
        if vb == 0 {
            break; // nothing shedable is left in this shard
        }
        let regs = remaining.entry(tv).or_insert_with(|| {
            let mut regs: Vec<_> = regions(tv)
                .into_iter()
                .map(|(id, b, h)| (id, b, heat(h)))
                .collect();
            if utility {
                regs.sort_unstable_by(|a, b| {
                    by_utility((b.1, b.2), (a.1, a.2)).then(a.0.cmp(&b.0))
                });
            }
            regs.into()
        });
        let shed = plan.victims.entry(tv).or_insert_with(|| Shed {
            ids: Vec::new(),
            bytes_left: 0,
            heat_left: 0,
        });
        if regs.is_empty() {
            // The map says the tenant holds bytes here but no live
            // region backs them; the zeroed shed stops the wave from
            // spinning on it.
            plan.sheds.push(0);
            break;
        }
        let count = regs.len().div_ceil(2);
        shed.ids.extend(regs.drain(..count).map(|(id, _, _)| id));
        plan.sheds.push(count as u64);
        shed.bytes_left = regs.iter().map(|&(_, b, _)| b).sum();
        shed.heat_left = regs.iter().map(|&(_, _, h)| h).sum();
        left[victim] = (tv, shed.bytes_left, shed.heat_left);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let a = Addr::new(0x4000);
        let s = shard_of(3, a, 16);
        assert_eq!(s, shard_of(3, a, 16), "same inputs, same shard");
        assert!(s < 16);
        // Tenant id separates namespaces: the same address usually maps
        // elsewhere for another tenant.
        let spread: std::collections::HashSet<usize> =
            (0..64u16).map(|t| shard_of(t, a, 16)).collect();
        assert!(spread.len() > 4, "tenants spread across shards");
    }

    #[test]
    fn publish_and_pressure_accounting() {
        let mut map = SharedCacheMap::new(4, 100);
        map.publish(0, &[(1, 60, 600)]);
        map.publish(1, &[(1, 70, 70)]);
        map.publish(2, &[(2, 10, 0)]);
        map.end_round();
        assert_eq!(map.overflowing(), vec![1]);
        assert_eq!(map.shard_load(1), vec![(0, 60, 600), (1, 70, 70)]);
        // Shard 1 saw two tenants this round; shard 2 only one.
        let stats = {
            map.set_load(1, 1, 0, 0);
            assert_eq!(map.shard_load(1), vec![(0, 60, 600)], "zero bytes drop out");
            assert_eq!(map.overflowing(), Vec::<usize>::new());
            // One wave over the shard, resolved by two shed actions.
            map.note_wave(1);
            map.note_shed(1, 3);
            map.note_shed(1, 2);
            map.clear_tenant(0);
            map.into_stats()
        };
        assert_eq!(stats[1].0.contended_rounds, 1);
        assert_eq!(stats[2].0.contended_rounds, 0);
        assert_eq!(stats[1].0.pressure_waves, 1);
        assert_eq!(stats[1].0.shed_actions, 2);
        assert_eq!(stats[1].0.evicted_regions, 5);
        assert_eq!(stats[1].0.peak_bytes, 130);
        assert_eq!(stats[1].1, 0, "shard 1 emptied");
        assert_eq!(stats[2].1, 10, "tenant 2 still resident");
    }

    #[test]
    fn clear_tenant_reclaims_everything() {
        let mut map = SharedCacheMap::new(2, 1000);
        map.publish(0, &[(0, 30, 3), (1, 40, 4)]);
        assert_eq!(map.total_bytes(), 70);
        assert_eq!(map.clear_tenant(0), 70);
        assert_eq!(map.total_bytes(), 0);
        assert_eq!(map.shard_load(0), vec![], "heat leaves with the tenant");
    }

    #[test]
    fn occupancy_is_sparse_in_the_tenant_population() {
        // Tenant ids far beyond any dense-vec sizing work immediately,
        // and only resident tenants occupy slot memory.
        let mut map = SharedCacheMap::new(2, 1000);
        map.publish(u16::MAX, &[(0, 5, 0)]);
        map.publish(9_999, &[(0, 7, 0)]);
        assert_eq!(map.shard_load(0), vec![(9_999, 7, 0), (u16::MAX, 5, 0)]);
        assert_eq!(map.clear_tenant(u16::MAX), 5);
        assert_eq!(map.shard_load(0), vec![(9_999, 7, 0)]);
    }

    #[test]
    fn set_load_keeps_heat_in_lockstep() {
        let mut map = SharedCacheMap::new(1, 1000);
        map.set_load(0, 4, 100, 50);
        assert_eq!(map.shard_load(0), vec![(4, 100, 50)]);
        // Zero bytes drops the heat with the tenant.
        map.set_load(0, 4, 0, 999);
        assert_eq!(map.shard_load(0), vec![]);
        map.set_load(0, 4, 10, 0);
        assert_eq!(map.total_bytes(), 10, "only the new bytes count");
    }

    /// One tenant's `(id, bytes, heat)` regions in selection order.
    type Regions = Vec<(u32, u64, u64)>;

    /// Tenant `t`'s regions for [`plan_shed`], from a fixed table.
    fn table(regions: &[(u16, Regions)]) -> impl FnMut(u16) -> Regions + '_ {
        move |t| {
            regions
                .iter()
                .find(|(rt, _)| *rt == t)
                .map(|(_, r)| r.clone())
                .unwrap_or_default()
        }
    }

    #[test]
    fn largest_first_ties_go_to_the_lower_tenant() {
        // Two residents of 40 B each, 20 B over budget: without
        // utility, the tie goes to tenant 2 (the lower id) and its
        // oldest region goes — one action sheds enough.
        let load = [(2, 40, 900), (5, 40, 0)];
        let regions = [
            (2, vec![(1, 20, 0), (2, 20, 0)]),
            (5, vec![(3, 20, 0), (4, 20, 0)]),
        ];
        let plan = plan_shed(&load, 60, false, table(&regions));
        assert_eq!(plan.sheds, vec![1]);
        assert_eq!(plan.victims.len(), 1);
        let shed = &plan.victims[&2];
        assert_eq!(shed.ids, vec![1]);
        assert_eq!((shed.bytes_left, shed.heat_left), (20, 0));
    }

    #[test]
    fn largest_first_sheds_the_oldest_half_until_the_shard_fits() {
        // Five regions in selection order; the oldest ceil(5/2) = 3
        // go first whatever their size, then the oldest of the two
        // left.
        let load = [(0, 150, 0)];
        let regions = [(
            0,
            vec![(9, 10, 0), (3, 50, 0), (7, 10, 0), (4, 40, 0), (5, 40, 0)],
        )];
        let plan = plan_shed(&load, 50, false, table(&regions));
        assert_eq!(plan.sheds, vec![3, 1]);
        assert_eq!(plan.victims[&0].ids, vec![9, 3, 7, 4]);
        assert_eq!(plan.victims[&0].bytes_left, 40);
    }

    #[test]
    fn utility_spares_the_hot_tenant_and_sheds_cold_bulk_first() {
        // Tenant 1 is the heaviest but hot; tenant 3 is smaller and
        // stone cold. Largest-first dooms tenant 1; utility dooms
        // tenant 3, its most bytes-per-heat region first.
        let load = [(1, 90, 10_000), (3, 60, 0)];
        let regions = [
            (1, vec![(1, 45, 5_000), (2, 45, 5_000)]),
            (3, vec![(6, 20, 3), (7, 40, 0)]),
        ];
        let plan = plan_shed(&load, 110, true, table(&regions));
        assert_eq!(plan.victims.keys().copied().collect::<Vec<_>>(), vec![3]);
        assert_eq!(plan.victims[&3].ids, vec![7]);
        assert_eq!(
            (plan.victims[&3].bytes_left, plan.victims[&3].heat_left),
            (20, 3)
        );
        let plain = plan_shed(&load, 110, false, table(&regions));
        assert_eq!(plain.victims.keys().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(plain.victims[&1].ids, vec![1]);
    }

    #[test]
    fn an_unbacked_load_is_zeroed_and_ends_the_wave() {
        // The map says tenant 4 holds 80 B, but it has no live region
        // in the shard: one zeroing action, then the wave stops even
        // though tenant 6 still overflows the budget.
        let load = [(4, 80, 0), (6, 50, 0)];
        let regions = [(6, vec![(1, 50, 0)])];
        let plan = plan_shed(&load, 10, false, table(&regions));
        assert_eq!(plan.sheds, vec![0]);
        assert_eq!(plan.victims.len(), 1);
        let shed = &plan.victims[&4];
        assert!(shed.ids.is_empty());
        assert_eq!((shed.bytes_left, shed.heat_left), (0, 0));
    }

    #[test]
    fn utility_order_cross_multiplies_and_breaks_no_ties() {
        assert_eq!(by_utility((10, 0), (10, 0)), Ordering::Equal);
        assert_eq!(by_utility((10, 0), (5, 0)), Ordering::Greater);
        // 30 B over 2 heat beats 50 B over 9: 30/3 > 50/10.
        assert_eq!(by_utility((30, 2), (50, 9)), Ordering::Greater);
        // Full-range operands cannot overflow.
        assert_eq!(
            by_utility((u64::MAX, u64::MAX), (u64::MAX, u64::MAX)),
            Ordering::Equal
        );
    }
}
