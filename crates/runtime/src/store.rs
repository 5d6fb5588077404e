//! The content-addressed shared region store: cross-tenant dedup.
//!
//! Tenants replaying the same workload+seed build byte-identical
//! regions, yet the capacity map alone charges every tenant for its
//! own copy — homogeneous traffic scales cache bytes linearly with
//! tenant count and triggers avoidable pressure waves. The store
//! collapses that: each cached region's canonical content (kind,
//! entry, per-block starts/lengths/terminators, the successor edges)
//! is fxhashed into a [`region_key`], and identical keys share one
//! refcounted [`StoreEntry`] per shard. A tenant inserting an
//! already-present region takes a *ref* instead of new bytes, so the
//! shard charges unique bytes once while per-tenant logical bytes
//! remain reported through the [`SharedCacheMap`](crate::SharedCacheMap).
//!
//! In share mode a region belongs to the shard addressed by its
//! *content key* (tenant-independent — see [`shard_of_key`]), so
//! identical regions from different tenants always colocate and the
//! per-shard unique-byte budget is meaningful. Pressure eviction
//! becomes refcount-aware: an overflowing shard plans a victim set of
//! *entries* (largest unique bytes first), and evicting a shared entry
//! deterministically drops every referencing tenant's region at the
//! barrier.
//!
//! # Determinism
//!
//! Worker-side [`acquire`](RegionStore::acquire) /
//! [`release`](RegionStore::release) calls are commutative refcount
//! updates under per-shard locks: different tenants touch different
//! holder slots, and the holder list is kept sorted, so the final
//! state of a round cannot depend on worker scheduling. Every
//! *metric* (unique bytes, logical bytes, shared refs) is derived at
//! the round barrier from that final state — never from racy
//! insert-time "dedup hit" observations — which is what keeps a
//! shared serve byte-identical for every worker count.
//!
//! Like the capacity map, shard locks are poison-tolerant: each
//! mutation leaves the entry consistent, and a panicking tenant is
//! quarantined at the next barrier (releasing its refs via
//! [`release_tenant`](RegionStore::release_tenant), which needs no
//! access to the lost session).

use crate::shard::{SharedCacheMap, by_utility};
use rsel_core::Region;
use rsel_program::InstKind;
use rsel_program::fxhash::FxHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::{Mutex, PoisonError};

/// The content key of a region: an fxhash over the workload name and
/// the region's canonical shape — kind, entry, every block's start,
/// instruction count, byte size, and terminator, and every block's
/// successor list. Two regions with equal keys are byte-identical for
/// capacity purposes (same blocks, same edges, same stubs, same size
/// estimate).
///
/// The workload name is part of the content: regions from different
/// programs live in different address spaces, so equal shapes across
/// workloads must not alias.
pub fn region_key(workload: &str, region: &Region) -> u64 {
    let mut h = FxHasher::default();
    h.write(workload.as_bytes());
    h.write_u8(region.kind() as u8);
    h.write_u64(region.entry().raw());
    h.write_usize(region.blocks().len());
    for b in region.blocks() {
        h.write_u64(b.start().raw());
        h.write_u32(b.inst_count());
        h.write_u64(b.byte_size());
        match b.terminator() {
            InstKind::Straight => h.write_u8(0),
            InstKind::CondBranch { target } => {
                h.write_u8(1);
                h.write_u64(target.raw());
            }
            InstKind::Jump { target } => {
                h.write_u8(2);
                h.write_u64(target.raw());
            }
            InstKind::IndirectJump => h.write_u8(3),
            InstKind::Call { target } => {
                h.write_u8(4);
                h.write_u64(target.raw());
            }
            InstKind::IndirectCall => h.write_u8(5),
            InstKind::Ret => h.write_u8(6),
        }
        let succ = region.successors(b.start());
        h.write_usize(succ.len());
        for s in succ {
            h.write_u64(s.raw());
        }
    }
    h.finish()
}

/// The shard a content key maps to, out of `shard_count` — the share
/// mode counterpart of [`shard_of`](crate::shard_of). Deliberately
/// tenant-independent: identical content must colocate or nothing
/// dedups.
pub fn shard_of_key(key: u64, shard_count: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_u64(key);
    (h.finish() % shard_count as u64) as usize
}

/// One deduplicated region: its size estimate and the sorted list of
/// tenants currently holding a ref.
///
/// Holding the tenant ids (not just a count) is what lets quarantine
/// and `clear_tenant` release refs when the session itself is lost,
/// and lets the barrier drop every referencing tenant's region when
/// the entry is evicted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreEntry {
    /// Estimated bytes of the shared content (charged once).
    pub bytes: u64,
    /// Tenants holding a ref, ascending.
    pub holders: Vec<u16>,
    /// Each holder's last-published recent heat (decayed cached
    /// instructions from its copy of the region), in lockstep with
    /// `holders`. The utility-aware wave planner sums these so an
    /// entry hot in fifty tenants outranks a cold private one.
    pub recent: Vec<u64>,
}

impl StoreEntry {
    /// Total recent heat across every holder — the shared entry's
    /// utility denominator.
    pub fn total_recent(&self) -> u64 {
        self.recent.iter().sum()
    }
}

/// One shard's entries plus its incrementally-maintained unique-byte
/// total.
#[derive(Debug, Default)]
struct StoreShard {
    entries: BTreeMap<u64, StoreEntry>,
    unique: u64,
}

impl StoreShard {
    fn logical(&self) -> u64 {
        self.entries
            .values()
            .map(|e| e.bytes * e.holders.len() as u64)
            .sum()
    }

    /// Refs beyond the first holder of each entry — the copies dedup
    /// avoided storing.
    fn shared_refs(&self) -> u64 {
        self.entries
            .values()
            .map(|e| (e.holders.len() as u64).saturating_sub(1))
            .sum()
    }
}

/// Peak statistics for one store shard, folded at each round barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreShardStats {
    /// Peak unique (deduplicated) bytes observed at any barrier.
    pub peak_unique_bytes: u64,
    /// Peak logical (sum over holders) bytes observed at any barrier.
    pub peak_logical_bytes: u64,
    /// Peak count of shared refs (refs beyond each entry's first
    /// holder) observed at any barrier.
    pub peak_shared_refs: u64,
}

/// Run-wide peak totals, folded at each round barrier. `unique` and
/// `logical` are sampled at the same barrier, so their ratio is a real
/// observed dedup factor, not a mix of different moments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreTotals {
    /// Peak total unique bytes across all shards.
    pub unique_bytes: u64,
    /// Total logical bytes at the barrier where the peak was observed.
    pub logical_bytes: u64,
    /// Peak total shared refs across all shards.
    pub shared_refs: u64,
}

impl StoreTotals {
    /// Logical over unique bytes at the peak-occupancy barrier: how
    /// many copies of the average byte the store avoided holding. 1.0
    /// when nothing was ever shared, 0.0 when the store never held
    /// anything (share mode off or an empty run).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_bytes == 0 {
            0.0
        } else {
            self.logical_bytes as f64 / self.unique_bytes as f64
        }
    }
}

/// The per-shard, refcounted, content-addressed region store.
///
/// Shared (`&self`) methods are safe from concurrent workers;
/// exclusive (`&mut self`) methods are barrier-only and lock-free.
#[derive(Debug)]
pub struct RegionStore {
    shards: Vec<Mutex<StoreShard>>,
    stats: Vec<StoreShardStats>,
    totals: StoreTotals,
}

impl RegionStore {
    /// Creates an empty store of `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        RegionStore {
            shards: (0..shard_count).map(|_| Mutex::default()).collect(),
            stats: vec![StoreShardStats::default(); shard_count],
            totals: StoreTotals::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker side: `tenant` takes a ref on content `key` in `shard`.
    /// The first holder charges `bytes` of unique capacity; later
    /// holders are pure refs.
    pub fn acquire(&self, shard: usize, key: u64, bytes: u64, tenant: u16) {
        let mut s = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = s.entries.entry(key).or_insert_with(|| StoreEntry {
            bytes: 0,
            holders: Vec::new(),
            recent: Vec::new(),
        });
        if entry.holders.is_empty() {
            entry.bytes = bytes;
        } else {
            debug_assert_eq!(
                entry.bytes, bytes,
                "content key {key:#x} collided across different sizes"
            );
        }
        match entry.holders.binary_search(&tenant) {
            // A tenant's cache holds at most one region per entry
            // address, and the entry address is part of the content —
            // a double acquire means the session's bookkeeping drifted.
            Ok(_) => debug_assert!(false, "tenant {tenant} double-acquired key {key:#x}"),
            Err(i) => {
                entry.holders.insert(i, tenant);
                entry.recent.insert(i, 0);
            }
        }
        if entry.holders.len() == 1 {
            s.unique += entry.bytes;
        }
    }

    /// Worker side: `tenant` drops its ref on `key` in `shard`; the
    /// last ref out removes the entry and its unique bytes. Releasing
    /// a key the store no longer holds is a no-op (the barrier may
    /// already have evicted the entry out from under the session).
    pub fn release(&self, shard: usize, key: u64, tenant: u16) {
        let mut s = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(entry) = s.entries.get_mut(&key) else {
            return;
        };
        if let Ok(i) = entry.holders.binary_search(&tenant) {
            entry.holders.remove(i);
            entry.recent.remove(i);
            if entry.holders.is_empty() {
                let bytes = entry.bytes;
                s.entries.remove(&key);
                s.unique -= bytes;
            }
        }
    }

    /// Worker side: `tenant` publishes the recent heat of its copy of
    /// content `key` in `shard`. Each tenant writes only its own slot
    /// of the entry's heat vector, so concurrent publishes commute;
    /// a key the store no longer holds (or a ref the barrier already
    /// dropped) is a no-op.
    pub fn publish_heat(&self, shard: usize, key: u64, tenant: u16, heat: u64) {
        let mut s = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = s.entries.get_mut(&key) {
            if let Ok(i) = entry.holders.binary_search(&tenant) {
                entry.recent[i] = heat;
            }
        }
    }

    /// Barrier: drops every ref `tenant` holds anywhere — the
    /// departure/quarantine path, usable even when the tenant's
    /// session (and its key bookkeeping) is lost. Returns the refs
    /// released.
    pub fn release_tenant(&mut self, tenant: u16) -> u64 {
        let mut released = 0;
        for shard in &mut self.shards {
            let s = shard.get_mut().unwrap_or_else(PoisonError::into_inner);
            let mut dead = Vec::new();
            for (&key, entry) in s.entries.iter_mut() {
                if let Ok(i) = entry.holders.binary_search(&tenant) {
                    entry.holders.remove(i);
                    entry.recent.remove(i);
                    released += 1;
                    if entry.holders.is_empty() {
                        dead.push((key, entry.bytes));
                    }
                }
            }
            for (key, bytes) in dead {
                s.entries.remove(&key);
                s.unique -= bytes;
            }
        }
        released
    }

    /// Barrier: folds this round's occupancy into the per-shard and
    /// run-wide peaks.
    pub fn end_round(&mut self) {
        let mut unique = 0;
        let mut logical = 0;
        let mut refs = 0;
        for (shard, stat) in self.shards.iter_mut().zip(self.stats.iter_mut()) {
            let s = shard.get_mut().unwrap_or_else(PoisonError::into_inner);
            let (u, l, r) = (s.unique, s.logical(), s.shared_refs());
            stat.peak_unique_bytes = stat.peak_unique_bytes.max(u);
            stat.peak_logical_bytes = stat.peak_logical_bytes.max(l);
            stat.peak_shared_refs = stat.peak_shared_refs.max(r);
            unique += u;
            logical += l;
            refs += r;
        }
        if unique > self.totals.unique_bytes {
            self.totals.unique_bytes = unique;
            self.totals.logical_bytes = logical;
        }
        self.totals.shared_refs = self.totals.shared_refs.max(refs);
    }

    /// Barrier: shard indices whose *unique* bytes exceed `capacity`,
    /// in shard order.
    pub fn overflowing(&mut self, capacity: u64) -> Vec<usize> {
        self.shards
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| {
                (s.get_mut().unwrap_or_else(PoisonError::into_inner).unique > capacity).then_some(i)
            })
            .collect()
    }

    /// Barrier: plans and applies one pressure wave against `shard`:
    /// victim entries are removed from the store until the shard's
    /// unique bytes fit `capacity`, and returned with their holder
    /// lists so the scheduler can drop every referencing tenant's
    /// region — a pure function of the shard's content either way.
    ///
    /// With `utility` off, victims are chosen largest-unique-bytes
    /// first (key ascending on ties) — the legacy policy. With it on,
    /// the order is worst utility first: highest `bytes / (V + 1)`
    /// where `V` sums every holder's published recent heat, compared
    /// by pure-integer cross-multiplication (no float ties), so a
    /// region hot in fifty tenants is not doomed before a cold
    /// private one. Ties break bytes descending, then key ascending.
    pub fn plan_wave(
        &mut self,
        shard: usize,
        capacity: u64,
        utility: bool,
    ) -> Vec<(u64, StoreEntry)> {
        let s = self.shards[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        // (bytes, total recent heat, key) per entry.
        let mut order: Vec<(u64, u64, u64)> = s
            .entries
            .iter()
            .map(|(&k, e)| (e.bytes, e.total_recent(), k))
            .collect();
        if utility {
            order.sort_unstable_by(|a, b| {
                by_utility((b.0, b.1), (a.0, a.1))
                    .then(b.0.cmp(&a.0))
                    .then(a.2.cmp(&b.2))
            });
        } else {
            order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.2.cmp(&b.2)));
        }
        let mut doomed = Vec::new();
        for (bytes, _, key) in order {
            if s.unique <= capacity {
                break;
            }
            let entry = s.entries.remove(&key).expect("planned from live entries");
            s.unique -= bytes;
            doomed.push((key, entry));
        }
        doomed
    }

    /// Barrier: current unique bytes held in `shard`.
    pub fn unique_bytes(&mut self, shard: usize) -> u64 {
        self.shards[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .unique
    }

    /// Barrier: current logical bytes (sum over holders) in `shard`.
    pub fn logical_bytes(&mut self, shard: usize) -> u64 {
        self.shards[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .logical()
    }

    /// Barrier: total refs currently held across all shards (the sum
    /// over entries of their holder counts).
    pub fn total_refs(&mut self) -> u64 {
        self.shards
            .iter_mut()
            .map(|s| {
                s.get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .values()
                    .map(|e| e.holders.len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Barrier: live entries across all shards.
    pub fn total_entries(&mut self) -> u64 {
        self.shards
            .iter_mut()
            .map(|s| {
                s.get_mut()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len() as u64
            })
            .sum()
    }

    /// Debug check: no entry is empty-held and every shard's cached
    /// unique total matches its entries. Cheap enough for barriers in
    /// debug builds.
    pub fn check_invariants(&mut self) {
        for shard in &mut self.shards {
            let s = shard.get_mut().unwrap_or_else(PoisonError::into_inner);
            let recomputed: u64 = s.entries.values().map(|e| e.bytes).sum();
            debug_assert_eq!(s.unique, recomputed, "unique-byte ledger drifted");
            debug_assert!(
                s.entries.values().all(|e| !e.holders.is_empty()),
                "dangling entry with no holders"
            );
            debug_assert!(
                s.entries
                    .values()
                    .all(|e| e.holders.windows(2).all(|w| w[0] < w[1])),
                "holder list unsorted or duplicated"
            );
            debug_assert!(
                s.entries
                    .values()
                    .all(|e| e.recent.len() == e.holders.len()),
                "heat vector fell out of lockstep with the holders"
            );
        }
    }

    /// Run-wide peak totals so far.
    pub fn totals(&self) -> StoreTotals {
        self.totals
    }

    /// Final per-shard peak statistics.
    pub fn into_stats(self) -> Vec<StoreShardStats> {
        self.stats
    }
}

/// Barrier-side consistency check between the store and the capacity
/// map in share mode: every shard's logical bytes (store view) must
/// equal the tenants' published occupancy (map view). Debug builds
/// call this each round.
pub fn debug_check_consistency(store: &mut RegionStore, map: &mut SharedCacheMap) {
    if cfg!(debug_assertions) {
        for shard in 0..store.shard_count() {
            let store_logical = store.logical_bytes(shard);
            let map_logical: u64 = map.shard_load(shard).iter().map(|&(_, b, _)| b).sum();
            debug_assert_eq!(
                store_logical, map_logical,
                "share-mode ledgers disagree on shard {shard}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refs_share_bytes_and_release_cleans_up() {
        let mut store = RegionStore::new(2);
        store.acquire(0, 0xabc, 100, 1);
        store.acquire(0, 0xabc, 100, 0);
        store.acquire(1, 0xdef, 40, 0);
        assert_eq!(store.unique_bytes(0), 100, "one copy charged");
        assert_eq!(store.logical_bytes(0), 200, "two refs reported");
        assert_eq!(store.total_refs(), 3);
        store.end_round();
        assert_eq!(store.totals().unique_bytes, 140);
        assert_eq!(store.totals().logical_bytes, 240);
        assert_eq!(store.totals().shared_refs, 1);
        store.release(0, 0xabc, 0);
        assert_eq!(store.unique_bytes(0), 100, "a ref out keeps the entry");
        store.release(0, 0xabc, 1);
        assert_eq!(store.unique_bytes(0), 0, "last ref out removes it");
        assert_eq!(store.total_entries(), 1);
        store.release(0, 0xabc, 1); // double release is a no-op
        store.check_invariants();
    }

    #[test]
    fn release_tenant_drops_every_ref_without_dangling_entries() {
        let mut store = RegionStore::new(2);
        store.acquire(0, 1, 10, 0);
        store.acquire(0, 1, 10, 1);
        store.acquire(1, 2, 20, 0);
        assert_eq!(store.release_tenant(0), 2);
        store.check_invariants();
        assert_eq!(store.unique_bytes(0), 10, "tenant 1 still holds key 1");
        assert_eq!(store.unique_bytes(1), 0, "tenant 0's private entry died");
        assert_eq!(store.release_tenant(0), 0, "idempotent");
    }

    #[test]
    fn plan_wave_evicts_largest_entries_first_until_fit() {
        let mut store = RegionStore::new(1);
        store.acquire(0, 10, 50, 0);
        store.acquire(0, 11, 30, 0);
        store.acquire(0, 11, 30, 1);
        store.acquire(0, 12, 30, 1);
        assert_eq!(store.unique_bytes(0), 110);
        let doomed = store.plan_wave(0, 40, false);
        // 50 goes first, then the tied 30s in key order; 30 remains.
        assert_eq!(doomed.len(), 2);
        assert_eq!(doomed[0].0, 10);
        assert_eq!(doomed[0].1.holders, vec![0]);
        assert_eq!(doomed[1].0, 11);
        assert_eq!(doomed[1].1.holders, vec![0, 1], "shared entry drops all");
        assert_eq!(store.unique_bytes(0), 30);
        store.check_invariants();
    }

    #[test]
    fn utility_wave_spares_hot_and_widely_held_entries() {
        let mut store = RegionStore::new(1);
        // A large but hot private entry...
        store.acquire(0, 10, 50, 0);
        store.publish_heat(0, 10, 0, 1000);
        // ...a small entry shared by two tenants with modest heat...
        store.acquire(0, 11, 30, 0);
        store.acquire(0, 11, 30, 1);
        store.publish_heat(0, 11, 0, 40);
        store.publish_heat(0, 11, 1, 40);
        // ...and a stone-cold private entry.
        store.acquire(0, 12, 30, 1);
        assert_eq!(store.unique_bytes(0), 110);
        // Max-bytes would doom key 10 first; utility dooms the cold
        // key 12 (30 bytes / 1) ahead of the shared key 11
        // (30 / 81) and the hot key 10 (50 / 1001).
        let doomed = store.plan_wave(0, 60, true);
        assert_eq!(doomed.len(), 2);
        assert_eq!(doomed[0].0, 12, "cold private entry goes first");
        assert_eq!(doomed[1].0, 11, "then the lukewarm shared one");
        assert_eq!(store.unique_bytes(0), 50, "the hot entry survives");
        store.check_invariants();
    }

    #[test]
    fn publish_heat_tracks_holders_and_tolerates_dead_keys() {
        let mut store = RegionStore::new(1);
        store.acquire(0, 7, 10, 2);
        store.acquire(0, 7, 10, 5);
        store.publish_heat(0, 7, 5, 99);
        store.publish_heat(0, 7, 2, 11);
        store.publish_heat(0, 999, 2, 5); // unknown key: no-op
        store.publish_heat(0, 7, 9, 5); // non-holder: no-op
        let doomed = store.plan_wave(0, 0, true);
        assert_eq!(doomed.len(), 1);
        assert_eq!(doomed[0].1.holders, vec![2, 5]);
        assert_eq!(doomed[0].1.recent, vec![11, 99], "heat rides in lockstep");
        assert_eq!(doomed[0].1.total_recent(), 110);
        // Releasing drops the heat slot with the holder.
        store.acquire(0, 8, 10, 2);
        store.acquire(0, 8, 10, 5);
        store.publish_heat(0, 8, 2, 7);
        store.release(0, 8, 2);
        store.publish_heat(0, 8, 2, 3); // released ref: no-op
        store.check_invariants();
        let doomed = store.plan_wave(0, 0, true);
        assert_eq!(doomed[0].1.holders, vec![5]);
        assert_eq!(doomed[0].1.recent, vec![0]);
    }

    #[test]
    fn shard_of_key_is_stable_and_tenant_independent() {
        let s = shard_of_key(0x1234, 16);
        assert_eq!(s, shard_of_key(0x1234, 16));
        assert!(s < 16);
        let spread: std::collections::HashSet<usize> =
            (0..64u64).map(|k| shard_of_key(k, 16)).collect();
        assert!(spread.len() > 4, "keys spread across shards");
    }
}
