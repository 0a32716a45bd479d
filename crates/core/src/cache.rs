//! Persistent cross-resolution block-synthesis cache.
//!
//! The paper's designers amortized block design effort by reusing layouts:
//! the 10/11/12/13-bit flows share many `(m, input-accuracy)` MDAC blocks
//! whose derived requirements are *numerically identical* (capacitor
//! sizing, settling and gain budgets depend on the stage spec and process,
//! not the total resolution). [`SharedCache`] makes that reuse mechanical:
//! it outlives a candidate set and a `flow` resolution run, keyed by
//! `(template, normalized spec)`, and is the one cache implementation the
//! flow consults. Batch callers hold a one-shard cache ([`SharedCache::new`])
//! by exclusive borrow; [`BlockCache`] is its name in their signatures.
//!
//! Two reuse tiers:
//!
//! * **Exact hits** — an entry whose normalized requirement fingerprint
//!   matches skips synthesis entirely.
//! * **Near hits** — the closest same-template entry (in the paper's
//!   `16·Δm + ΔA` block metric) seeds a warm-started retargeting run for a
//!   block that must still be synthesized.
//!
//! The [`CachePolicy`] decides how much provenance an exact hit must carry:
//!
//! * [`CachePolicy::Reproducible`] (default) only reuses an entry whose
//!   **provenance fingerprint** — a hash chain over the exact requirement
//!   bits, the synthesis config and the whole warm-start ancestry — matches
//!   what the current plan would compute, and never seeds near hits.
//!   Synthesis is deterministic in those inputs, so a hit is bit-identical
//!   to re-running the block: cached, cache-cold and serial-oracle runs all
//!   produce the same candidate sets (property-tested).
//! * [`CachePolicy::Aggressive`] reuses any entry for the same normalized
//!   spec and config regardless of how it was warm-started, and seeds near
//!   hits. Results stay deterministic *given the cache state* (the serial
//!   and parallel executors still agree bit for bit) but may differ from a
//!   cache-cold run — the trade the multi-resolution flow makes for its
//!   wall-clock win.

use crate::flow::{OtaRequirements, TemplateKind};
use adc_numerics::quant::Fingerprint;
use adc_synth::SynthResult;
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Reuse policy of a [`SharedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Only provenance-exact hits; no near-hit seeding. Bit-identical to
    /// cache-cold synthesis.
    #[default]
    Reproducible,
    /// Any same-spec/same-config hit; near hits seed warm starts. Maximum
    /// reuse, deterministic given the cache state.
    Aggressive,
}

/// Cumulative counters over the lifetime of a [`SharedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-hit lookups attempted.
    pub lookups: usize,
    /// Exact hits (synthesis skipped).
    pub hits: usize,
    /// Near hits handed out as warm-start seeds.
    pub near_seeds: usize,
    /// Entries inserted (dedup'd re-inserts not counted).
    pub insertions: usize,
    /// Entries dropped because their stored result no longer matched the
    /// integrity fingerprint stamped at commit time (bit rot, corrupted
    /// storage, or an injected `cache_commit` fault).
    pub corrupt_dropped: usize,
}

/// One cached block synthesis.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// `(m, input_accuracy)` reuse key — the coordinate of the near-hit
    /// distance metric.
    pub key: (u32, u32),
    /// Exact requirements the block was synthesized for.
    pub req: OtaRequirements,
    /// The synthesis result.
    pub result: SynthResult,
    /// Provenance fingerprint: hash chain over the exact requirement bits,
    /// config fingerprint and warm-start ancestry that produced `result`.
    pub provenance: u64,
    /// Fingerprint of the run configuration (process, budget/seed,
    /// evaluator options) the result was computed under. Every reuse tier
    /// filters on it: results from a different config never alias, even
    /// under [`CachePolicy::Aggressive`].
    pub config: u64,
}

/// Most entries kept per `(template, normalized spec)` bucket: distinct
/// provenance chains for the same spec (reached from different resolutions)
/// coexist, bounded so the cache cannot grow without limit.
const BUCKET_CAP: usize = 4;

/// Content fingerprint of a stored synthesis result — the integrity stamp
/// verified on every lookup so a corrupted entry is dropped instead of
/// poisoning a provenance-exact replay.
fn result_integrity(r: &SynthResult) -> u64 {
    let mut fp = Fingerprint::new();
    for &x in &r.best_x {
        fp = fp.add_f64_exact(x);
    }
    for &u in &r.best_u {
        fp = fp.add_f64_exact(u);
    }
    fp.add_f64_exact(r.best_cost)
        .add_u64(u64::from(r.feasible))
        .add_u64(r.evaluations as u64)
        .finish()
}

/// A cache entry plus the integrity stamp computed when it was committed.
#[derive(Debug, Clone)]
struct StoredEntry {
    entry: CacheEntry,
    integrity: u64,
}

/// One lock's worth of a [`SharedCache`]: the block store keyed by
/// `(template, normalized spec)`; see the module docs for the reuse tiers
/// and policies.
#[derive(Debug, Default)]
struct Shard {
    policy: CachePolicy,
    /// `(template tag, normalized spec fingerprint)` → entries, newest
    /// first. `BTreeMap` so every scan order is deterministic.
    buckets: BTreeMap<(u8, u64), Vec<StoredEntry>>,
    stats: CacheStats,
}

/// The paper's block-distance metric: resolution differences dominate
/// (16 ×), accuracy differences break ties — the same metric the in-set
/// warm-start planner uses, so cached and planned sources compete fairly.
#[must_use]
pub fn key_distance(a: (u32, u32), b: (u32, u32)) -> i64 {
    (i64::from(a.0) - i64::from(b.0)).abs() * 16 + (i64::from(a.1) - i64::from(b.1)).abs()
}

impl Shard {
    fn new(policy: CachePolicy) -> Self {
        Shard {
            policy,
            ..Shard::default()
        }
    }

    fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// [`SharedCache::lookup`] within this shard.
    fn lookup(
        &mut self,
        template: TemplateKind,
        spec_fp: u64,
        req: &OtaRequirements,
        provenance: u64,
        config: u64,
    ) -> Option<CacheEntry> {
        self.stats.lookups += 1;
        let bucket = self.buckets.get_mut(&(template.tag(), spec_fp))?;
        // Integrity sweep: entries whose stored result drifted from the
        // stamp taken at commit time are dropped, never served.
        let before = bucket.len();
        bucket.retain(|s| s.integrity == result_integrity(&s.entry.result));
        self.stats.corrupt_dropped += before - bucket.len();
        let found = match self.policy {
            CachePolicy::Reproducible => bucket.iter().find(|s| {
                s.entry.config == config && s.entry.provenance == provenance && s.entry.req == *req
            }),
            CachePolicy::Aggressive => bucket.iter().find(|s| s.entry.config == config),
        };
        let hit = found.map(|s| s.entry.clone());
        if hit.is_some() {
            self.stats.hits += 1;
        }
        hit
    }

    /// The policy-free core of [`SharedCache::nearest`]: sweeps integrity,
    /// then returns the best entry with its `(distance, spec_fp)` score.
    /// Scan order is ascending `(template, spec_fp)` with strict `<`, so
    /// the winner is the minimum under `(distance, spec_fp, bucket index)`
    /// — the ordering [`SharedCache`] merges shard-local winners by to stay
    /// shard-count-invariant. Does not count `near_seeds` (the caller owns
    /// the accounting).
    fn nearest_scored(
        &mut self,
        template: TemplateKind,
        key: (u32, u32),
        better_than: Option<i64>,
        config: u64,
    ) -> Option<(i64, u64, CacheEntry)> {
        let tag = template.tag();
        // Integrity sweep over every bucket the scan would touch.
        for ((t, _), bucket) in self.buckets.iter_mut() {
            if *t != tag {
                continue;
            }
            let before = bucket.len();
            bucket.retain(|s| s.integrity == result_integrity(&s.entry.result));
            self.stats.corrupt_dropped += before - bucket.len();
        }
        let mut best: Option<(u64, &CacheEntry)> = None;
        let mut best_dist = better_than.unwrap_or(i64::MAX);
        for ((t, fp), bucket) in &self.buckets {
            if *t != tag {
                continue;
            }
            for e in bucket
                .iter()
                .map(|s| &s.entry)
                .filter(|e| e.config == config)
            {
                let d = key_distance(e.key, key);
                if d < best_dist {
                    best = Some((*fp, e));
                    best_dist = d;
                }
            }
        }
        best.map(|(fp, e)| (best_dist, fp, e.clone()))
    }

    /// [`SharedCache::insert`] within this shard; buckets keep the newest
    /// `BUCKET_CAP` provenance chains.
    fn insert(&mut self, template: TemplateKind, spec_fp: u64, entry: CacheEntry) {
        let bucket = self.buckets.entry((template.tag(), spec_fp)).or_default();
        if bucket
            .iter()
            .any(|s| s.entry.provenance == entry.provenance)
        {
            return;
        }
        // Stamp from the clean result; an injected commit-time corruption
        // mutates the *stored* copy afterwards, so the stamp catches it.
        let integrity = result_integrity(&entry.result);
        #[allow(unused_mut)]
        let mut stored = StoredEntry { entry, integrity };
        #[cfg(feature = "faults")]
        if let Some(action) = adc_numerics::faults::check(adc_numerics::faults::SITE_CACHE_COMMIT) {
            match action {
                adc_numerics::faults::FaultAction::Corrupt => {
                    stored.entry.result.best_cost += 1.0;
                }
                adc_numerics::faults::FaultAction::Panic => {
                    panic!("injected fault: cache_commit panic")
                }
                _ => {}
            }
        }
        bucket.insert(0, stored);
        bucket.truncate(BUCKET_CAP);
        self.stats.insertions += 1;
    }

    /// Appends every stored entry (with its commit-time integrity stamp)
    /// to `out` — the snapshot export surface. Emission order is the
    /// deterministic bucket order: ascending `(template, spec_fp)`, then
    /// newest-first within a bucket.
    fn export_into(&self, out: &mut Vec<SnapshotEntry>) {
        for ((_, fp), bucket) in &self.buckets {
            for s in bucket {
                out.push(SnapshotEntry {
                    spec_fp: *fp,
                    entry: s.entry.clone(),
                    integrity: s.integrity,
                });
            }
        }
    }

    /// Restores one snapshot entry, re-verifying the persisted integrity
    /// stamp against the (re-computed) content fingerprint of the loaded
    /// result: an entry corrupted on disk — or by an injected
    /// `cache_commit` fault on the load path — is dropped and counted in
    /// [`CacheStats::corrupt_dropped`], never stored. Entries are appended
    /// in call order, so restoring a snapshot in export order rebuilds the
    /// original newest-first buckets. Returns whether the entry was kept.
    fn restore(&mut self, e: SnapshotEntry) -> bool {
        #[allow(unused_mut)]
        let mut e = e;
        #[cfg(feature = "faults")]
        if let Some(adc_numerics::faults::FaultAction::Corrupt) =
            adc_numerics::faults::check(adc_numerics::faults::SITE_CACHE_COMMIT)
        {
            e.entry.result.best_cost += 1.0;
        }
        if result_integrity(&e.entry.result) != e.integrity {
            self.stats.corrupt_dropped += 1;
            return false;
        }
        let bucket = self
            .buckets
            .entry((e.entry.req.template.tag(), e.spec_fp))
            .or_default();
        if bucket.len() >= BUCKET_CAP
            || bucket
                .iter()
                .any(|s| s.entry.provenance == e.entry.provenance)
        {
            return false;
        }
        bucket.push(StoredEntry {
            entry: e.entry,
            integrity: e.integrity,
        });
        true
    }
}

/// One exported cache entry: the [`CacheEntry`] plus its normalized-spec
/// bucket fingerprint and commit-time integrity stamp — everything the
/// snapshot format persists per entry. The bucket template rides inside
/// `entry.req.template`.
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// `(stage ⊕ normalized requirement)` bucket fingerprint.
    pub spec_fp: u64,
    /// The cached synthesis.
    pub entry: CacheEntry,
    /// Content fingerprint stamped at commit time, re-verified on restore.
    pub integrity: u64,
}

/// Default shard count of a [`SharedCache`] — enough that a worker pool
/// sized for commodity cores rarely collides on one lock, small enough
/// that merged-stats scans stay trivial.
pub const DEFAULT_SHARDS: usize = 8;

/// The persistent block store, split across N independently locked
/// shards — the one cache implementation every flow consults. The
/// resident flow server runs it with [`DEFAULT_SHARDS`]; batch callers
/// hold a one-shard cache, which answers every lookup, near-hit seed and
/// commit exactly as a sharded cache with the same content does.
///
/// A block's shard is chosen by its existing normalized-spec
/// [`Fingerprint`] (`spec_fp % shards`), so placement is a deterministic
/// function of the block alone: thread count, submission order and wall
/// clock never move an entry between shards. Lookup and commit lock
/// exactly one shard; only the aggressive-policy near-hit scan (never
/// consulted by the reproducible serving path) visits all shards, merging
/// shard-local winners under the same `(distance, spec_fp, bucket index)`
/// order a single cache scans in — so `nearest` answers are
/// shard-count-invariant too. [`SharedCache::stats`] merges per-shard
/// counters in fixed shard order (a commutative sum, deterministic for
/// any interleaving).
#[derive(Debug)]
pub struct SharedCache {
    policy: CachePolicy,
    shards: Vec<Mutex<Shard>>,
}

impl SharedCache {
    /// An empty one-shard cache, the batch callers' form.
    #[must_use]
    pub fn new(policy: CachePolicy) -> Self {
        SharedCache::with_shards(policy, 1)
    }

    /// An empty sharded cache. `shards` is clamped to at least 1.
    #[must_use]
    pub fn with_shards(policy: CachePolicy, shards: usize) -> Self {
        SharedCache {
            policy,
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::new(policy)))
                .collect(),
        }
    }

    /// [`SharedCache::with_shards`] with [`DEFAULT_SHARDS`].
    #[must_use]
    pub fn with_default_shards(policy: CachePolicy) -> Self {
        SharedCache::with_shards(policy, DEFAULT_SHARDS)
    }

    /// The reuse policy (uniform across shards).
    #[must_use]
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// The shard owning `spec_fp`. Deterministic in the fingerprint and
    /// the shard count alone.
    fn shard(&self, spec_fp: u64) -> std::sync::MutexGuard<'_, Shard> {
        let idx = (spec_fp % self.shards.len() as u64) as usize;
        self.shards[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Total stored entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether no shard holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merged cumulative statistics: the field-wise sum over shards in
    /// fixed shard order.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(PoisonError::into_inner).stats;
            total.lookups += s.lookups;
            total.hits += s.hits;
            total.near_seeds += s.near_seeds;
            total.insertions += s.insertions;
            total.corrupt_dropped += s.corrupt_dropped;
        }
        total
    }

    /// Exact lookup for a block about to be planned, against the owning
    /// shard (one lock). `config` is the run's configuration fingerprint —
    /// entries computed under a different process/budget/evaluator setup
    /// never match, under either policy. `provenance` is the fingerprint
    /// the current plan computes for the block; under
    /// [`CachePolicy::Reproducible`] a hit must match it (and the exact
    /// requirement bits), under [`CachePolicy::Aggressive`] the newest
    /// same-spec same-config entry wins.
    pub fn lookup(
        &self,
        template: TemplateKind,
        spec_fp: u64,
        req: &OtaRequirements,
        provenance: u64,
        config: u64,
    ) -> Option<CacheEntry> {
        self.shard(spec_fp)
            .lookup(template, spec_fp, req, provenance, config)
    }

    /// Nearest same-template same-config entry to `key` in the block
    /// metric — the warm-start seed for a miss. `better_than` (the
    /// distance of the planner's in-set warm source, if any) bounds the
    /// search: only an entry **strictly** closer is returned, so ties keep
    /// the legacy in-set behaviour. Only consulted (and counted) under
    /// [`CachePolicy::Aggressive`].
    ///
    /// Each shard reports its local winner (already minimal under
    /// `(distance, spec_fp, bucket index)`), and the global winner is the
    /// minimum under `(distance, spec_fp)` — exactly the order a single
    /// unsharded scan encounters entries in, so the answer does not depend
    /// on the shard count. The `near_seeds` count lands in the winning
    /// entry's shard.
    pub fn nearest(
        &self,
        template: TemplateKind,
        key: (u32, u32),
        better_than: Option<i64>,
        config: u64,
    ) -> Option<CacheEntry> {
        if self.policy != CachePolicy::Aggressive {
            return None;
        }
        let mut best: Option<(i64, u64, CacheEntry)> = None;
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((d, fp, e)) = guard.nearest_scored(template, key, better_than, config) {
                let wins = match &best {
                    None => true,
                    Some((bd, bfp, _)) => (d, fp) < (*bd, *bfp),
                };
                if wins {
                    best = Some((d, fp, e));
                }
            }
        }
        best.map(|(_, fp, e)| {
            self.shard(fp).stats.near_seeds += 1;
            e
        })
    }

    /// Stores a synthesized block in the owning shard (one lock).
    /// Re-inserting an existing provenance is a no-op; buckets keep only
    /// the newest few provenance chains. The entry is stamped with an
    /// integrity fingerprint of its result, verified on every later lookup.
    pub fn insert(&self, template: TemplateKind, spec_fp: u64, entry: CacheEntry) {
        self.shard(spec_fp).insert(template, spec_fp, entry);
    }

    /// Every stored entry across all shards in a **shard-count-invariant**
    /// order — sorted by `(template, spec_fp, bucket index)` — so the
    /// rendered snapshot of a given cache content is byte-identical
    /// whether it was accumulated under 1 shard or 64.
    #[must_use]
    pub fn export_entries(&self) -> Vec<SnapshotEntry> {
        let mut all: Vec<SnapshotEntry> = Vec::new();
        for shard in &self.shards {
            shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .export_into(&mut all);
        }
        // Bucket order within a shard is already deterministic; a stable
        // sort on the bucket key makes the concatenation shard-invariant
        // while preserving each bucket's newest-first entry order.
        all.sort_by_key(|e| (e.entry.req.template.tag(), e.spec_fp));
        all
    }

    /// Restores one exported entry into its shard (integrity re-verified;
    /// corrupt entries dropped and counted; entries restored in export
    /// order rebuild the original newest-first buckets). Returns whether
    /// the entry was kept.
    pub fn restore_entry(&self, entry: SnapshotEntry) -> bool {
        self.shard(entry.spec_fp).restore(entry)
    }

    /// Counts `n` entries that never made it to any shard (unparseable or
    /// version-rejected snapshot records) as corrupt-dropped, so the
    /// merged statistics account for every entry the snapshot claimed.
    pub fn note_corrupt_dropped(&self, n: usize) {
        self.shards[0]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
            .corrupt_dropped += n;
    }
}

/// The batch callers' name for a [`SharedCache`] they hold by exclusive
/// borrow across a candidate set or a multi-resolution sweep, built with
/// [`SharedCache::new`] (one shard).
pub type BlockCache = SharedCache;

#[cfg(test)]
impl SharedCache {
    /// Flips a bit in every stored result — simulates storage corruption
    /// without going through the fault-injection registry.
    fn corrupt_all_for_test(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for bucket in guard.buckets.values_mut() {
                for s in bucket.iter_mut() {
                    s.entry.result.best_cost += 1.0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(a0: f64) -> OtaRequirements {
        OtaRequirements {
            a0_min: a0,
            unity_min: 1e8,
            pm_min: 60.0,
            c_load: 1e-12,
            template: TemplateKind::Telescopic,
        }
    }

    fn result(cost: f64) -> SynthResult {
        SynthResult {
            best_x: vec![cost],
            best_u: vec![0.5],
            best_perf: Default::default(),
            best_cost: cost,
            feasible: true,
            evaluations: 7,
        }
    }

    const CFG: u64 = 77;

    fn entry(key: (u32, u32), provenance: u64) -> CacheEntry {
        CacheEntry {
            key,
            req: req(100.0),
            result: result(provenance as f64),
            provenance,
            config: CFG,
        }
    }

    #[test]
    fn reproducible_requires_provenance_and_exact_req() {
        let c = SharedCache::new(CachePolicy::Reproducible);
        c.insert(TemplateKind::Telescopic, 42, entry((2, 8), 7));
        assert!(c
            .lookup(TemplateKind::Telescopic, 42, &req(100.0), 7, CFG)
            .is_some());
        assert!(
            c.lookup(TemplateKind::Telescopic, 42, &req(100.0), 8, CFG)
                .is_none(),
            "different provenance must miss"
        );
        assert!(
            c.lookup(TemplateKind::Telescopic, 42, &req(101.0), 7, CFG)
                .is_none(),
            "different exact req must miss"
        );
        assert!(
            c.lookup(TemplateKind::TwoStage, 42, &req(100.0), 7, CFG)
                .is_none(),
            "different template must miss"
        );
        assert!(
            c.lookup(TemplateKind::Telescopic, 42, &req(100.0), 7, CFG + 1)
                .is_none(),
            "different config must miss"
        );
        assert_eq!(c.stats().lookups, 5);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn aggressive_ignores_provenance_and_seeds_near_hits() {
        let c = SharedCache::new(CachePolicy::Aggressive);
        c.insert(TemplateKind::Telescopic, 42, entry((2, 8), 7));
        assert!(c
            .lookup(TemplateKind::Telescopic, 42, &req(100.0), 999, CFG)
            .is_some());
        assert!(
            c.lookup(TemplateKind::Telescopic, 42, &req(100.0), 999, CFG + 1)
                .is_none(),
            "aggressive hits still respect the config fingerprint"
        );
        // Near hit: closest key wins; repro policy would return None.
        c.insert(TemplateKind::Telescopic, 43, entry((3, 9), 8));
        let seed = c
            .nearest(TemplateKind::Telescopic, (3, 10), None, CFG)
            .unwrap();
        assert_eq!(seed.key, (3, 9));
        assert!(c
            .nearest(TemplateKind::TwoStage, (3, 10), None, CFG)
            .is_none());
        assert!(
            c.nearest(TemplateKind::Telescopic, (3, 10), None, CFG + 1)
                .is_none(),
            "seeds never cross configs"
        );
        // Distance bound: (3, 9) is at distance 1 from (3, 10) — a planned
        // source at distance 1 keeps the tie, at distance 2 loses.
        assert!(c
            .nearest(TemplateKind::Telescopic, (3, 10), Some(1), CFG)
            .is_none());
        assert!(c
            .nearest(TemplateKind::Telescopic, (3, 10), Some(2), CFG)
            .is_some());
        assert_eq!(c.stats().near_seeds, 2);

        let repro = SharedCache::new(CachePolicy::Reproducible);
        repro.insert(TemplateKind::Telescopic, 42, entry((2, 8), 7));
        assert!(repro
            .nearest(TemplateKind::Telescopic, (2, 9), None, CFG)
            .is_none());
    }

    #[test]
    fn buckets_dedup_and_cap() {
        let c = SharedCache::new(CachePolicy::Aggressive);
        for p in 0..10 {
            c.insert(TemplateKind::Telescopic, 42, entry((2, 8), p));
            c.insert(TemplateKind::Telescopic, 42, entry((2, 8), p)); // dup
        }
        assert_eq!(c.len(), BUCKET_CAP);
        assert_eq!(c.stats().insertions, 10);
        // Newest provenance wins the aggressive lookup.
        let hit = c
            .lookup(TemplateKind::Telescopic, 42, &req(100.0), 0, CFG)
            .unwrap();
        assert_eq!(hit.provenance, 9);
    }

    #[test]
    fn corrupted_entries_are_dropped_not_served() {
        let c = SharedCache::new(CachePolicy::Aggressive);
        c.insert(TemplateKind::Telescopic, 42, entry((2, 8), 7));
        c.corrupt_all_for_test();
        assert!(
            c.lookup(TemplateKind::Telescopic, 42, &req(100.0), 7, CFG)
                .is_none(),
            "corrupted entry must not be served as a hit"
        );
        assert_eq!(c.stats().corrupt_dropped, 1);
        assert_eq!(c.len(), 0, "corrupted entry is evicted");
        // Same through the near-hit path.
        c.insert(TemplateKind::Telescopic, 43, entry((3, 9), 8));
        c.corrupt_all_for_test();
        assert!(c
            .nearest(TemplateKind::Telescopic, (3, 10), None, CFG)
            .is_none());
        assert_eq!(c.stats().corrupt_dropped, 2);
        // A clean entry still round-trips.
        c.insert(TemplateKind::Telescopic, 44, entry((4, 10), 9));
        assert!(c
            .lookup(TemplateKind::Telescopic, 44, &req(100.0), 9, CFG)
            .is_some());
    }

    #[test]
    fn distance_metric_matches_planner() {
        assert_eq!(key_distance((4, 13), (4, 10)), 3);
        assert_eq!(key_distance((2, 8), (3, 8)), 16);
        assert_eq!(key_distance((2, 8), (4, 10)), 34);
    }
}
