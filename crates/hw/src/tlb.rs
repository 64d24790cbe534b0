//! A TLB model that is also a real translation cache.
//!
//! Each entry caches the *full* result of a page-table walk — host frame,
//! permissions, C-bits — so a valid hit lets the CPU skip the software
//! walk entirely (see `Machine::host_translate` and the guest paths in
//! `cpu.rs`). Hits and misses still change the cycle charge exactly as
//! before (a miss pays a table walk), and the paper's gates still
//! interact with it faithfully — a type-3 gate pays a per-entry `invlpg`
//! (128 cycles) and a CR3 switch pays a full flush, which is precisely
//! the cost trade-off the paper's §4.1.3 discusses.
//!
//! Flushes are generation-tagged rather than eager: every entry is stamped
//! with the global generation and its space's generation at insert time,
//! and is valid only while both still match. [`Tlb::flush_all`] and
//! [`Tlb::flush_space`] therefore bump a counter in O(1) — no scan over
//! the entry map, no matter how many translations are cached — and stale
//! entries are reaped lazily when a lookup trips over them or when the
//! bounded-capacity FIFO eviction recycles their slot.
//!
//! A space's flush and demotion generations sit in one dense vector
//! indexed by space (the host at 0, ASID `a` at `a + 1`), so an access
//! pays one hash probe, for its entry, and one bounds-checked index for
//! its space. The vector grows only when a space is flushed or demoted;
//! a space past its end has never been either, so both its generations
//! are 0.

use crate::fxhash::FxBuildHasher;
use std::collections::{HashMap, VecDeque};

/// Identifies an address space in the TLB: the host, or a guest ASID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The host (hypervisor + Fidelius) address space.
    Host,
    /// A guest address space tagged by ASID.
    Guest(u16),
}

/// Which walk produced a cached translation. Guest-physical and
/// guest-virtual translations share `Space::Guest(asid)` keyed by page
/// number (as on hardware, where a flat-mapped guest aliases them), so the
/// kind disambiguates which walk a cached payload belongs to; a hit of the
/// wrong kind is still a *hit* for accounting but cannot satisfy the
/// access, which silently re-walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransKind {
    /// Host-virtual → host-physical through the host page tables.
    HostVirt,
    /// Guest-physical → host-physical through the NPT alone.
    GuestPhys,
    /// Guest-virtual → host-physical through guest tables + NPT.
    GuestVirt,
}

/// The full result of a translation walk, cached so a valid hit can skip
/// the software walk. Permission bits are stored raw (not pre-validated
/// against an access kind) because `CR0.WP` can change between insert and
/// hit without any architectural flush — a type-1 gate clears WP and the
/// very next write through a cached read-only mapping must succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedTranslation {
    /// Which walk produced this entry.
    pub kind: TransKind,
    /// Host-physical frame number the page maps to.
    pub hpfn: u64,
    /// Guest-physical frame of the data page: for [`TransKind::GuestVirt`]
    /// the stage-1 leaf target (needed to name the GPA in nested-fault
    /// delivery on a cached stage-2 permission fault); for
    /// [`TransKind::GuestPhys`] it equals the key; unused for the host.
    pub gpfn: u64,
    /// Stage-1 accumulated writable (host tables or guest tables). For
    /// [`TransKind::GuestPhys`] there is no stage 1; stored as `true`.
    pub writable: bool,
    /// Stage-1 accumulated NX.
    pub nx: bool,
    /// Stage-2 (NPT) leaf writable. Stored as `true` for the host, which
    /// has no stage 2.
    pub npt_writable: bool,
    /// Stage-1 leaf C-bit (host PT C-bit, or the guest leaf C-bit that
    /// selects `Kvek` under SEV). `false` for [`TransKind::GuestPhys`].
    pub c_bit: bool,
    /// NPT leaf C-bit (routes through the host SME key — the paper's
    /// "Fidelius-enc" mechanism). `false` for the host.
    pub npt_c: bool,
}

impl CachedTranslation {
    /// A host-virtual translation (no stage 2).
    pub fn host(hpfn: u64, writable: bool, nx: bool, c_bit: bool) -> Self {
        CachedTranslation {
            kind: TransKind::HostVirt,
            hpfn,
            gpfn: 0,
            writable,
            nx,
            npt_writable: true,
            c_bit,
            npt_c: false,
        }
    }

    /// A guest-physical translation (NPT only).
    pub fn guest_phys(gpfn: u64, hpfn: u64, npt_writable: bool, npt_c: bool) -> Self {
        CachedTranslation {
            kind: TransKind::GuestPhys,
            hpfn,
            gpfn,
            writable: true,
            nx: false,
            npt_writable,
            c_bit: false,
            npt_c,
        }
    }

    /// A guest-virtual translation (guest tables + NPT).
    #[allow(clippy::too_many_arguments)]
    pub fn guest_virt(
        hpfn: u64,
        gpfn: u64,
        writable: bool,
        nx: bool,
        c_bit: bool,
        npt_writable: bool,
        npt_c: bool,
    ) -> Self {
        CachedTranslation {
            kind: TransKind::GuestVirt,
            hpfn,
            gpfn,
            writable,
            nx,
            npt_writable,
            c_bit,
            npt_c,
        }
    }
}

/// Default entry capacity. Sized like a generously large second-level TLB
/// so the simulated workloads' working sets never evict — eviction only
/// engages for adversarial or synthetic pressure (and in tests).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Lifetime counters the TLB exports to telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbCounters {
    /// Lookups that found a valid entry.
    pub hits: u64,
    /// Lookups that found nothing (or a flushed-out stale entry).
    pub misses: u64,
    /// Valid entries displaced by capacity pressure (not by flushes).
    pub evictions: u64,
    /// Page-table walks performed on misses (a guest-virtual miss walks
    /// both the guest table and the NPT, so this can exceed `misses`).
    pub walks: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    cached: CachedTranslation,
    global_gen: u64,
    space_gen: u64,
    /// Demotion generation of the space at insert/refresh time; the cached
    /// payload is only trusted while this still matches (see
    /// [`Tlb::demote_space`]).
    demote_gen: u64,
    /// Set by [`Tlb::demote_page`]: the entry stays resident for hit
    /// accounting but its payload must be re-validated by a walk.
    stale: bool,
    /// Monotonic insertion stamp; pairs map entries with their FIFO slot
    /// so a re-inserted key's abandoned slot is recognised as debris.
    stamp: u64,
}

/// The outcome of a TLB lookup.
///
/// A *hit* means the entry is resident under the current flush
/// generations — exactly the condition the seed TLB counted as a hit and
/// charged cheaply. Whether the hit also carries a usable payload is a
/// separate question: a demoted entry (its translation was edited without
/// an architectural flush, see [`Tlb::demote_page`]) and a wrong-kind
/// alias both hit for accounting but force the caller to re-walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// No resident entry (or a flushed-out generation, reaped lazily).
    Miss,
    /// Resident entry; `Some` payload may satisfy the access, `None`
    /// (demoted) requires a re-walk that should end in [`Tlb::refresh`].
    Hit(Option<CachedTranslation>),
}

impl Lookup {
    /// Whether the lookup counted as a hit (cheap cycle charge).
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit(_))
    }

    /// The usable cached payload, if any.
    pub fn cached(&self) -> Option<CachedTranslation> {
        match self {
            Lookup::Hit(c) => *c,
            Lookup::Miss => None,
        }
    }
}

impl Space {
    /// The space's slot in [`Tlb`]'s generation vector: the host is 0 and
    /// ASID `a` is `a + 1`.
    fn index(self) -> usize {
        match self {
            Space::Host => 0,
            Space::Guest(asid) => asid as usize + 1,
        }
    }
}

/// The TLB: cached translations per (space, virtual page), with O(1)
/// generation flushes and bounded-capacity FIFO eviction.
///
/// The per-space generations take at most 65 537 × 16 B (about 1 MiB):
/// one `(flush, demote)` pair per ASID up to the highest one flushed or
/// demoted, plus the host's. Only [`Tlb::flush_space`] and
/// [`Tlb::demote_space`] grow them, and the hypervisor calls those only
/// for the host and the ASIDs it assigned.
#[derive(Debug)]
pub struct Tlb {
    entries: HashMap<(Space, u64), Entry, FxBuildHasher>,
    fifo: VecDeque<((Space, u64), u64)>,
    /// `(flush generation, demotion generation)` per [`Space::index`].
    space_gens: Vec<(u64, u64)>,
    global_gen: u64,
    next_stamp: u64,
    capacity: usize,
    counters: TlbCounters,
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new()
    }
}

impl Tlb {
    /// An empty TLB with [`DEFAULT_CAPACITY`] entries.
    pub fn new() -> Self {
        Tlb::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty TLB holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Tlb {
            entries: HashMap::default(),
            // Reserved at its bound (see `insert`), so a warm TLB never
            // reallocates it.
            fifo: VecDeque::with_capacity(2 * capacity + 1),
            space_gens: Vec::new(),
            global_gen: 0,
            next_stamp: 0,
            capacity,
            counters: TlbCounters::default(),
        }
    }

    fn space_gen(&self, space: Space) -> u64 {
        self.space_gens.get(space.index()).map_or(0, |g| g.0)
    }

    fn space_demote_gen(&self, space: Space) -> u64 {
        self.space_gens.get(space.index()).map_or(0, |g| g.1)
    }

    /// The generation pair of `space`, growing the vector to reach it.
    fn space_gens_mut(&mut self, space: Space) -> &mut (u64, u64) {
        let i = space.index();
        if i >= self.space_gens.len() {
            self.space_gens.resize(i + 1, (0, 0));
        }
        &mut self.space_gens[i]
    }

    fn is_valid(&self, space: Space, entry: &Entry) -> bool {
        entry.global_gen == self.global_gen && entry.space_gen == self.space_gen(space)
    }

    /// Looks up a virtual page. A resident entry under the current flush
    /// generations is a hit; the payload is returned only if it has not
    /// been demoted since insert/refresh.
    pub fn lookup(&mut self, space: Space, vpn: u64) -> Lookup {
        match self.entries.get(&(space, vpn)) {
            Some(entry) if self.is_valid(space, entry) => {
                self.counters.hits += 1;
                let usable = !entry.stale && entry.demote_gen == self.space_demote_gen(space);
                Lookup::Hit(if usable { Some(entry.cached) } else { None })
            }
            Some(_) => {
                // Flushed-out generation: reap lazily, count as a miss.
                self.entries.remove(&(space, vpn));
                self.counters.misses += 1;
                Lookup::Miss
            }
            None => {
                self.counters.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Non-counting peek: the usable payload [`Tlb::lookup`] would return
    /// right now, if any. No hit/miss accounting, no lazy reaping. The
    /// memory path uses this to tell whether the next translation will
    /// need a software walk (and must therefore see pending coalesced
    /// writes committed first) without disturbing the counters.
    pub fn peek(&self, space: Space, vpn: u64) -> Option<CachedTranslation> {
        let entry = self.entries.get(&(space, vpn))?;
        let usable = self.is_valid(space, entry)
            && !entry.stale
            && entry.demote_gen == self.space_demote_gen(space);
        usable.then_some(entry.cached)
    }

    /// Inserts a translation after a walk, evicting the oldest entry when
    /// over capacity.
    pub fn insert(&mut self, space: Space, vpn: u64, cached: CachedTranslation) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let entry = Entry {
            cached,
            global_gen: self.global_gen,
            space_gen: self.space_gen(space),
            demote_gen: self.space_demote_gen(space),
            stale: false,
            stamp,
        };
        self.entries.insert((space, vpn), entry);
        self.fifo.push_back(((space, vpn), stamp));
        while self.entries.len() > self.capacity {
            self.evict_oldest();
        }
        // Re-insertions and `invlpg` orphan FIFO slots without shrinking
        // the queue; compact once debris outnumbers live slots so `fifo`
        // stays bounded by 2× capacity instead of growing forever.
        if self.fifo.len() > 2 * self.capacity {
            self.compact_fifo();
        }
    }

    /// Drops every FIFO slot whose stamp no longer matches its map entry
    /// (the key was re-inserted or flushed by `invlpg`). Afterwards
    /// `fifo.len() == entries.len() <= capacity`.
    fn compact_fifo(&mut self) {
        let entries = &self.entries;
        self.fifo.retain(|(key, stamp)| entries.get(key).is_some_and(|e| e.stamp == *stamp));
    }

    /// Removes the oldest still-mapped entry. FIFO slots whose stamp no
    /// longer matches the map (the key was re-inserted or flushed by
    /// `invlpg`) are debris and skipped.
    fn evict_oldest(&mut self) {
        while let Some((key, stamp)) = self.fifo.pop_front() {
            match self.entries.get(&key) {
                Some(entry) if entry.stamp == stamp => {
                    let was_valid = self.is_valid(key.0, entry);
                    self.entries.remove(&key);
                    if was_valid {
                        self.counters.evictions += 1;
                    }
                    return;
                }
                _ => continue,
            }
        }
    }

    /// Re-validates a *resident* entry's payload after a walk, in place:
    /// no FIFO movement, no new stamp, no counter change. This is how the
    /// CPU repairs a demoted (or wrong-kind-aliased) hit — the entry's
    /// residency, and therefore every future hit/miss/eviction decision,
    /// is exactly as if the payload had never gone stale. A missing or
    /// flushed-out entry is left alone (re-validation is not insertion).
    pub fn refresh(&mut self, space: Space, vpn: u64, cached: CachedTranslation) {
        let gen_ok = {
            let Some(entry) = self.entries.get(&(space, vpn)) else { return };
            self.is_valid(space, entry)
        };
        if gen_ok {
            let demote_gen = self.space_demote_gen(space);
            let entry = self.entries.get_mut(&(space, vpn)).expect("checked above");
            entry.cached = cached;
            entry.demote_gen = demote_gen;
            entry.stale = false;
        }
    }

    /// Marks one page's cached payload untrusted without evicting the
    /// entry. Used at page-table edit sites that, architecturally, do
    /// *not* flush (the seed model walked on every access, so an edit
    /// took effect immediately while the entry stayed resident as a hit).
    /// A demoted hit still charges as a hit; the CPU re-walks for the
    /// translation and [`Tlb::refresh`]es the payload.
    pub fn demote_page(&mut self, space: Space, vpn: u64) {
        if let Some(entry) = self.entries.get_mut(&(space, vpn)) {
            entry.stale = true;
        }
    }

    /// Marks every cached payload of one space untrusted — O(1), by
    /// bumping the space's demotion generation. Residency, hit accounting
    /// and eviction order are unaffected; see [`Tlb::demote_page`].
    pub fn demote_space(&mut self, space: Space) {
        self.space_gens_mut(space).1 += 1;
    }

    /// `invlpg` — drops one entry.
    pub fn flush_page(&mut self, space: Space, vpn: u64) {
        self.entries.remove(&(space, vpn));
    }

    /// Invalidates every entry of one space (ASID-selective flush) by
    /// bumping the space's generation — O(1).
    pub fn flush_space(&mut self, space: Space) {
        self.space_gens_mut(space).0 += 1;
    }

    /// Full flush (CR3 write without PCID) — an O(1) generation bump.
    pub fn flush_all(&mut self) {
        self.global_gen += 1;
    }

    /// Records `n` page-table walks (charged by the CPU on misses).
    pub fn record_walks(&mut self, n: u64) {
        self.counters.walks += n;
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.counters.hits, self.counters.misses)
    }

    /// All lifetime counters (hits, misses, evictions, walks).
    pub fn counters(&self) -> TlbCounters {
        self.counters
    }

    /// Maximum number of cached entries before eviction engages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live (valid-generation) entries.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|((space, _), e)| self.is_valid(*space, e)).count()
    }

    /// Whether the TLB caches no valid translation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shorthand: a permissive host entry whose only payload of
    /// interest is the frame number.
    fn pfn_entry(pfn: u64) -> CachedTranslation {
        CachedTranslation::host(pfn, true, false, false)
    }

    /// Test shorthand: the frame number of a lookup result.
    fn pfn_of(l: Lookup) -> Option<u64> {
        l.cached().map(|c| c.hpfn)
    }

    #[test]
    fn hit_miss_accounting() {
        let mut tlb = Tlb::new();
        assert_eq!(tlb.lookup(Space::Host, 1), Lookup::Miss);
        tlb.insert(Space::Host, 1, pfn_entry(42));
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 1)), Some(42));
        assert_eq!(tlb.stats(), (1, 1));
    }

    #[test]
    fn cached_payload_round_trips() {
        let mut tlb = Tlb::new();
        let c = CachedTranslation::guest_virt(7, 9, false, true, true, false, true);
        tlb.insert(Space::Guest(4), 2, c);
        assert_eq!(tlb.lookup(Space::Guest(4), 2), Lookup::Hit(Some(c)));
    }

    #[test]
    fn demoted_entry_hits_without_payload_until_refreshed() {
        let mut tlb = Tlb::new();
        tlb.insert(Space::Host, 1, pfn_entry(10));
        tlb.demote_page(Space::Host, 1);
        // Still a hit for accounting, but the payload is untrusted.
        assert_eq!(tlb.lookup(Space::Host, 1), Lookup::Hit(None));
        assert_eq!(tlb.stats(), (1, 0));
        // A walk re-validates in place.
        tlb.refresh(Space::Host, 1, pfn_entry(11));
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 1)), Some(11));
        assert_eq!(tlb.stats(), (2, 0));
    }

    #[test]
    fn demote_space_is_per_space_and_survives_until_refresh() {
        let mut tlb = Tlb::new();
        tlb.insert(Space::Guest(1), 1, pfn_entry(10));
        tlb.insert(Space::Guest(2), 1, pfn_entry(20));
        tlb.demote_space(Space::Guest(1));
        assert_eq!(tlb.lookup(Space::Guest(1), 1), Lookup::Hit(None));
        assert_eq!(pfn_of(tlb.lookup(Space::Guest(2), 1)), Some(20));
        // Refresh restores only the refreshed page.
        tlb.insert(Space::Guest(1), 2, pfn_entry(30));
        tlb.refresh(Space::Guest(1), 1, pfn_entry(11));
        assert_eq!(pfn_of(tlb.lookup(Space::Guest(1), 1)), Some(11));
        assert_eq!(pfn_of(tlb.lookup(Space::Guest(1), 2)), Some(30));
    }

    #[test]
    fn refresh_does_not_resurrect_or_reorder() {
        // Refresh of a missing key must not create an entry.
        let mut tlb = Tlb::new();
        tlb.refresh(Space::Host, 9, pfn_entry(9));
        assert_eq!(tlb.lookup(Space::Host, 9), Lookup::Miss);
        // Refresh of a resident key must not move it in the FIFO: key 1
        // stays oldest and is still the eviction victim.
        let mut small = Tlb::with_capacity(2);
        small.insert(Space::Host, 1, pfn_entry(1));
        small.insert(Space::Host, 2, pfn_entry(2));
        small.demote_page(Space::Host, 1);
        small.refresh(Space::Host, 1, pfn_entry(11));
        small.insert(Space::Host, 3, pfn_entry(3));
        assert_eq!(small.lookup(Space::Host, 1), Lookup::Miss, "key 1 still oldest");
        assert_eq!(pfn_of(small.lookup(Space::Host, 2)), Some(2));
        assert_eq!(pfn_of(small.lookup(Space::Host, 3)), Some(3));
    }

    #[test]
    fn spaces_are_isolated() {
        let mut tlb = Tlb::new();
        tlb.insert(Space::Host, 1, pfn_entry(10));
        tlb.insert(Space::Guest(1), 1, pfn_entry(20));
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 1)), Some(10));
        assert_eq!(pfn_of(tlb.lookup(Space::Guest(1), 1)), Some(20));
        tlb.flush_space(Space::Guest(1));
        assert_eq!(tlb.lookup(Space::Guest(1), 1), Lookup::Miss);
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 1)), Some(10));
    }

    #[test]
    fn edge_spaces_flush_and_demote_alone() {
        // The host and the lowest and highest ASIDs sit at both ends of
        // the generation vector; bumping one must leave every other
        // space's entries valid and usable.
        let edges = [Space::Guest(u16::MAX), Space::Guest(0), Space::Host];
        let all = [edges[0], edges[1], edges[2], Space::Guest(1), Space::Guest(u16::MAX - 1)];
        for target in edges {
            let mut tlb = Tlb::new();
            for (pfn, &space) in (0u64..).zip(&all) {
                tlb.insert(space, 7, pfn_entry(pfn));
            }
            tlb.demote_space(target);
            for (pfn, &space) in (0u64..).zip(&all) {
                let want = (space != target).then_some(pfn);
                assert_eq!(
                    tlb.peek(space, 7).map(|c| c.hpfn),
                    want,
                    "demote {target:?}: {space:?}"
                );
            }
            tlb.flush_space(target);
            for (pfn, &space) in (0u64..).zip(&all) {
                let got = tlb.lookup(space, 7);
                if space == target {
                    assert_eq!(got, Lookup::Miss, "flush {target:?} kept its own entry");
                } else {
                    assert_eq!(pfn_of(got), Some(pfn), "flush {target:?} touched {space:?}");
                }
            }
            assert!(tlb.space_gens.len() <= usize::from(u16::MAX) + 2, "generation bound");
        }
    }

    #[test]
    fn flush_page_and_all() {
        let mut tlb = Tlb::new();
        tlb.insert(Space::Host, 1, pfn_entry(10));
        tlb.insert(Space::Host, 2, pfn_entry(20));
        tlb.flush_page(Space::Host, 1);
        assert_eq!(tlb.lookup(Space::Host, 1), Lookup::Miss);
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 2)), Some(20));
        tlb.flush_all();
        assert!(tlb.is_empty());
    }

    #[test]
    fn insert_after_flush_is_visible() {
        // A generation bump must not blind the TLB to entries inserted
        // *afterwards* in the same space.
        let mut tlb = Tlb::new();
        tlb.insert(Space::Host, 1, pfn_entry(10));
        tlb.flush_all();
        tlb.insert(Space::Host, 2, pfn_entry(20));
        assert_eq!(tlb.lookup(Space::Host, 1), Lookup::Miss);
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 2)), Some(20));
        tlb.flush_space(Space::Host);
        tlb.insert(Space::Host, 3, pfn_entry(30));
        assert_eq!(tlb.lookup(Space::Host, 2), Lookup::Miss);
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 3)), Some(30));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut tlb = Tlb::with_capacity(2);
        tlb.insert(Space::Host, 1, pfn_entry(10));
        tlb.insert(Space::Host, 2, pfn_entry(20));
        tlb.insert(Space::Host, 3, pfn_entry(30));
        assert_eq!(tlb.lookup(Space::Host, 1), Lookup::Miss, "oldest entry evicted");
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 2)), Some(20));
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 3)), Some(30));
        assert_eq!(tlb.counters().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_fifo_position() {
        let mut tlb = Tlb::with_capacity(2);
        tlb.insert(Space::Host, 1, pfn_entry(10));
        tlb.insert(Space::Host, 2, pfn_entry(20));
        // Re-inserting key 1 moves it to the back of the FIFO...
        tlb.insert(Space::Host, 1, pfn_entry(11));
        // ...so the next eviction takes key 2, not key 1.
        tlb.insert(Space::Host, 3, pfn_entry(30));
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 1)), Some(11));
        assert_eq!(tlb.lookup(Space::Host, 2), Lookup::Miss);
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 3)), Some(30));
    }

    #[test]
    fn flushed_entries_do_not_count_as_evictions() {
        let mut tlb = Tlb::with_capacity(2);
        tlb.insert(Space::Host, 1, pfn_entry(10));
        tlb.insert(Space::Host, 2, pfn_entry(20));
        tlb.flush_all();
        // Capacity pressure now recycles stale slots silently.
        tlb.insert(Space::Host, 3, pfn_entry(30));
        tlb.insert(Space::Host, 4, pfn_entry(40));
        tlb.insert(Space::Host, 5, pfn_entry(50));
        let c = tlb.counters();
        assert_eq!(c.evictions, 1, "only the valid entry 3 was evicted");
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 4)), Some(40));
        assert_eq!(pfn_of(tlb.lookup(Space::Host, 5)), Some(50));
    }

    #[test]
    fn peek_matches_lookup_without_counting() {
        let mut tlb = Tlb::new();
        assert_eq!(tlb.peek(Space::Host, 1), None);
        tlb.insert(Space::Host, 1, pfn_entry(10));
        assert_eq!(tlb.peek(Space::Host, 1), Some(pfn_entry(10)));
        tlb.demote_page(Space::Host, 1);
        assert_eq!(tlb.peek(Space::Host, 1), None, "demoted payload is not usable");
        tlb.refresh(Space::Host, 1, pfn_entry(11));
        assert_eq!(tlb.peek(Space::Host, 1), Some(pfn_entry(11)));
        tlb.demote_space(Space::Host);
        assert_eq!(tlb.peek(Space::Host, 1), None, "space demotion hides the payload");
        tlb.flush_all();
        assert_eq!(tlb.peek(Space::Host, 1), None, "flushed-out entry is not usable");
        assert_eq!(tlb.stats(), (0, 0), "peek must not count hits or misses");
    }

    #[test]
    fn walk_counter_accumulates() {
        let mut tlb = Tlb::new();
        tlb.record_walks(1);
        tlb.record_walks(2);
        assert_eq!(tlb.counters().walks, 3);
    }

    #[test]
    fn fifo_debris_stays_bounded_under_reinsertion() {
        // Re-inserting the same keys forever used to leave one dead slot
        // per insert in `fifo` — unbounded growth relative to `entries`.
        let mut tlb = Tlb::with_capacity(8);
        for round in 0..10_000u64 {
            tlb.insert(Space::Host, round % 4, pfn_entry(round));
            assert!(
                tlb.fifo.len() <= 2 * tlb.capacity(),
                "round {round}: fifo grew to {} (> 2x capacity {})",
                tlb.fifo.len(),
                tlb.capacity()
            );
        }
        // `invlpg` debris is bounded the same way.
        for round in 0..10_000u64 {
            tlb.insert(Space::Guest(1), round % 4, pfn_entry(round));
            tlb.flush_page(Space::Guest(1), round % 4);
            assert!(tlb.fifo.len() <= 2 * tlb.capacity(), "invlpg round {round}");
        }
        // Eviction order still works after compaction.
        let mut small = Tlb::with_capacity(2);
        for _ in 0..100 {
            small.insert(Space::Host, 1, pfn_entry(1));
        }
        small.insert(Space::Host, 2, pfn_entry(2));
        small.insert(Space::Host, 3, pfn_entry(3));
        assert_eq!(small.lookup(Space::Host, 1), Lookup::Miss, "oldest (key 1) evicted");
        assert_eq!(pfn_of(small.lookup(Space::Host, 2)), Some(2));
        assert_eq!(pfn_of(small.lookup(Space::Host, 3)), Some(3));
    }

    // ---- equivalence with the seed's retain-based flush semantics ----

    /// The seed implementation, verbatim, as an oracle.
    #[derive(Default)]
    struct RetainTlb {
        entries: HashMap<(Space, u64), u64>,
        hits: u64,
        misses: u64,
    }

    impl RetainTlb {
        fn lookup(&mut self, space: Space, vpn: u64) -> Option<u64> {
            match self.entries.get(&(space, vpn)) {
                Some(&pfn) => {
                    self.hits += 1;
                    Some(pfn)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }
        fn insert(&mut self, space: Space, vpn: u64, pfn: u64) {
            self.entries.insert((space, vpn), pfn);
        }
        fn flush_page(&mut self, space: Space, vpn: u64) {
            self.entries.remove(&(space, vpn));
        }
        fn flush_space(&mut self, space: Space) {
            self.entries.retain(|(s, _), _| *s != space);
        }
        fn flush_all(&mut self) {
            self.entries.clear();
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// Under random op sequences (within capacity, where the seed had no
    /// eviction either) the generation-tagged TLB must return the same
    /// lookup results, the same hit/miss stats, and the same live-entry
    /// count as the retain-based seed.
    #[test]
    fn generation_flush_matches_retain_semantics() {
        for seed in 1..=8u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Both ends of the ASID range, plus ASIDs drawn over all of it.
            let mut spaces = vec![Space::Host, Space::Guest(0), Space::Guest(u16::MAX)];
            spaces.extend((0..3).map(|_| Space::Guest(lcg(&mut rng) as u16)));
            let mut fast = Tlb::new();
            let mut oracle = RetainTlb::default();
            for step in 0..2000 {
                let space = spaces[(lcg(&mut rng) % spaces.len() as u64) as usize];
                let vpn = lcg(&mut rng) % 64;
                match lcg(&mut rng) % 10 {
                    0..=3 => {
                        let got = pfn_of(fast.lookup(space, vpn));
                        let want = oracle.lookup(space, vpn);
                        assert_eq!(got, want, "seed {seed} step {step}: lookup diverged");
                    }
                    4..=7 => {
                        let pfn = lcg(&mut rng);
                        fast.insert(space, vpn, pfn_entry(pfn));
                        oracle.insert(space, vpn, pfn);
                    }
                    8 => {
                        if lcg(&mut rng).is_multiple_of(4) {
                            fast.flush_all();
                            oracle.flush_all();
                        } else {
                            fast.flush_space(space);
                            oracle.flush_space(space);
                        }
                    }
                    _ => {
                        fast.flush_page(space, vpn);
                        oracle.flush_page(space, vpn);
                    }
                }
                assert_eq!(
                    fast.len(),
                    oracle.entries.len(),
                    "seed {seed} step {step}: live-entry count diverged"
                );
            }
            assert_eq!(fast.stats(), (oracle.hits, oracle.misses), "seed {seed}: stats diverged");
        }
    }
}
