//! The Grant Information Table (GIT).
//!
//! Per paper §5.2: an array of grant-information entries, each recording
//! the **initiator domain id, the target domain id, the shared memory
//! address and the number of page frames** — plus the intended permission.
//! A guest registers its sharing intent through the `pre_sharing_op`
//! hypercall *before* the hypervisor creates grant-table entries; when the
//! (write-protected) grant table is then updated through the type-1 gate,
//! Fidelius checks the new entry against the GIT, defeating the
//! grant-manipulation attacks of §2.2 (wrong grantee, escalated
//! permissions, fabricated grants).

use fidelius_xen::domain::DomainId;

/// One registered sharing intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GitEntry {
    /// The sharing (owning) domain.
    pub initiator: DomainId,
    /// The intended receiving domain.
    pub target: DomainId,
    /// First shared guest-physical page (of the initiator).
    pub gpa_page: u64,
    /// Number of consecutive pages shared.
    pub nframes: u64,
    /// Whether the target may write.
    pub writable: bool,
}

impl GitEntry {
    /// Whether this intent covers `(initiator, target, gpa_page)` with at
    /// most the registered permission.
    pub fn covers(
        &self,
        initiator: DomainId,
        target: DomainId,
        gpa_page: u64,
        writable: bool,
    ) -> bool {
        self.initiator == initiator
            && self.target == target
            && gpa_page >= self.gpa_page
            && gpa_page < self.gpa_page + self.nframes
            && (!writable || self.writable)
    }

    /// Whether this intent already authorizes everything `other` would:
    /// same initiator and target, `other`'s pages inside this range, and a
    /// permission no wider. Ranges whose end overflows are never treated
    /// as subsumed or subsuming, so the check cannot disagree with
    /// [`GitEntry::covers`].
    fn subsumes(&self, other: &GitEntry) -> bool {
        let (Some(end), Some(other_end)) =
            (self.gpa_page.checked_add(self.nframes), other.gpa_page.checked_add(other.nframes))
        else {
            return false;
        };
        self.initiator == other.initiator
            && self.target == other.target
            && other.gpa_page >= self.gpa_page
            && other_end <= end
            && (!other.writable || self.writable)
    }
}

/// The grant information table.
#[derive(Debug, Default)]
pub struct Git {
    entries: Vec<GitEntry>,
}

impl Git {
    /// Empty table.
    pub fn new() -> Self {
        Git::default()
    }

    /// Registers a sharing intent (the `pre_sharing_op` handler).
    ///
    /// An intent that an existing entry already subsumes is not stored: it
    /// would authorize nothing new, and [`Git::remove_domain`] drops it
    /// together with the subsuming entry (they share both domains). So a
    /// guest that re-declares its window before every share keeps the
    /// table, and the [`Git::authorizes`] scan, at a fixed size.
    pub fn register(&mut self, entry: GitEntry) {
        if !self.entries.iter().any(|e| e.subsumes(&entry)) {
            self.entries.push(entry);
        }
    }

    /// Checks whether a grant-table entry with these parameters is
    /// authorized by some registered intent.
    pub fn authorizes(
        &self,
        initiator: DomainId,
        target: DomainId,
        gpa_page: u64,
        writable: bool,
    ) -> bool {
        self.entries.iter().any(|e| e.covers(initiator, target, gpa_page, writable))
    }

    /// Drops every intent involving `dom` (domain teardown).
    pub fn remove_domain(&mut self, dom: DomainId) {
        self.entries.retain(|e| e.initiator != dom && e.target != dom);
    }

    /// Number of registered intents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> GitEntry {
        GitEntry {
            initiator: DomainId(1),
            target: DomainId(2),
            gpa_page: 100,
            nframes: 4,
            writable: false,
        }
    }

    #[test]
    fn covers_range_and_permission() {
        let e = entry();
        assert!(e.covers(DomainId(1), DomainId(2), 100, false));
        assert!(e.covers(DomainId(1), DomainId(2), 103, false));
        assert!(!e.covers(DomainId(1), DomainId(2), 104, false), "past the range");
        assert!(!e.covers(DomainId(1), DomainId(2), 99, false));
        // Read-only intent does not authorize writable grants — the
        // permission-escalation attack.
        assert!(!e.covers(DomainId(1), DomainId(2), 100, true));
        // Wrong target — the conspirator-VM attack.
        assert!(!e.covers(DomainId(1), DomainId(3), 100, false));
        // Wrong initiator — fabricated grants.
        assert!(!e.covers(DomainId(9), DomainId(2), 100, false));
    }

    #[test]
    fn writable_intent_authorizes_both() {
        let e = GitEntry { writable: true, ..entry() };
        assert!(e.covers(DomainId(1), DomainId(2), 100, true));
        assert!(e.covers(DomainId(1), DomainId(2), 100, false));
    }

    #[test]
    fn git_register_and_authorize() {
        let mut git = Git::new();
        assert!(!git.authorizes(DomainId(1), DomainId(2), 100, false));
        git.register(entry());
        assert!(git.authorizes(DomainId(1), DomainId(2), 100, false));
        assert_eq!(git.len(), 1);
    }

    #[test]
    fn repeated_registration_keeps_one_entry() {
        let mut git = Git::new();
        for _ in 0..10_000 {
            git.register(entry());
        }
        assert_eq!(git.len(), 1);
        // A sub-range with a narrower permission is subsumed too; a wider
        // permission or a range reaching past the end is not.
        git.register(GitEntry { gpa_page: 101, nframes: 2, ..entry() });
        assert_eq!(git.len(), 1);
        git.register(GitEntry { writable: true, ..entry() });
        git.register(GitEntry { gpa_page: 102, nframes: 3, ..entry() });
        assert_eq!(git.len(), 3);
    }

    /// splitmix64 — a seeded stream for the differential test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The table against the plain model it replaces — every intent kept
    /// in a `Vec`, authorization by `any` — over random register,
    /// authorize and remove sequences with small domain and page spaces so
    /// overlaps, duplicates and sub-ranges are frequent.
    #[test]
    fn matches_plain_vec_model_on_random_sequences() {
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut git = Git::new();
            let mut model: Vec<GitEntry> = Vec::new();
            for step in 0..400 {
                let dom = |r: u64| DomainId((r % 4) as u16);
                match next(&mut rng) % 8 {
                    0..=2 => {
                        let e = GitEntry {
                            initiator: dom(next(&mut rng)),
                            target: dom(next(&mut rng)),
                            gpa_page: next(&mut rng) % 24,
                            nframes: next(&mut rng) % 6,
                            writable: next(&mut rng).is_multiple_of(2),
                        };
                        git.register(e);
                        model.push(e);
                    }
                    3 => {
                        let d = dom(next(&mut rng));
                        git.remove_domain(d);
                        model.retain(|e| e.initiator != d && e.target != d);
                    }
                    _ => {
                        let (i, t) = (dom(next(&mut rng)), dom(next(&mut rng)));
                        let (page, w) = (next(&mut rng) % 32, next(&mut rng).is_multiple_of(2));
                        let want = model.iter().any(|e| e.covers(i, t, page, w));
                        assert_eq!(
                            git.authorizes(i, t, page, w),
                            want,
                            "seed {seed} step {step}: ({i:?}, {t:?}, {page}, {w})"
                        );
                    }
                }
                assert!(git.len() <= model.len());
                assert_eq!(git.is_empty(), model.is_empty(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn overflowing_ranges_are_kept_verbatim() {
        let mut git = Git::new();
        let huge = GitEntry { gpa_page: u64::MAX - 1, nframes: 4, ..entry() };
        git.register(huge);
        git.register(huge);
        assert_eq!(git.len(), 2, "an overflowing range neither subsumes nor is subsumed");
    }

    #[test]
    fn remove_domain_clears_both_roles() {
        let mut git = Git::new();
        git.register(entry());
        git.register(GitEntry {
            initiator: DomainId(3),
            target: DomainId(1),
            gpa_page: 0,
            nframes: 1,
            writable: true,
        });
        git.remove_domain(DomainId(1));
        assert!(git.is_empty());
    }
}
