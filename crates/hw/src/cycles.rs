//! The cycle-cost model.
//!
//! The paper measures costs with `rdtsc` on an AMD Ryzen 1700-class part.
//! Off hardware, we charge every architectural event an explicit cost and
//! let the *sums* emerge. The per-event constants below are calibrated so
//! that the event sequences of the paper's three gates reproduce its
//! measured totals (306 / 16 / 339 cycles — micro-benchmark 1), the
//! shadow-plus-verify sequence reproduces 661 cycles (micro-benchmark 2),
//! and the per-cache-line encryption costs reproduce the memcpy overheads
//! of +8.69% (SME engine) and +11.49% (AES-NI) (micro-benchmark 3).
//!
//! Calibration is *per event*, not per result: e.g. `write_cr0` = 126
//! cycles is in the range AMD documents for serializing control-register
//! writes, and a type-1 gate performs two of them (clear WP on entry, set
//! WP on exit) plus interrupt toggling, stack switching and sanity checks.

/// Per-event costs, in cycles. All fields are public so experiments can
/// build ablated models.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// `cli` — disable interrupts.
    pub cli: f64,
    /// `sti` — enable interrupts.
    pub sti: f64,
    /// Switching to/from the gate's private stack.
    pub stack_switch: f64,
    /// A serializing write to CR0 (toggling WP).
    pub write_cr0: f64,
    /// A serializing write to CR4.
    pub write_cr4: f64,
    /// A full CR3 write (address-space switch) *excluding* the TLB flush
    /// it implies; the flush is charged separately.
    pub write_cr3: f64,
    /// `wrmsr`.
    pub wrmsr: f64,
    /// The sanity-check logic around a gate (interrupt state, stack,
    /// return address).
    pub sanity_check: f64,
    /// One `invlpg` — flushing a single TLB entry.
    pub tlb_flush_entry: f64,
    /// A full TLB flush (implied by a CR3 write).
    pub tlb_flush_full: f64,
    /// Writing one already-cached word (e.g. a PTE) — the paper measures
    /// "writing data into cache uses less than 2 cycles".
    pub cached_word_write: f64,
    /// Gate trampoline dispatch (indirect jump into the mapped-in page and
    /// back) for type-3 gates.
    pub gate_dispatch: f64,
    /// World switch: VMEXIT hardware portion.
    pub vmexit: f64,
    /// World switch: VMRUN hardware portion.
    pub vmrun: f64,
    /// Copying one cache line (64 B) memory-to-memory.
    pub copy_cache_line: f64,
    /// Comparing one cache line against a shadow copy.
    pub compare_cache_line: f64,
    /// Masking/overwriting one VMCB field.
    pub mask_field: f64,
    /// Saving or restoring one general-purpose register.
    pub reg_copy: f64,
    /// Per-cache-line extra latency of the SME/SEV engine on a memory
    /// access to an encrypted (C-bit) page.
    pub engine_line_extra: f64,
    /// Per-cache-line cost of AES-NI software encryption (guest-side
    /// `Kblk` path).
    pub aesni_line: f64,
    /// Per-cache-line cost of software-emulated (table-free) AES.
    pub soft_aes_line: f64,
    /// Per-cache-line cost of a plain memory copy.
    pub memcpy_line: f64,
    /// Fixed cost of a hypercall round trip excluding Fidelius additions.
    pub hypercall_base: f64,
    /// One nested-page-table walk on a TLB miss.
    pub npt_walk: f64,
    /// One guest page-table walk on a TLB miss.
    pub gpt_walk: f64,
    /// DRAM access latency for one cache line (miss in all caches).
    pub dram_line: f64,
    /// Base cost of one CPU memory access that hits the TLB and cache.
    pub mem_access: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cli: 6.0,
            sti: 6.0,
            stack_switch: 13.0,
            write_cr0: 126.0,
            write_cr4: 110.0,
            write_cr3: 150.0,
            wrmsr: 100.0,
            sanity_check: 8.0,
            tlb_flush_entry: 128.0,
            tlb_flush_full: 600.0,
            cached_word_write: 1.5,
            gate_dispatch: 13.0,
            vmexit: 1200.0,
            vmrun: 900.0,
            copy_cache_line: 4.0,
            compare_cache_line: 4.0,
            mask_field: 2.0,
            reg_copy: 2.0,
            engine_line_extra: 4.0,
            aesni_line: 5.29,
            soft_aes_line: 980.0,
            memcpy_line: 46.0,
            hypercall_base: 2400.0,
            npt_walk: 90.0,
            gpt_walk: 60.0,
            dram_line: 180.0,
            mem_access: 1.0,
        }
    }
}

impl CostModel {
    /// Cost of a type-1 gate round trip (clear WP → body → set WP).
    /// Composition per paper §4.1.3: disable interrupts, switch stacks,
    /// toggle `CR0.WP`, sanity checks — in both directions.
    pub fn type1_gate_round_trip(&self) -> f64 {
        2.0 * (self.cli.max(self.sti) + self.stack_switch + self.write_cr0 + self.sanity_check)
    }

    /// Cost of a type-2 gate (checking loop around a monopolized
    /// instruction): just the sanity checks on both sides.
    pub fn type2_gate_round_trip(&self) -> f64 {
        2.0 * self.sanity_check
    }

    /// Cost of a type-3 gate round trip (temporarily add a mapping, flush
    /// the stale TLB entry, execute, withdraw the mapping, flush again).
    pub fn type3_gate_round_trip(&self) -> f64 {
        2.0 * (self.cli.max(self.sti)
            + self.stack_switch
            + self.cached_word_write
            + self.tlb_flush_entry
            + self.sanity_check)
            + 2.0 * self.gate_dispatch
    }

    /// Cost added by shadowing the VMCB + registers on exit and verifying
    /// them before re-entry (paper micro-benchmark 2: 661 cycles).
    ///
    /// `vmcb_lines` is the VMCB size in cache lines; `masked_fields` the
    /// number of fields hidden for the exit reason (28 for a
    /// void hypercall).
    pub fn shadow_check_round_trip(&self, vmcb_lines: u64, masked_fields: u64) -> f64 {
        let copy = vmcb_lines as f64 * self.copy_cache_line;
        let mask = masked_fields as f64 * self.mask_field;
        let regs = 16.0 * self.reg_copy; // save on exit
        let compare = vmcb_lines as f64 * self.compare_cache_line;
        let restore = 16.0 * self.reg_copy; // overwrite from shadow on entry
        copy + mask + regs + compare + restore + 2.0 * self.sanity_check + self.gate_dispatch
    }
}

pub use fidelius_telemetry::{CycleBreakdown, CycleCategory};

/// The largest cycle count the counter converts to `u64` exactly.
///
/// Charges accumulate in `f64`, whose integers are exact up to 2^53
/// (≈ 9.0 × 10^15 cycles — about 35 days at 3 GHz, far beyond any simulated
/// run). Below that bound the only imprecision is the sub-cycle fraction
/// lost when individual fractional charges (e.g. `cached_word_write = 1.5`)
/// round: once a category total exceeds 2^52, adding a charge smaller than
/// half a cycle may be absorbed. [`Cycles::total`] `debug_assert!`s the
/// bound and clamps in release builds rather than silently wrapping.
pub const MAX_EXACT_CYCLES: f64 = 9_007_199_254_740_992.0; // 2^53

/// An accumulating cycle counter with span-based category attribution.
/// Components charge costs here; the workload runner reads it as the
/// simulated `rdtsc`.
///
/// Every charge lands in exactly one [`CycleCategory`]: either the
/// *current* category (the one a [`crate::cpu::Site`] charged to sets
/// for its body) or an explicit one via [`Cycles::charge_as`]. There is no separate grand-total
/// accumulator — [`Cycles::total_f64`] is *defined* as the fixed-order sum
/// of the per-category array — so the breakdown sums to the total exactly,
/// by construction, regardless of float rounding.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycles {
    by_category: [f64; CycleCategory::COUNT],
    current: CycleCategory,
}

impl Default for Cycles {
    fn default() -> Self {
        Cycles { by_category: [0.0; CycleCategory::COUNT], current: CycleCategory::Baseline }
    }
}

impl Cycles {
    /// A fresh counter at zero, attributing to [`CycleCategory::Baseline`].
    pub fn new() -> Self {
        Cycles::default()
    }

    /// Adds `cost` cycles to the current category.
    pub fn charge(&mut self, cost: f64) {
        debug_assert!(cost >= 0.0, "negative cycle charge");
        self.by_category[self.current.index()] += cost;
    }

    /// Adds `cost` cycles to an explicit category, ignoring the current span.
    pub fn charge_as(&mut self, category: CycleCategory, cost: f64) {
        debug_assert!(cost >= 0.0, "negative cycle charge");
        self.by_category[category.index()] += cost;
    }

    /// Opens an attribution span: subsequent [`Cycles::charge`] calls land
    /// in `category`. Returns the previous category; pass it to
    /// [`Cycles::exit`] when the span closes (spans nest by stacking the
    /// returned values).
    #[must_use = "pass the previous category back to `exit` to close the span"]
    pub(crate) fn enter(&mut self, category: CycleCategory) -> CycleCategory {
        std::mem::replace(&mut self.current, category)
    }

    /// Closes a span opened by [`Cycles::enter`], restoring `previous`.
    pub(crate) fn exit(&mut self, previous: CycleCategory) {
        self.current = previous;
    }

    /// The category charges currently land in.
    pub fn current_category(&self) -> CycleCategory {
        self.current
    }

    /// Cycles attributed to one category so far.
    pub fn in_category(&self, category: CycleCategory) -> f64 {
        self.by_category[category.index()]
    }

    /// The per-category breakdown.
    pub fn breakdown(&self) -> CycleBreakdown {
        CycleBreakdown { by_category: self.by_category }
    }

    /// Current count, rounded to whole cycles.
    ///
    /// Uses `f64::round` plus a checked conversion: totals beyond
    /// [`MAX_EXACT_CYCLES`] trip a `debug_assert!` and clamp in release
    /// builds (the old `as u64` cast saturated silently with no indication
    /// the count had left the exactly-representable range).
    pub fn total(&self) -> u64 {
        let rounded = self.total_f64().round();
        debug_assert!(
            (0.0..=MAX_EXACT_CYCLES).contains(&rounded),
            "cycle total {rounded} outside the exactly-representable u64 range",
        );
        rounded.clamp(0.0, MAX_EXACT_CYCLES) as u64
    }

    /// Current count as a float (for ratios). Exactly equal to
    /// `self.breakdown().total()`.
    pub fn total_f64(&self) -> f64 {
        self.breakdown().total()
    }

    /// Resets every category to zero and returns the previous total. The
    /// current span category is left unchanged.
    pub fn reset(&mut self) -> u64 {
        let t = self.total();
        self.by_category = [0.0; CycleCategory::COUNT];
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_costs_match_paper_measurements() {
        let m = CostModel::default();
        assert_eq!(m.type1_gate_round_trip().round() as u64, 306, "type 1 gate");
        assert_eq!(m.type2_gate_round_trip().round() as u64, 16, "type 2 gate");
        assert_eq!(m.type3_gate_round_trip().round() as u64, 339, "type 3 gate");
    }

    #[test]
    fn type3_flush_and_cache_write_match_paper_breakdown() {
        let m = CostModel::default();
        // "flushing TLB uses 128 cycles and writing data into cache uses
        // less than 2 cycles"
        assert_eq!(m.tlb_flush_entry, 128.0);
        assert!(m.cached_word_write < 2.0);
    }

    #[test]
    fn shadow_check_matches_paper_measurement() {
        let m = CostModel::default();
        // VMCB is 1 KiB = 16 cache lines... the paper's Xen VMCB save area
        // spans 1024 bytes; we shadow the full 4 KiB page the VMCB sits in
        // minus unused space: 64 lines, with 28 fields masked for a void
        // hypercall exit.
        let cost = m.shadow_check_round_trip(64, 28);
        assert_eq!(cost.round() as u64, 661, "shadow+check round trip, got {cost}");
    }

    #[test]
    fn engine_overhead_ratio_matches_sme_measurement() {
        let m = CostModel::default();
        // 512 MB copy: engine adds `engine_line_extra` per line on both the
        // read and the write side of the copy... the paper's 8.69% is the
        // end-to-end slowdown; reads hit the decryption engine and writes
        // the encryption engine, but writes are posted, so only one side's
        // latency is exposed.
        let ratio = m.engine_line_extra / m.memcpy_line;
        assert!((ratio - 0.0869).abs() < 0.002, "sme ratio {ratio}");
        let aesni = m.aesni_line / m.memcpy_line;
        assert!((aesni - 0.1149).abs() < 0.002, "aesni ratio {aesni}");
        let soft = m.soft_aes_line / m.memcpy_line;
        assert!(soft > 20.0, "software AES must be >20x, got {soft}");
    }

    #[test]
    fn counter_accumulates_and_resets() {
        let mut c = Cycles::new();
        c.charge(1.5);
        c.charge(2.4);
        assert_eq!(c.total(), 4);
        assert_eq!(c.reset(), 4);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn spans_attribute_to_categories_and_nest() {
        let mut c = Cycles::new();
        c.charge(10.0); // baseline
        let prev = c.enter(CycleCategory::Gates);
        c.charge(306.0);
        let inner = c.enter(CycleCategory::Paging);
        c.charge(128.0);
        c.exit(inner);
        assert_eq!(c.current_category(), CycleCategory::Gates);
        c.charge(16.0);
        c.exit(prev);
        assert_eq!(c.current_category(), CycleCategory::Baseline);
        c.charge_as(CycleCategory::WorldSwitch, 2100.0);
        assert_eq!(c.in_category(CycleCategory::Baseline), 10.0);
        assert_eq!(c.in_category(CycleCategory::Gates), 322.0);
        assert_eq!(c.in_category(CycleCategory::Paging), 128.0);
        assert_eq!(c.in_category(CycleCategory::WorldSwitch), 2100.0);
    }

    #[test]
    fn breakdown_sums_exactly_to_total() {
        let mut c = Cycles::new();
        // Fractional charges across categories: the breakdown total and
        // total_f64 are the same fixed-order sum, so equality is exact.
        for (i, cat) in CycleCategory::ALL.iter().enumerate() {
            c.charge_as(*cat, 0.1 * (i as f64 + 1.0));
        }
        let b = c.breakdown();
        assert_eq!(b.total(), c.total_f64());
        assert_eq!(b.total().to_bits(), c.total_f64().to_bits());
    }

    #[test]
    fn total_rounds_and_stays_in_exact_range() {
        let mut c = Cycles::new();
        c.charge(0.49);
        assert_eq!(c.total(), 0);
        c.charge(0.02);
        assert_eq!(c.total(), 1, "0.51 rounds to 1");
        assert!(MAX_EXACT_CYCLES as u64 == 1u64 << 53);
    }
}
