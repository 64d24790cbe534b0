//! Physical DRAM and the frame allocator.
//!
//! [`Dram`] holds the *raw* cell contents — i.e. ciphertext for pages
//! covered by the encryption engine. Reading it directly models a physical
//! attack (cold boot, bus snooping, DMA from a malicious device); normal
//! software goes through [`crate::memctrl::MemoryController`] instead.

use crate::error::HwError;
use crate::{Hpa, PAGE_SIZE};

/// Simulated physical memory.
#[derive(Clone)]
pub struct Dram {
    bytes: Vec<u8>,
}

impl std::fmt::Debug for Dram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dram").field("size", &self.bytes.len()).finish()
    }
}

impl Dram {
    /// Allocates `size` bytes of zeroed physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned.
    pub fn new(size: u64) -> Self {
        assert_eq!(size % PAGE_SIZE, 0, "DRAM size must be page aligned");
        Dram { bytes: vec![0; size as usize] }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Number of page frames.
    pub fn frames(&self) -> u64 {
        self.size() / PAGE_SIZE
    }

    /// The one bounds check every raw access goes through: the byte range
    /// `[pa, pa + len)` as indices into the cell vector.
    fn range(&self, pa: Hpa, len: usize) -> Result<std::ops::Range<usize>, HwError> {
        match pa.0.checked_add(len as u64) {
            Some(end) if end <= self.size() => Ok(pa.0 as usize..end as usize),
            _ => Err(HwError::BadPhysicalAddress { pa, len: len as u64 }),
        }
    }

    /// Reads raw cells (ciphertext for encrypted pages). This is the
    /// *physical attacker's* view.
    ///
    /// # Errors
    ///
    /// Fails with [`HwError::BadPhysicalAddress`] when out of range.
    pub fn read_raw(&self, pa: Hpa, buf: &mut [u8]) -> Result<(), HwError> {
        buf.copy_from_slice(self.raw_span(pa, buf.len())?);
        Ok(())
    }

    /// Writes raw cells. Used by the memory controller after encryption,
    /// and by physical attacks (Rowhammer bit flips, bus injection).
    ///
    /// # Errors
    ///
    /// Fails with [`HwError::BadPhysicalAddress`] when out of range.
    pub fn write_raw(&mut self, pa: Hpa, data: &[u8]) -> Result<(), HwError> {
        self.raw_span_mut(pa, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Borrows `len` raw cells at `pa` — [`Dram::read_raw`] without the
    /// copy, so the engine can decrypt straight out of DRAM.
    ///
    /// # Errors
    ///
    /// Fails with [`HwError::BadPhysicalAddress`] when out of range.
    pub fn raw_span(&self, pa: Hpa, len: usize) -> Result<&[u8], HwError> {
        let range = self.range(pa, len)?;
        Ok(&self.bytes[range])
    }

    /// Mutably borrows `len` raw cells at `pa` — [`Dram::write_raw`]
    /// without the copy, so the engine can encrypt straight into DRAM.
    ///
    /// # Errors
    ///
    /// Fails with [`HwError::BadPhysicalAddress`] when out of range.
    pub fn raw_span_mut(&mut self, pa: Hpa, len: usize) -> Result<&mut [u8], HwError> {
        let range = self.range(pa, len)?;
        Ok(&mut self.bytes[range])
    }

    /// Flips a single bit — the Rowhammer primitive.
    ///
    /// # Errors
    ///
    /// Fails with [`HwError::BadPhysicalAddress`] when out of range.
    pub fn flip_bit(&mut self, pa: Hpa, bit: u8) -> Result<(), HwError> {
        self.raw_span_mut(pa, 1)?[0] ^= 1 << (bit & 7);
        Ok(())
    }
}

/// A simple bitmap frame allocator over a physical range.
///
/// Frame ownership *policy* (who may map what) lives in Fidelius's page
/// information table; this type only tracks free/used.
///
/// Lowest free frame first: every frame below `next_hint` is in use,
/// `alloc` scans up from it and `free` lowers it to the freed frame. A new
/// guest therefore lands on the frames the last one returned, host memory
/// that is already resident, instead of on never-touched frames further
/// up the pool.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    base_pfn: u64,
    used: Vec<bool>,
    next_hint: usize,
}

impl FrameAllocator {
    /// Manages frames `[base, base + count * 4096)`.
    pub fn new(base: Hpa, count: u64) -> Self {
        assert_eq!(base.page_offset(), 0, "allocator base must be page aligned");
        FrameAllocator { base_pfn: base.pfn(), used: vec![false; count as usize], next_hint: 0 }
    }

    /// Allocates the lowest free frame.
    ///
    /// # Errors
    ///
    /// Fails with [`HwError::OutOfFrames`] when exhausted.
    pub fn alloc(&mut self) -> Result<Hpa, HwError> {
        let i = self.next_hint
            + self.used[self.next_hint..].iter().position(|&u| !u).ok_or(HwError::OutOfFrames)?;
        self.used[i] = true;
        self.next_hint = i + 1;
        Ok(Hpa::from_pfn(self.base_pfn + i as u64))
    }

    /// Returns a frame to the pool.
    ///
    /// # Errors
    ///
    /// Fails with [`HwError::BadFree`] for frames outside the pool or not
    /// currently allocated.
    pub fn free(&mut self, frame: Hpa) -> Result<(), HwError> {
        let idx = frame
            .pfn()
            .checked_sub(self.base_pfn)
            .filter(|&i| i < self.used.len() as u64)
            .ok_or(HwError::BadFree(frame))? as usize;
        if !self.used[idx] {
            return Err(HwError::BadFree(frame));
        }
        self.used[idx] = false;
        self.next_hint = self.next_hint.min(idx);
        Ok(())
    }

    /// Number of free frames remaining.
    pub fn free_count(&self) -> u64 {
        self.used.iter().filter(|&&u| !u).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_read_write_roundtrip() {
        let mut d = Dram::new(2 * PAGE_SIZE);
        d.write_raw(Hpa(100), b"hello").unwrap();
        let mut buf = [0u8; 5];
        d.read_raw(Hpa(100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn dram_rejects_out_of_range() {
        let mut d = Dram::new(PAGE_SIZE);
        assert!(d.write_raw(Hpa(PAGE_SIZE - 2), b"abc").is_err());
        let mut buf = [0u8; 1];
        assert!(d.read_raw(Hpa(PAGE_SIZE), &mut buf).is_err());
        // Overflow-safe.
        assert!(d.read_raw(Hpa(u64::MAX), &mut buf).is_err());
    }

    #[test]
    fn raw_spans_share_the_raw_bounds_check() {
        let mut d = Dram::new(PAGE_SIZE);
        d.raw_span_mut(Hpa(8), 3).unwrap().copy_from_slice(b"xyz");
        assert_eq!(d.raw_span(Hpa(8), 3).unwrap(), b"xyz");
        assert!(d.raw_span(Hpa(PAGE_SIZE), 0).is_ok(), "empty span at the end");
        for (pa, len) in [(PAGE_SIZE - 2, 3), (PAGE_SIZE, 1), (u64::MAX, 1)] {
            let want = HwError::BadPhysicalAddress { pa: Hpa(pa), len: len as u64 };
            assert_eq!(d.raw_span(Hpa(pa), len).unwrap_err(), want);
            assert_eq!(d.raw_span_mut(Hpa(pa), len).unwrap_err(), want);
            assert_eq!(d.read_raw(Hpa(pa), &mut vec![0; len]).unwrap_err(), want);
        }
    }

    #[test]
    fn dram_bit_flip() {
        let mut d = Dram::new(PAGE_SIZE);
        d.flip_bit(Hpa(10), 3).unwrap();
        let mut buf = [0u8; 1];
        d.read_raw(Hpa(10), &mut buf).unwrap();
        assert_eq!(buf[0], 0b1000);
    }

    #[test]
    fn allocator_allocates_distinct_frames() {
        let mut fa = FrameAllocator::new(Hpa(0x10000), 4);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.free_count(), 2);
        fa.free(a).unwrap();
        assert_eq!(fa.free_count(), 3);
    }

    #[test]
    fn allocator_exhaustion_and_reuse() {
        let mut fa = FrameAllocator::new(Hpa(0), 2);
        let a = fa.alloc().unwrap();
        let _b = fa.alloc().unwrap();
        assert!(matches!(fa.alloc(), Err(HwError::OutOfFrames)));
        fa.free(a).unwrap();
        assert_eq!(fa.alloc().unwrap(), a);
    }

    #[test]
    fn allocator_bad_free() {
        let mut fa = FrameAllocator::new(Hpa(0x1000), 2);
        assert!(matches!(fa.free(Hpa(0x0)), Err(HwError::BadFree(_))));
        assert!(matches!(fa.free(Hpa(0x1000)), Err(HwError::BadFree(_))));
        let a = fa.alloc().unwrap();
        fa.free(a).unwrap();
        assert!(matches!(fa.free(a), Err(HwError::BadFree(_))));
    }

    #[test]
    fn free_makes_the_next_alloc_return_the_lowest_free_frame() {
        let mut fa = FrameAllocator::new(Hpa(0x4000), 8);
        let frames: Vec<Hpa> = (0..6).map(|_| fa.alloc().unwrap()).collect();
        assert_eq!(frames, (0..6).map(|i| Hpa(0x4000 + i * PAGE_SIZE)).collect::<Vec<_>>());
        fa.free(frames[4]).unwrap();
        fa.free(frames[1]).unwrap();
        assert_eq!(fa.alloc().unwrap(), frames[1], "lowest free frame first");
        assert_eq!(fa.alloc().unwrap(), frames[4]);
        assert_eq!(fa.alloc().unwrap(), Hpa(0x4000 + 6 * PAGE_SIZE), "then the untouched tail");
        // Freed top down, the pool is handed out again from its bottom.
        for &f in frames.iter().rev() {
            fa.free(f).unwrap();
        }
        assert_eq!(fa.alloc().unwrap(), frames[0]);
    }
}
