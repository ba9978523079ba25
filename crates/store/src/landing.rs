//! Where a read's bytes land: one output allocation, carved into the
//! file's partition regions, that replies are written straight into.
//!
//! A [`crate::Client::read`] allocates its output once, uninitialised,
//! and hands each data `Get` of its fork that partition's [`Region`]. A transport that can land in place (`spcache-net`'s event
//! loop) claims the region when the reply's frame header shows a `Data`
//! payload of exactly the region's length, reads the payload from the
//! socket into it, and lands it; the reply it delivers then carries no
//! bytes. Bytes that arrive another way — the in-process transport's
//! zero-copy views, a decode from parity — are placed by the client. So a
//! partition's bytes cross user space once, and the join pass over the
//! file is gone.
//!
//! Each region moves `free → claimed → landed`, one atomic per region:
//!
//! * **free → claimed** — [`Region::claim`] (a loop) or the owner's
//!   [`Landing::place`] / [`Landing::fill`] (the client), whichever comes
//!   first. The [`Claim`] is the region's one writer.
//! * **claimed → landed** — [`Claim::land`], once every byte is written.
//! * **claimed → free** — a claim dropped unlanded: EOF mid-frame, a
//!   request reaped while its frame was half read, a decode that did not
//!   prove.
//! * **landed → free** — [`Landing::reset`], the owner's alone, when the
//!   bytes fail verification.
//!
//! Readers touch only landed regions, which nobody writes. When bytes
//! arrive for a region a loop still holds (the client decoded a part
//! whose reply a loop was still reading mid-frame), they are staged
//! beside the allocation instead, and [`Landing::into_vec`] copies the
//! file out.
//! It returns the allocation itself only when every part landed in its
//! region and no loop still holds a handle on it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use spcache_core::online::partition_range;

const FREE: u8 = 0;
const CLAIMED: u8 = 1;
const LANDED: u8 = 2;

/// One partition's place in the allocation.
#[derive(Debug)]
struct Slot {
    range: Range<usize>,
    state: AtomicU8,
}

/// The allocation and its regions, shared by the owner and every loop
/// holding a [`Region`] or a [`Claim`].
#[derive(Debug)]
struct Shared {
    /// `Vec::<u8>::with_capacity(size)`'s buffer, never initialised as a
    /// whole; freed by `Drop` unless [`Shared::into_vec`] adopts it.
    ptr: *mut u8,
    cap: usize,
    size: usize,
    slots: Vec<Slot>,
}

// SAFETY: `Shared` owns its allocation (`ptr`/`cap`) exclusively, and
// every access to it goes through the region protocol: bytes of a region
// are written only through the one `Claim` that won its free → claimed
// transition, and read only after an `Acquire` load sees it landed
// (paired with the claim's `Release` store), after which nobody writes
// them until the owner — through `&mut Landing` — resets the region.
// `size`, `cap` and the slot ranges never change after construction, and
// the slot states are atomics.
unsafe impl Send for Shared {}
// SAFETY: see `Send`: shared access is `&self` methods that either read
// immutable fields, operate on atomics, or touch region bytes under the
// protocol above.
unsafe impl Sync for Shared {}

impl Shared {
    fn new(size: usize, k: usize) -> Shared {
        let mut buf = ManuallyDrop::new(Vec::<u8>::with_capacity(size));
        let slots = (0..k)
            .map(|j| {
                let r = partition_range(size as u64, k, j);
                Slot {
                    range: r.start as usize..r.end as usize,
                    state: AtomicU8::new(FREE),
                }
            })
            .collect();
        Shared {
            ptr: buf.as_mut_ptr(),
            cap: buf.capacity(),
            size,
            slots,
        }
    }

    fn is_landed(&self, j: usize) -> bool {
        self.slots[j].state.load(Ordering::Acquire) == LANDED
    }

    /// The free → claimed transition: the only way to become region
    /// `j`'s writer.
    fn claim(self: &Arc<Self>, j: usize) -> Option<Claim> {
        self.slots[j]
            .state
            .compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
            .ok()?;
        Some(Claim {
            shared: Arc::clone(self),
            index: j,
            filled: 0,
            landed: false,
        })
    }

    /// The bytes of landed region `j`.
    fn landed(&self, j: usize) -> Option<&[u8]> {
        if !self.is_landed(j) {
            return None;
        }
        let r = &self.slots[j].range;
        // SAFETY: the region lies inside the allocation (the slot ranges
        // tile `0..size ≤ cap`), every byte of it was written before the
        // claim's `Release` store of LANDED that the `Acquire` load above
        // saw, and a landed region is written again only after the owner
        // resets it, which needs `&mut Landing` while this borrow lives
        // on `&Landing`.
        Some(unsafe { std::slice::from_raw_parts(self.ptr.add(r.start), r.len()) })
    }

    /// The whole file as a `Vec` over the allocation itself.
    fn into_vec(self) -> Vec<u8> {
        assert!(
            (0..self.slots.len()).all(|j| self.is_landed(j)),
            "adopting an allocation with a region not landed"
        );
        let this = ManuallyDrop::new(self);
        // SAFETY: `ptr`/`cap` are the buffer of a `Vec<u8>` this `Shared`
        // owns alone (it was unwrapped from its last `Arc`), and every
        // region landed: the slots tile `0..size`, so all `size` bytes
        // are initialised. `ManuallyDrop` keeps `Drop` from freeing it.
        unsafe { Vec::from_raw_parts(this.ptr, this.size, this.cap) }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`cap` are the buffer of a `Vec<u8>` with capacity
        // `cap`; length 0 drops no element (bytes need none) and frees it.
        drop(unsafe { Vec::from_raw_parts(self.ptr, 0, self.cap) });
    }
}

/// A transport's handle on one partition region of a read: where the
/// `Data` reply to the `Get` it rides with may land. Holding it keeps
/// the allocation alive, not the region: [`Region::claim`] is how a
/// writer gets in.
#[derive(Debug, Clone)]
pub struct Region {
    shared: Arc<Shared>,
    index: usize,
}

impl Region {
    /// Claims the region for a payload of `len` bytes: `None` unless the
    /// region is free and exactly `len` bytes long — a reply of any other
    /// length is not this partition and never lands.
    pub fn claim(&self, len: usize) -> Option<Claim> {
        (self.shared.slots[self.index].range.len() == len)
            .then(|| self.shared.claim(self.index))
            .flatten()
    }
}

/// The one writer of a claimed region. Bytes go in front to back
/// ([`put`](Claim::put), or a raw read into [`spare`](Claim::spare)
/// confirmed by [`advance`](Claim::advance)); [`land`](Claim::land)
/// publishes them. Dropped unlanded, the claim frees the region again
/// and nothing it wrote is ever read.
#[derive(Debug)]
pub struct Claim {
    shared: Arc<Shared>,
    index: usize,
    /// Bytes written so far, from the region's start.
    filled: usize,
    /// Set by [`land`](Claim::land), so `Drop` leaves the region landed.
    landed: bool,
}

impl Claim {
    fn range(&self) -> &Range<usize> {
        &self.shared.slots[self.index].range
    }

    /// Bytes still to be written.
    pub fn remaining(&self) -> usize {
        self.range().len() - self.filled
    }

    /// Writes `src` next.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than [`remaining`](Claim::remaining).
    pub fn put(&mut self, src: &[u8]) {
        assert!(src.len() <= self.remaining(), "payload overruns its region");
        let at = self.range().start + self.filled;
        // SAFETY: `at..at + src.len()` lies inside this claim's region
        // (checked just above), which lies inside the allocation; this
        // claim is the region's only writer and nobody reads a claimed
        // region; `src` is a live borrow that cannot alias the region,
        // to which no shared slice exists while it is claimed.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.shared.ptr.add(at), src.len());
        }
        self.filled += src.len();
    }

    /// The unwritten rest of the region, possibly uninitialised — for a
    /// raw `read(2)` straight into it.
    pub fn spare(&mut self) -> &mut [MaybeUninit<u8>] {
        let at = self.range().start + self.filled;
        let len = self.remaining();
        // SAFETY: `at..at + len` is the unwritten tail of this claim's
        // region, inside the allocation; the claim is its only writer and
        // nobody else reads or writes a claimed region, so this unique
        // borrow (tied to `&mut self`) aliases nothing. `MaybeUninit`
        // makes no claim that the bytes are initialised.
        unsafe { std::slice::from_raw_parts_mut(self.shared.ptr.add(at).cast(), len) }
    }

    /// Counts the first `n` bytes of [`spare`](Claim::spare) as written.
    ///
    /// # Safety
    ///
    /// Those `n` bytes must have been initialised since `spare` returned
    /// them — e.g. by a `read(2)` that reported `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`remaining`](Claim::remaining).
    pub unsafe fn advance(&mut self, n: usize) {
        assert!(n <= self.remaining(), "advance past the region");
        self.filled += n;
    }

    /// The region's bytes, zeroed — a buffer for a decode to overwrite.
    fn zeroed(&mut self) -> &mut [u8] {
        let start = self.range().start;
        let len = self.range().len();
        // SAFETY: `start..start + len` is this claim's region, inside the
        // allocation, written only by this claim (see `spare`); it is
        // zeroed right here before the `&mut [u8]` over it exists, so the
        // slice covers initialised bytes only.
        let out = unsafe {
            let p = self.shared.ptr.add(start);
            std::ptr::write_bytes(p, 0, len);
            std::slice::from_raw_parts_mut(p, len)
        };
        self.filled = len;
        out
    }

    /// Publishes the region: claimed → landed, if every byte is written.
    /// `false` (and the region free again) when some are not.
    pub fn land(mut self) -> bool {
        if self.remaining() != 0 {
            return false;
        }
        self.landed = true;
        self.shared.slots[self.index]
            .state
            .store(LANDED, Ordering::Release);
        true
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if !self.landed {
            // What was written is abandoned; the region is free again.
            self.shared.slots[self.index]
                .state
                .store(FREE, Ordering::Release);
        }
    }
}

/// Where one part of the read is held.
#[derive(Debug, Clone)]
enum Part {
    /// Not yet in hand.
    Missing,
    /// Landed in its region of the allocation.
    Region,
    /// Held beside the allocation: bytes placed or decoded while a loop
    /// held the region.
    Staged(Bytes),
}

/// One read attempt's parts: the owner's side of the landing. It owns
/// the output allocation and offers its [`Region`]s to the transport.
#[derive(Debug)]
pub struct Landing {
    size: usize,
    shared: Arc<Shared>,
    parts: Vec<Part>,
}

impl Landing {
    /// A read of a `size`-byte file in `k` partitions: one uninitialised
    /// allocation of `size` bytes, `k` free regions.
    pub fn new(size: usize, k: usize) -> Landing {
        Landing {
            size,
            shared: Arc::new(Shared::new(size, k)),
            parts: vec![Part::Missing; k],
        }
    }

    /// The file's size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Byte range of part `j` within the file.
    pub fn range(&self, j: usize) -> Range<usize> {
        let r = partition_range(self.size as u64, self.parts.len(), j);
        r.start as usize..r.end as usize
    }

    /// The region a transport may land part `j`'s reply in.
    pub fn region(&self, j: usize) -> Region {
        Region {
            shared: Arc::clone(&self.shared),
            index: j,
        }
    }

    /// Whether part `j` is in hand.
    pub fn has(&self, j: usize) -> bool {
        !matches!(self.parts[j], Part::Missing)
    }

    /// The bytes of part `j`, if in hand.
    pub fn part(&self, j: usize) -> Option<&[u8]> {
        match &self.parts[j] {
            Part::Missing => None,
            Part::Region => self.shared.landed(j),
            Part::Staged(bytes) => Some(bytes),
        }
    }

    /// Takes part `j` as landed in place, as a transport reported: `true`
    /// when its region really holds it.
    pub fn accept(&mut self, j: usize) -> bool {
        let landed = self.shared.is_landed(j);
        if landed {
            self.parts[j] = Part::Region;
        }
        landed
    }

    /// Places part `j`, whose bytes arrived another way: copied into its
    /// region when that is free, kept as the view it is when a loop still
    /// holds the region.
    ///
    /// # Panics
    ///
    /// Panics unless `data` is exactly part `j`'s length.
    pub fn place(&mut self, j: usize, data: Bytes) {
        assert_eq!(
            data.len(),
            self.range(j).len(),
            "part {j} of the wrong length"
        );
        self.parts[j] = match self.shared.claim(j) {
            Some(mut claim) => {
                claim.put(&data);
                claim.land();
                Part::Region
            }
            None => Part::Staged(data),
        };
    }

    /// Fills missing part `j` with `f(parts, out)`: `parts` are the parts
    /// in hand in index order (`None` where missing), `out` is part `j`'s
    /// zeroed bytes — its region when free, a staged buffer otherwise.
    /// `f` answers whether `out` now holds the part; when it does not,
    /// part `j` stays missing. Returns that answer.
    pub fn fill(&mut self, j: usize, f: impl FnOnce(&[Option<&[u8]>], &mut [u8]) -> bool) -> bool {
        debug_assert!(!self.has(j), "filling part {j}, which is in hand");
        let claim = self.shared.claim(j);
        let parts: Vec<Option<&[u8]>> = (0..self.parts.len()).map(|i| self.part(i)).collect();
        let held = match claim {
            // An unproved decode drops the claim: the region is free again.
            Some(mut claim) => (f(&parts, claim.zeroed()) && claim.land()).then_some(Part::Region),
            None => {
                let mut out = vec![0; self.range(j).len()];
                f(&parts, &mut out).then(|| Part::Staged(Bytes::from(out)))
            }
        };
        match held {
            Some(part) => {
                self.parts[j] = part;
                true
            }
            None => false,
        }
    }

    /// Drops part `j`, which failed verification: a landed region is free
    /// again, a staged part forgotten.
    pub fn reset(&mut self, j: usize) {
        if matches!(self.parts[j], Part::Region) {
            self.shared.slots[j].state.store(FREE, Ordering::Release);
        }
        self.parts[j] = Part::Missing;
    }

    /// The contiguous file: the allocation itself when every part landed
    /// in its region and no loop still holds a handle on it, else a copy
    /// of the parts.
    ///
    /// # Errors
    ///
    /// The index of the first part not in hand.
    pub fn into_vec(self) -> Result<Vec<u8>, usize> {
        let this = if self.parts.iter().all(|p| matches!(p, Part::Region)) {
            match Arc::try_unwrap(self.shared) {
                Ok(shared) => return Ok(shared.into_vec()),
                Err(shared) => Landing { shared, ..self },
            }
        } else {
            self
        };
        let mut out = Vec::with_capacity(this.size);
        for j in 0..this.parts.len() {
            out.extend_from_slice(this.part(j).ok_or(j)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// What a loop does with a whole payload: claim, write, land.
    fn land_as_loop(landing: &Landing, j: usize, data: &[u8]) -> bool {
        let region = landing.region(j);
        let Some(mut claim) = region.claim(data.len()) else {
            return false;
        };
        claim.put(data);
        claim.land()
    }

    #[test]
    fn every_part_landed_in_place_returns_the_allocation() {
        let data = file(1000);
        let mut landing = Landing::new(1000, 3);
        for j in [2, 0, 1] {
            let r = landing.range(j);
            assert!(land_as_loop(&landing, j, &data[r]));
            assert!(landing.accept(j));
        }
        let base = landing.shared.ptr as usize;
        let out = landing.into_vec().unwrap();
        assert_eq!(out, data);
        assert_eq!(out.as_ptr() as usize, base, "the allocation was copied");
    }

    #[test]
    fn a_region_is_claimed_once_and_only_at_its_length() {
        let landing = Landing::new(10, 2);
        let region = landing.region(0);
        assert!(
            region.claim(4).is_none(),
            "a 4-byte reply for a 5-byte part"
        );
        assert!(region.claim(6).is_none());
        let claim = region.claim(5).expect("free and the right length");
        assert!(region.claim(5).is_none(), "two writers");
        drop(claim);
        assert!(
            region.claim(5).is_some(),
            "a dropped claim frees the region"
        );
    }

    #[test]
    fn an_unfinished_claim_never_lands() {
        let mut landing = Landing::new(10, 2);
        let mut claim = landing.region(1).claim(5).unwrap();
        claim.put(b"abc");
        assert_eq!(claim.remaining(), 2);
        assert!(!claim.land(), "three of five bytes landed");
        assert!(!landing.accept(1));
        assert_eq!(landing.part(1), None);
        // The region is free for the next writer.
        landing.place(1, Bytes::from(b"vwxyz".to_vec()));
        assert_eq!(landing.part(1), Some(&b"vwxyz"[..]));
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn a_claim_refuses_bytes_past_its_region() {
        let landing = Landing::new(10, 2);
        let mut claim = landing.region(0).claim(5).unwrap();
        claim.put(b"abcdef");
    }

    #[test]
    fn raw_fills_count_only_what_was_confirmed() {
        let mut landing = Landing::new(4, 1);
        let mut claim = landing.region(0).claim(4).unwrap();
        for (slot, b) in claim.spare().iter_mut().zip(b"wxyz") {
            slot.write(*b);
        }
        // SAFETY: the loop above initialised all four spare bytes.
        unsafe { claim.advance(4) };
        assert!(claim.land());
        assert!(landing.accept(0));
        assert_eq!(landing.into_vec(), Ok(b"wxyz".to_vec()));
    }

    #[test]
    fn bytes_for_a_region_a_loop_holds_are_staged_and_copied_out() {
        // A loop claimed part 1 (its frame half read) when the client
        // placed bytes for it: they are staged, and the file is copied
        // out exactly, whatever the loop's claim does afterwards.
        let data = file(999);
        let mut landing = Landing::new(999, 3);
        let r1 = landing.range(1);
        let mut held = landing.region(1).claim(r1.len()).unwrap();
        held.put(&[0xEE; 10]);
        for j in 0..3 {
            landing.place(j, Bytes::from(data[landing.range(j)].to_vec()));
        }
        drop(held);
        assert_eq!(landing.into_vec(), Ok(data));
    }

    #[test]
    fn a_loop_still_holding_a_handle_forces_the_copy_out() {
        let data = file(64);
        let mut landing = Landing::new(64, 2);
        let outstanding = landing.region(0);
        for j in 0..2 {
            landing.place(j, Bytes::from(data[landing.range(j)].to_vec()));
        }
        let base = landing.shared.ptr as usize;
        let out = landing.into_vec().unwrap();
        assert_eq!(out, data);
        assert_ne!(out.as_ptr() as usize, base);
        drop(outstanding);
    }

    #[test]
    fn reset_frees_a_landed_region_for_a_decode() {
        let data = file(30);
        let mut landing = Landing::new(30, 3);
        for j in 0..3 {
            let r = landing.range(j);
            let mut bad = data[r].to_vec();
            if j == 1 {
                bad[0] ^= 1;
            }
            assert!(land_as_loop(&landing, j, &bad));
            assert!(landing.accept(j));
        }
        landing.reset(1);
        assert!(!landing.has(1));
        let want = data[landing.range(1)].to_vec();
        let ok = landing.fill(1, |parts, out| {
            assert_eq!(parts[1], None);
            assert!(parts[0].is_some() && parts[2].is_some());
            assert!(out.iter().all(|&b| b == 0), "not zeroed");
            out.copy_from_slice(&want);
            true
        });
        assert!(ok);
        assert_eq!(landing.into_vec(), Ok(data));
    }

    #[test]
    fn a_fill_that_does_not_prove_leaves_the_part_missing() {
        let mut landing = Landing::new(30, 3);
        assert!(!landing.fill(2, |_, out| {
            out.fill(9);
            false
        }));
        assert!(!landing.has(2));
        assert!(
            landing.region(2).claim(10).is_some(),
            "region still claimed"
        );
    }

    #[test]
    fn empty_files_and_empty_parts_land() {
        let mut landing = Landing::new(0, 4);
        for j in 0..4 {
            assert!(land_as_loop(&landing, j, &[]));
            assert!(landing.accept(j));
        }
        assert_eq!(landing.into_vec(), Ok(Vec::<u8>::new()));
        // size < k: the tail parts are empty.
        let mut landing = Landing::new(2, 4);
        landing.place(0, Bytes::from(vec![1]));
        landing.place(1, Bytes::from(vec![2]));
        landing.place(2, Bytes::new());
        assert!(landing.fill(3, |_, out| out.is_empty()));
        assert_eq!(landing.into_vec(), Ok(vec![1, 2]));
    }

    #[test]
    fn a_part_not_in_hand_is_named_not_joined() {
        let mut landing = Landing::new(30, 3);
        landing.place(0, Bytes::from(vec![1; 10]));
        landing.place(2, Bytes::from(vec![3; 10]));
        assert_eq!(landing.into_vec(), Err(1));
    }
}
