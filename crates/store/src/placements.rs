//! What a client remembers between reads (DESIGN.md §4.7): each file's
//! placement, so a read whose placement is cached goes straight to the
//! workers, and the access counts those reads owe the master, which
//! leave in batches.
//!
//! A cached placement is never trusted on its own word: every `Get` of
//! a cached read carries the checksum the cache recorded for its
//! partition ([`crate::rpc::Stamp::expect`]), and a worker serves it
//! only from a copy recorded under that same sum. A placement gone
//! stale therefore fails the read's one cached attempt instead of
//! returning other bytes, and the client re-locates through the master.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::master::MetaService;
use crate::metalog::FileIntegrity;

/// How many placements a client keeps. Past the bound, each new entry
/// displaces an arbitrary old one: a displaced file's next read simply
/// locates through the master again.
const CAPACITY: usize = 1 << 14;

/// The largest file whose placement an uncached read caches by summing
/// the bytes it landed. The sum pass of a larger file costs its cold
/// read more than the locate round trip a later hit would save (a CRC
/// of 64 KiB is a few µs, a locate tens): its placement is cached only
/// when it comes with its sums — a write, or a verifying reader's
/// integrity row.
pub(crate) const SUMMED_READ_MAX: usize = 64 << 10;

/// Cached reads per access report: every this many, the counts they
/// owe go to the master in one [`MetaService::report_accesses`] call.
pub(crate) const REPORT_EVERY: u64 = 64;

/// One file's cached placement: everything a read needs to go straight
/// to the workers.
#[derive(Debug)]
pub(crate) struct Placement {
    /// File size in bytes.
    pub size: usize,
    /// Partition `j`'s holder at index `j`.
    pub servers: Vec<usize>,
    /// Partition `j`'s checksum, stamped on its `Get` as the sum the
    /// holder must have recorded.
    pub sums: Vec<u64>,
    /// The file's integrity row, kept when the client verifies reads
    /// (its parity map included).
    pub row: Option<FileIntegrity>,
}

/// A client's placement cache and pending access counts, shared by all
/// its clones. Dropping the last clone reports what is still pending.
pub(crate) struct Memory {
    master: Arc<dyn MetaService>,
    placements: Mutex<HashMap<u64, Arc<Placement>>>,
    pending: Mutex<Pending>,
}

/// Access counts not yet reported.
#[derive(Default)]
struct Pending {
    counts: HashMap<u64, u64>,
    reads: u64,
}

impl Pending {
    /// Empties the batch, returning its `(file, reads)` rows.
    fn take(&mut self) -> Vec<(u64, u64)> {
        self.reads = 0;
        self.counts.drain().collect()
    }
}

impl Memory {
    /// An empty memory reporting to `master`.
    pub fn new(master: Arc<dyn MetaService>) -> Memory {
        Memory {
            master,
            placements: Mutex::new(HashMap::new()),
            pending: Mutex::new(Pending::default()),
        }
    }

    /// File `id`'s cached placement.
    pub fn get(&self, id: u64) -> Option<Arc<Placement>> {
        self.placements.lock().get(&id).cloned()
    }

    /// Caches file `id`'s placement, displacing an arbitrary entry when
    /// the cache is full.
    pub fn insert(&self, id: u64, placement: Placement) {
        let mut placements = self.placements.lock();
        if placements.len() >= CAPACITY && !placements.contains_key(&id) {
            if let Some(&victim) = placements.keys().next() {
                placements.remove(&victim);
            }
        }
        placements.insert(id, Arc::new(placement));
    }

    /// Drops file `id`'s cached placement.
    pub fn forget(&self, id: u64) {
        self.placements.lock().remove(&id);
    }

    /// Counts one read of file `id` served without the master; every
    /// [`REPORT_EVERY`] such reads, reports the batch.
    pub fn count(&self, id: u64) {
        let batch = {
            let mut pending = self.pending.lock();
            *pending.counts.entry(id).or_default() += 1;
            pending.reads += 1;
            if pending.reads < REPORT_EVERY {
                return;
            }
            pending.take()
        };
        self.master.report_accesses(&batch);
    }

    /// Reports every pending count now (nothing when none is pending).
    pub fn flush(&self) {
        let batch = self.pending.lock().take();
        if !batch.is_empty() {
            self.master.report_accesses(&batch);
        }
    }
}

impl Drop for Memory {
    fn drop(&mut self) {
        self.flush();
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("placements", &self.placements.lock().len())
            .field("pending_reads", &self.pending.lock().reads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::Master;

    fn placement(size: usize) -> Placement {
        Placement { size, servers: vec![0], sums: vec![1], row: None }
    }

    #[test]
    fn the_cache_is_bounded() {
        let memory = Memory::new(Arc::new(Master::new()));
        for id in 0..CAPACITY as u64 + 10 {
            memory.insert(id, placement(id as usize));
        }
        assert_eq!(memory.placements.lock().len(), CAPACITY);
        // Re-inserting a cached file displaces nothing.
        let kept = *memory.placements.lock().keys().next().expect("full");
        memory.insert(kept, placement(7));
        assert_eq!(memory.placements.lock().len(), CAPACITY);
        assert_eq!(memory.get(kept).expect("kept").size, 7);
        memory.forget(kept);
        assert!(memory.get(kept).is_none());
    }

    #[test]
    fn counts_leave_in_batches_on_flush_and_on_drop() {
        let master = Arc::new(Master::new());
        master.register(1, 10, vec![0]).unwrap();
        master.register(2, 10, vec![0]).unwrap();
        let memory = Memory::new(master.clone());
        for _ in 0..REPORT_EVERY - 1 {
            memory.count(1);
        }
        assert_eq!(master.accesses(1), 0, "a batch leaves only when full");
        memory.count(2);
        assert_eq!((master.accesses(1), master.accesses(2)), (REPORT_EVERY - 1, 1));
        memory.count(2);
        memory.flush();
        assert_eq!(master.accesses(2), 2);
        memory.count(1);
        drop(memory);
        assert_eq!(master.accesses(1), REPORT_EVERY, "the last clone reports what is left");
    }
}
