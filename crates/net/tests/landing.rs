//! A read's parts land exactly however they arrive — read off the
//! socket into their regions, placed from the in-process transport's
//! views, hedged from the checkpoint, decoded from parity, or staged
//! beside a region something else still holds — in any reply order, on
//! both transports, for `k ∈ 1..=16` and files from empty to 4 MiB.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use proptest::prelude::*;
use spcache_core::online::partition_range;
use spcache_net::TcpCluster;
use spcache_store::backing::UnderStore;
use spcache_store::landing::{Claim, Region};
use spcache_store::master::MetaService;
use spcache_store::rpc::{Reply, Request, StoreError};
use spcache_store::transport::Transport;
use spcache_store::{Client, HedgePolicy, RetryPolicy, StoreCluster, StoreConfig};

/// Workers in each fleet: the widest file plus its parity.
const FLEET: usize = 18;
/// Parity partitions per file, so up to this many parts can be decoded.
const PARITY: usize = 2;

/// How one data part of a read arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arrival {
    /// Its worker's reply, held back `ms` milliseconds.
    Reply(u64),
    /// Never: the hedge serves it from the checkpoint (or parity covers
    /// it first).
    Hedged,
    /// As an erasure: it is decoded from parity.
    Decoded,
    /// Never, while its region is held the way a loop holds one
    /// mid-frame: whatever fills it is staged beside the allocation.
    StagedHedged,
    /// As an erasure, its region held: the decode is staged.
    StagedDecoded,
}

impl Arrival {
    fn draw(pick: u8, ms: u64) -> Arrival {
        match pick % 6 {
            0 | 1 => Arrival::Reply(ms),
            2 => Arrival::Hedged,
            3 => Arrival::Decoded,
            4 => Arrival::StagedHedged,
            _ => Arrival::StagedDecoded,
        }
    }

    fn erased(self) -> bool {
        matches!(self, Arrival::Decoded | Arrival::StagedDecoded)
    }
}

/// A transport over a real one that scripts how each data `Get` of a
/// read arrives. Everything else passes straight through.
#[derive(Debug)]
struct Scripted {
    inner: Arc<dyn Transport>,
    /// Per data part: how it arrives, and its length.
    plan: Vec<(Arrival, usize)>,
    /// Routes held open unanswered and regions held claimed, until
    /// [`Scripted::release`].
    held: Mutex<(Vec<Sender<Reply>>, Vec<Claim>)>,
}

impl Scripted {
    fn release(&self) {
        let mut held = self.held.lock();
        held.0.clear();
        held.1.clear();
    }

    fn one(
        &self,
        worker: usize,
        req: Request,
        region: Option<Region>,
    ) -> Result<Receiver<Reply>, StoreError> {
        let Request::Get { key } = req else {
            return Ok(self
                .inner
                .submit_landing(vec![(worker, req, region)])?
                .remove(0));
        };
        let (arrival, len) = self.plan[key.part as usize];
        if matches!(arrival, Arrival::StagedHedged | Arrival::StagedDecoded) {
            let claim = region
                .as_ref()
                .and_then(|r| r.claim(len))
                .expect("a free region");
            self.held.lock().1.push(claim);
        }
        let (tx, rx) = bounded(1);
        match arrival {
            Arrival::Reply(ms) => {
                let reply = self
                    .inner
                    .submit_landing(vec![(worker, req, region)])?
                    .remove(0);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    if let Ok(reply) = reply.recv() {
                        let _ = tx.send(reply);
                    }
                });
            }
            Arrival::Hedged | Arrival::StagedHedged => self.held.lock().0.push(tx),
            Arrival::Decoded | Arrival::StagedDecoded => {
                tx.send(Reply::Err(StoreError::NotFound(key)))
                    .expect("route open");
            }
        }
        Ok(rx)
    }
}

impl Transport for Scripted {
    fn n_workers(&self) -> usize {
        self.inner.n_workers()
    }

    fn submit(&self, worker: usize, req: Request) -> Result<Receiver<Reply>, StoreError> {
        self.one(worker, req, None)
    }

    fn submit_landing(
        &self,
        reqs: Vec<(usize, Request, Option<Region>)>,
    ) -> Result<Vec<Receiver<Reply>>, StoreError> {
        reqs.into_iter()
            .map(|(worker, req, region)| self.one(worker, req, region))
            .collect()
    }
}

fn config() -> StoreConfig {
    StoreConfig::unthrottled(FLEET)
        .with_retry(RetryPolicy::none().with_deadline(Duration::from_secs(10)))
        .with_hedge(HedgePolicy::after(Duration::from_millis(150)))
}

/// Writes `data` as file `id` in `k` parts with parity, reads it through
/// `plan`, and checks the bytes. Returns how many parts were hedged.
fn read_through(
    master: Arc<dyn MetaService>,
    transport: Arc<dyn Transport>,
    id: u64,
    data: &[u8],
    plan: &[Arrival],
) -> Result<u64, TestCaseError> {
    let (cfg, k) = (config(), plan.len());
    let servers: Vec<usize> = (0..k).map(|j| (j + id as usize) % FLEET).collect();
    let writer =
        Client::from_config(master.clone(), transport.clone(), &cfg, None).with_parity(PARITY);
    writer.write(id, data, &servers).expect("write");
    let under = Arc::new(UnderStore::new());
    under.persist(id, Bytes::from(data.to_vec()));
    let scripted = Arc::new(Scripted {
        inner: transport,
        plan: (0..k)
            .map(|j| {
                (
                    plan[j],
                    partition_range(data.len() as u64, k, j).len() as usize,
                )
            })
            .collect(),
        held: Mutex::new((Vec::new(), Vec::new())),
    });
    let reader = Client::from_config(master, scripted.clone(), &cfg, Some(under));
    let got = reader.read(id);
    scripted.release();
    writer.delete(id).expect("delete");
    let got = got.map_err(|e| TestCaseError::from(format!("read failed: {e} ({plan:?})")))?;
    prop_assert!(
        got == data,
        "k = {}, {} bytes, {:?}: wrong bytes",
        k,
        data.len(),
        plan
    );
    Ok(reader.hedged_fetches())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn every_part_lands_exactly_on_both_transports(
        k in 1usize..17,
        size in 0usize..(4 << 20),
        tiny: bool,
        picks in proptest::collection::vec(any::<u8>(), 16),
        delays in proptest::collection::vec(0u64..20, 16),
        seed: u64,
    ) {
        // Empty files, files shorter than k and ragged tails come from
        // the tiny draws.
        let size = if tiny { size % (3 * k) } else { size };
        let data: Vec<u8> = (0..size).map(|i| (i as u64 ^ seed).wrapping_mul(31) as u8).collect();
        let mut plan: Vec<Arrival> = (0..k).map(|j| Arrival::draw(picks[j], delays[j])).collect();
        // At most PARITY parts are erased: more is undecodable.
        let mut erased = 0;
        for a in &mut plan {
            erased += usize::from(a.erased());
            if a.erased() && erased > PARITY {
                *a = Arrival::Reply(0);
            }
        }
        FLEETS.with(|(channel, tcp)| {
            read_through(channel.master().clone(), channel.transport().clone(), 1, &data, &plan)?;
            read_through(Arc::new(tcp.master_client()), tcp.transport().clone(), 2, &data, &plan)
        })?;
    }
}

thread_local! {
    /// One fleet per transport for the whole property (each case
    /// deletes its files).
    static FLEETS: (StoreCluster, TcpCluster) =
        (StoreCluster::spawn(config()), TcpCluster::spawn(config()));
}

/// The plans the generator may draw rarely, pinned with the hedges each
/// must at least take (a reply slower than the hedge threshold is hedged
/// too): every part from its reply, every part hedged while its region
/// is held, two decodes (the ragged last part's among them), and one
/// hedge beside in-place replies.
#[test]
fn pinned_plans_land_exactly() {
    let data: Vec<u8> = (0..1_000_003u32).map(|i| (i * 7) as u8).collect();
    let plans = [
        (vec![Arrival::Reply(0); 16], 0),
        (vec![Arrival::StagedHedged; 5], 5),
        (
            vec![
                Arrival::Reply(3),
                Arrival::Reply(0),
                Arrival::StagedDecoded,
                Arrival::Decoded,
            ],
            0,
        ),
        (
            vec![Arrival::Hedged, Arrival::Reply(1), Arrival::Reply(0)],
            1,
        ),
    ];
    FLEETS.with(|(channel, tcp)| {
        for (plan, hedged) in &plans {
            let m: Arc<dyn MetaService> = channel.master().clone();
            let got = read_through(m, channel.transport().clone(), 1, &data, plan).unwrap();
            assert!(got >= *hedged, "{plan:?} in process: {got} hedged");
            let m: Arc<dyn MetaService> = Arc::new(tcp.master_client());
            let got = read_through(m, tcp.transport().clone(), 2, &data, plan).unwrap();
            assert!(got >= *hedged, "{plan:?} over TCP: {got} hedged");
        }
    });
}
