//! Connection storm: 1 000 concurrent clients hammer the event-loop
//! data plane over loopback with mixed puts and gets, each client
//! waiting under its own randomly-drawn deadline. The event loop
//! multiplexes every client onto the shared per-worker connections, so
//! thousands of requests pipeline through a handful of sockets at once.
//!
//! Asserts, per client and under the CI chaos seed sweep
//! (`SPCACHE_CHAOS_SEED`):
//!
//! * **No lost replies** — every submitted request resolves: a data
//!   reply, or a clean timeout of the client's own (possibly very
//!   short) wait. Nothing hangs, nothing errors.
//! * **No cross-wired replies** — each client writes a distinct,
//!   versioned payload under its own key; every successful get returns
//!   exactly the bytes that client last put (FIFO per connection makes
//!   put→get ordering binding even when the put's reply timed out).
//! * **Clean shutdown drain** — after the storm the cluster shuts down
//!   gracefully: workers ack the shutdown RPC and every event-loop
//!   thread joins.

use rand::SeedableRng;
use spcache_net::TcpCluster;
use spcache_sim::rng::Xoshiro256StarStar;
use spcache_store::rpc::{PartKey, Reply, Request};
use spcache_store::StoreConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{N_WORKERS, chaos_seed};

const N_CLIENTS: usize = 1_000;
/// Put+get rounds per client.
const ROUNDS: u64 = 3;
const VAL_LEN: usize = 512;

/// Distinct bytes per (client, version) — a cross-wired or stale reply
/// can never collide with the expected pattern.
fn value(client: usize, version: u64) -> Vec<u8> {
    (0..VAL_LEN)
        .map(|i| ((i as u64).wrapping_mul(167) ^ (client as u64 * 31 + version * 7919)) as u8)
        .collect()
}

#[test]
fn thousand_client_storm_loses_and_crosses_no_replies() {
    let cluster = TcpCluster::spawn(StoreConfig::unthrottled(N_WORKERS));
    let transport = Arc::clone(cluster.transport());
    let timeouts = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..N_CLIENTS)
        .map(|c| {
            let transport = Arc::clone(&transport);
            let timeouts = Arc::clone(&timeouts);
            let served = Arc::clone(&served);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .name(format!("storm-{c}"))
                .spawn(move || {
                    let mut rng = Xoshiro256StarStar::seed_from_u64(
                        chaos_seed().wrapping_mul(0x9e37_79b9).wrapping_add(c as u64),
                    );
                    // Each client draws its own deadline: some wait
                    // generously, some barely at all. u64 from the seeded
                    // stream keeps the draw in the CI sweep's control.
                    let ms = 40 + (rand::Rng::next_u64(&mut rng) % 400);
                    let deadline = Duration::from_millis(ms);
                    let worker = c % N_WORKERS;
                    let key = PartKey::new(c as u64, 0);

                    for version in 0..ROUNDS {
                        let put = transport
                            .submit(
                                worker,
                                Request::Put {
                                    key,
                                    data: value(c, version).into(),
                                    sum: 0,
                                },
                            )
                            .expect("put submission failed");
                        let get = transport
                            .submit(worker, Request::Get { key })
                            .expect("get submission failed");

                        // The put may outlive this client's patience; the
                        // write itself still lands before the get (FIFO on
                        // the shared connection).
                        match put.recv_timeout(deadline) {
                            Ok(Reply::Done) => {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(other) => panic!("client {c}: put answered {other:?}"),
                            Err(_) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        match get.recv_timeout(deadline) {
                            Ok(Reply::Data(bytes)) => {
                                served.fetch_add(1, Ordering::Relaxed);
                                assert_eq!(
                                    bytes.as_ref(),
                                    value(c, version).as_slice(),
                                    "client {c}: get v{version} returned foreign bytes \
                                     — replies cross-wired"
                                );
                            }
                            Ok(other) => panic!("client {c}: get answered {other:?}"),
                            Err(_) => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawn storm client")
        })
        .collect();

    for h in handles {
        h.join().expect("storm client panicked");
    }

    // Accounting: every request resolved one way or the other.
    let total = (N_CLIENTS as u64) * ROUNDS * 2;
    assert_eq!(
        served.load(Ordering::Relaxed) + timeouts.load(Ordering::Relaxed),
        total,
        "some requests neither answered nor timed out"
    );

    // Post-storm sweep with a patient deadline: every client's final
    // version is resident and byte-exact — impatient clients may have
    // stopped listening, but no write was lost.
    for c in 0..N_CLIENTS {
        let reply = transport
            .call(
                c % N_WORKERS,
                Request::Get {
                    key: PartKey::new(c as u64, 0),
                },
                Duration::from_secs(10),
            )
            .unwrap_or_else(|e| panic!("client {c}: post-storm get failed: {e:?}"));
        assert_eq!(
            reply.bytes().expect("post-storm get").as_ref(),
            value(c, ROUNDS - 1).as_slice(),
            "client {c}: final version lost or cross-wired"
        );
    }

    // Clean drain: dropping the cluster acks a shutdown RPC on every
    // worker and joins all event-loop threads.
    drop(cluster);
}
