//! Fuzz of the whole metadata arm, decoder to master. Flipped,
//! truncated and opcode-mutated meta request and reply frames decode to
//! `Ok` or [`StoreError::Codec`], never a panic or another error; every
//! request that decodes then goes through `Master::call` on a journalled
//! master and on a fenced one. Each call returns a reply without
//! panicking, and the fenced master answers `Redirect` to everything but
//! `Status`, `Takeover` and `Shutdown`.

use bytes::Bytes;
use proptest::prelude::*;
use spcache_net::frame::Frame;
use spcache_net::master_net::{
    decode_meta_reply, decode_meta_request, encode_meta_reply, encode_meta_request, MetaReply,
    MetaRequest,
};
use spcache_store::backing::UnderStore;
use spcache_store::master::{Master, MetaService};
use spcache_store::metalog::MetaLog;
use spcache_store::rpc::StoreError;
use spcache_store::FileIntegrity;
use std::sync::Arc;

const WORKERS: usize = 4;
const FILES: u64 = 4;

/// A journalled master holding `FILES` two-partition files over a
/// `WORKERS`-worker fleet, so calls reach populated state.
fn journalled() -> Master {
    let master = Master::new();
    master.ensure_workers(WORKERS);
    master.enable_journal(Arc::new(MetaLog::open(Arc::new(UnderStore::new()))));
    for id in 0..FILES {
        let servers = vec![id as usize % WORKERS, (id as usize + 1) % WORKERS];
        master.register(id, 1_000, servers).unwrap();
    }
    master
}

/// The same master, deposed by a successor.
fn fenced() -> Master {
    let master = journalled();
    master.self_fence(Some("127.0.0.1:4100".into()));
    master
}

/// Runs `req` through both masters: neither panics, and the fenced one
/// redirects all but the probes and handshakes.
fn serve_both(req: &MetaRequest) -> Result<(), TestCaseError> {
    let _ = journalled().call(req.clone());
    let reply = fenced().call(req.clone());
    let probe = matches!(
        req,
        MetaRequest::Status | MetaRequest::Takeover { .. } | MetaRequest::Shutdown
    );
    if !probe {
        prop_assert!(
            matches!(reply, MetaReply::Redirect { .. }),
            "fenced master answered {req:?} with {reply:?}"
        );
    }
    Ok(())
}

/// A decode result must be `Ok` or a codec error.
fn ok_or_codec<T>(decoded: Result<T, StoreError>) -> Result<Option<T>, TestCaseError> {
    match decoded {
        Ok(value) => Ok(Some(value)),
        Err(e) => {
            prop_assert!(matches!(e, StoreError::Codec(_)), "decoder answered {e:?}");
            Ok(None)
        }
    }
}

/// One of three mutations of a frame buffer (the bytes after the length
/// prefix): a flipped byte, a cut, or the opcode byte replaced, so one
/// opcode's decoder reads another's body.
fn mutate(mut buf: Vec<u8>, kind: u8, pos: usize, byte: u8) -> Vec<u8> {
    match kind % 3 {
        0 => {
            let at = pos % buf.len();
            buf[at] ^= byte | 1;
        }
        1 => buf.truncate(pos % (buf.len() + 1)),
        _ => buf[1] = byte,
    }
    buf
}

/// A file id, worker index or fleet size: mostly inside the fixture,
/// sometimes anywhere in `u64`.
fn word() -> impl Strategy<Value = u64> {
    (any::<bool>(), 0u64..8, any::<u64>()).prop_map(|(small, x, any)| if small { x } else { any })
}

/// `(id, worker, fleet size, size)` words for [`request`].
fn words() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    (word(), word(), word(), any::<u64>())
}

/// `(servers, rows)` lists for [`request`] and [`reply`].
fn lists() -> impl Strategy<Value = (Vec<usize>, Vec<u64>)> {
    (
        proptest::collection::vec(0usize..8, 0..5),
        proptest::collection::vec(0u64..8, 0..5),
    )
}

/// A well-formed request of kind `kind % 24` built from the drawn
/// fields.
fn request(
    kind: u8,
    (id, w, n, size): (u64, u64, u64, u64),
    lists: (Vec<usize>, Vec<u64>),
) -> MetaRequest {
    let (servers, rows) = lists;
    match kind % 24 {
        0 => MetaRequest::Register {
            id,
            size: size % 1_000_000,
            servers,
        },
        1 => MetaRequest::Unregister { id },
        2 => MetaRequest::Locate { id },
        3 => MetaRequest::Peek { id },
        4 => MetaRequest::ApplyPlacement { id, servers },
        5 => MetaRequest::MarkAlive { w },
        6 => MetaRequest::MarkDead { w },
        7 => MetaRequest::Suspect { w },
        8 => MetaRequest::IsAlive { w },
        9 => MetaRequest::LiveWorkers { n },
        10 => MetaRequest::Degraded,
        11 => MetaRequest::Rebalance {
            bandwidth: 1e9,
            lambda: (n % 1_000) as f64,
            seed: size,
        },
        12 => MetaRequest::WorkerEpochs { n },
        13 => MetaRequest::RegisterWorker { w },
        14 => MetaRequest::BeginRepair { id },
        15 => MetaRequest::EndRepair { id },
        16 => MetaRequest::Status,
        17 => MetaRequest::LogTail { from: size },
        18 => MetaRequest::Takeover {
            epoch: size % 4,
            addr: format!("10.0.0.{}:41", w % 256),
        },
        19 => MetaRequest::RegisterBatch {
            entries: rows
                .iter()
                .map(|&r| (r, size % 1_000_000, servers.clone()))
                .collect(),
        },
        20 => MetaRequest::SetIntegrity {
            id,
            integrity: FileIntegrity {
                sums: rows,
                parity: servers.iter().map(|&s| (s, size ^ s as u64)).collect(),
            },
        },
        21 => MetaRequest::Integrity { id },
        22 => MetaRequest::ReportAccesses {
            counts: rows.iter().map(|&r| (r, size)).collect(),
        },
        _ => MetaRequest::Shutdown,
    }
}

/// A well-formed reply of kind `kind % 16` built from the drawn fields.
fn reply(kind: u8, size: u64, flag: bool, lists: (Vec<usize>, Vec<u64>)) -> MetaReply {
    let (servers, rows) = lists;
    match kind % 16 {
        0 => MetaReply::Done,
        1 => MetaReply::Info { size, servers },
        2 => MetaReply::Maybe(flag.then_some((size, servers))),
        3 => MetaReply::Count(size as u32),
        4 => MetaReply::Flag(flag),
        5 => MetaReply::Workers(servers),
        6 => MetaReply::Files(rows),
        7 => MetaReply::Epochs(rows),
        8 => MetaReply::Epoch(size),
        9 => MetaReply::Rebalanced {
            moved: size,
            skipped: rows,
        },
        10 => MetaReply::Redirect {
            to: format!("10.0.0.1:{}", size % 65_536),
        },
        11 => MetaReply::Status {
            epoch: size,
            active: flag,
            files: 3,
            next_lsn: size / 2,
        },
        12 => MetaReply::Log {
            next_lsn: size,
            bytes: rows.iter().flat_map(|r| r.to_le_bytes()).collect(),
        },
        13 => MetaReply::IntegrityRow(flag.then(|| FileIntegrity {
            parity: servers.iter().map(|&s| (s, size)).collect(),
            sums: rows,
        })),
        14 => MetaReply::Err(StoreError::UnknownFile(size)),
        _ => MetaReply::Err(StoreError::Codec(format!("{rows:?}"))),
    }
}

/// The frame buffer `read_frame` would hand to `Frame::parse`.
fn strip_prefix(wire: Vec<u8>) -> Vec<u8> {
    wire[4..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every well-formed request is served by both masters.
    #[test]
    fn every_request_is_served_without_panic(kind: u8, words in words(), lists in lists()) {
        serve_both(&request(kind, words, lists))?;
    }

    /// A mutated request frame decodes to `Ok` or a codec error, and
    /// whatever it decodes to is served by both masters.
    #[test]
    fn mutated_request_frames_decode_or_refuse_and_serve(
        kind: u8,
        words in words(),
        lists in lists(),
        mutation in (0u8..3, any::<usize>(), any::<u8>()),
    ) {
        let wire = encode_meta_request(&request(kind, words, lists), 7);
        let (how, pos, byte) = mutation;
        let buf = mutate(strip_prefix(wire), how, pos, byte);
        if let Some(frame) = ok_or_codec(Frame::parse(Bytes::from(buf)))? {
            if let Some(decoded) = ok_or_codec(decode_meta_request(&frame))? {
                serve_both(&decoded)?;
            }
            ok_or_codec(decode_meta_reply(&frame))?;
        }
    }

    /// A mutated reply frame decodes to `Ok` or a codec error.
    #[test]
    fn mutated_reply_frames_decode_or_refuse(
        fields in (any::<u8>(), any::<u64>(), any::<bool>()),
        lists in lists(),
        mutation in (0u8..3, any::<usize>(), any::<u8>()),
    ) {
        let (kind, size, flag) = fields;
        let wire = encode_meta_reply(&reply(kind, size, flag, lists), 9);
        let (how, pos, byte) = mutation;
        let buf = mutate(strip_prefix(wire), how, pos, byte);
        if let Some(frame) = ok_or_codec(Frame::parse(Bytes::from(buf)))? {
            ok_or_codec(decode_meta_reply(&frame))?;
            if let Some(decoded) = ok_or_codec(decode_meta_request(&frame))? {
                serve_both(&decoded)?;
            }
        }
    }

    /// Arbitrary bytes under every meta opcode decode to `Ok` or a
    /// codec error; decoded requests are served by both masters.
    #[test]
    fn arbitrary_bodies_under_every_meta_opcode(
        opcode in 0x80u8..0xD1,
        body in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut buf = strip_prefix(encode_meta_request(&MetaRequest::Status, 5));
        buf[1] = opcode;
        buf.extend_from_slice(&body);
        if let Some(frame) = ok_or_codec(Frame::parse(Bytes::from(buf)))? {
            if let Some(decoded) = ok_or_codec(decode_meta_request(&frame))? {
                serve_both(&decoded)?;
            }
            ok_or_codec(decode_meta_reply(&frame))?;
        }
    }
}

/// Pinned: a worker index or fleet size far past any fleet used to
/// reach the health table, which sizes itself to the index. `MarkAlive`
/// of `u64::MAX` overflowed `w + 1` and panicked the master's event
/// loop; the others allocated rows for up to 2^64 workers. Each is now
/// a typed refusal, and the master keeps serving.
#[test]
fn worker_indices_past_any_fleet_are_refused() {
    let master = journalled();
    for req in [
        MetaRequest::MarkAlive { w: u64::MAX },
        MetaRequest::MarkDead { w: 1 << 40 },
        MetaRequest::Suspect { w: u64::MAX - 1 },
        MetaRequest::RegisterWorker { w: 1 << 33 },
        MetaRequest::IsAlive { w: u64::MAX },
        MetaRequest::LiveWorkers { n: u64::MAX },
        MetaRequest::WorkerEpochs { n: 1 << 40 },
    ] {
        let reply = master.call(req.clone());
        assert!(
            matches!(reply, MetaReply::Err(StoreError::Codec(_))),
            "{req:?} got {reply:?}"
        );
    }
    assert_eq!(
        master.live_workers(WORKERS),
        (0..WORKERS).collect::<Vec<_>>()
    );
    assert_eq!(MetaService::locate(&master, 1), Ok((1_000, vec![1, 2])));
}

/// Pinned: access counts come off the wire, and a report near `u64::MAX`
/// used to overflow the popularity sum of the next rebalance plan.
#[test]
fn huge_access_reports_still_plan_a_rebalance() {
    let master = journalled();
    master.report_accesses(&[(0, u64::MAX), (1, u64::MAX), (2, 5)]);
    let cfg = spcache_core::tuner::TunerConfig::default();
    assert!(master.plan_rebalance(WORKERS, 1e9, 100.0, &cfg, 7).is_ok());
}
