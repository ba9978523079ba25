//! Golden bytes of every message the store puts on a wire or in its
//! journal: one frame per data and meta request and reply variant, one
//! per error kind, and one record per journal tag, the legacy snapshot
//! forms included. Each case must encode to its pinned hex exactly and
//! decode from it back to its value.
//!
//! The table is complete by probe, not by promise: every opcode byte,
//! error kind and journal tag that a decoder does not refuse as unknown
//! must have a golden case here, so a new message cannot land without
//! pinning its bytes.
//!
//! Frames are written `len | version opcode | req_id | body`, records
//! `len crc | lsn tag | body`; the spaces are for reading and are
//! ignored.

use bytes::Bytes;
use spcache_net::frame::{
    decode_reply, decode_request, encode_reply, encode_request, Frame, HEADER_LEN,
};
use spcache_net::master_net::{
    decode_meta_reply, decode_meta_request, encode_meta_reply, encode_meta_request, MetaReply,
    MetaRequest,
};
use spcache_store::metalog::{crc32, decode_records, encode_record};
use spcache_store::rpc::{PartKey, Reply, Request, Stamp, StoreError, WorkerStats};
use spcache_store::throttle::TrafficClass;
use spcache_store::{FileIntegrity, MasterImage, MetaOp};

const REQ_ID: u64 = 0x0102_0304_0506_0708;
const LSN: u64 = 0x1122;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// A frame split at its header fields, the way the tables below are
/// written.
fn frame_hex(wire: &[u8]) -> String {
    format!("{} {} {} {}", hex(&wire[..4]), hex(&wire[4..6]), hex(&wire[6..14]), hex(&wire[14..]))
}

/// A record split at its header fields.
fn record_hex(rec: &[u8]) -> String {
    format!("{} {} {} {}", hex(&rec[..8]), hex(&rec[8..16]), hex(&rec[16..17]), hex(&rec[17..]))
}

fn parse(wire: &[u8]) -> Frame {
    Frame::parse(Bytes::copy_from_slice(&wire[4..])).expect("a golden frame parses")
}

/// Compares every case's encoding with its pinned hex, reporting all
/// mismatches at once.
fn check<T: std::fmt::Debug>(
    plane: &str,
    cases: &[(T, &str)],
    encode: impl Fn(&T) -> Vec<u8>,
    split: fn(&[u8]) -> String,
) {
    let mut wrong = Vec::new();
    for (value, want) in cases {
        let got = encode(value);
        if got != unhex(want) {
            wrong.push(format!("{value:?}\n    got  \"{}\"", split(&got)));
        }
    }
    assert!(wrong.is_empty(), "{plane}: {} cases differ:\n{}", wrong.len(), wrong.join("\n"));
}

fn key() -> PartKey {
    PartKey::new(7, 1)
}

fn integrity() -> FileIntegrity {
    FileIntegrity { sums: vec![0xAB, 0xCD], parity: vec![(3, 0xEF)] }
}

fn stats() -> WorkerStats {
    WorkerStats {
        bytes_served: 1,
        bytes_stored: 2,
        gets: 3,
        puts: 4,
        resident_parts: 5,
        bytes_background: 6,
        evictions: 7,
        spilled_bytes: 8,
        reloaded_bytes: 9,
        resident_bytes: 10,
        corruptions_detected: 11,
        parity_bytes: 12,
        decode_reconstructions: 13,
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    let stamp = Stamp { epoch: 2, master: 3, expect: 0, class: TrafficClass::Background };
    let put = Request::Put { key: key(), data: Bytes::copy_from_slice(b"hi"), sum: 0x5E };
    vec![
        (put.clone(), "20000000 0401 0807060504030201 0700000000000000010000005e000000000000006869"),
        (Request::Get { key: key() }, "16000000 0402 0807060504030201 070000000000000001000000"),
        (Request::GetRange { key: key(), offset: 9, len: 4 }, "26000000 0403 0807060504030201 07000000000000000100000009000000000000000400000000000000"),
        (Request::Rename { from: key().staged(), to: key() }, "22000000 0404 0807060504030201 070000000000000001000080070000000000000001000000"),
        (Request::Delete { key: key() }, "16000000 0405 0807060504030201 070000000000000001000000"),
        (Request::Stats, "0a000000 0406 0807060504030201"),
        (Request::Ping, "0a000000 0407 0807060504030201"),
        (Request::Shutdown, "0a000000 0408 0807060504030201"),
        (Request::Stamped { stamp, inner: Box::new(put) }, "3a000000 0409 0807060504030201 02000000000000000300000000000000000000000000000001010700000000000000010000005e000000000000006869"),
        (Request::SetEpoch(5), "12000000 040a 0807060504030201 0500000000000000"),
        (Request::SetMasterEpoch(6), "12000000 040c 0807060504030201 0600000000000000"),
        (Request::GetParity { key: PartKey::parity(7, 0) }, "16000000 040d 0807060504030201 070000000000000000000040"),
        (
            Request::Get { key: key() }.stamped(Stamp { expect: 0xFE, ..Stamp::default() }),
            "30000000 0409 0807060504030201 00000000000000000000000000000000fe000000000000000002070000000000000001000000",
        ),
    ]
}

fn errors() -> Vec<(StoreError, &'static str)> {
    vec![
        (StoreError::NotFound(key()), "17000000 0446 0807060504030201 01070000000000000001000000"),
        (StoreError::WorkerDown(2), "13000000 0446 0807060504030201 020200000000000000"),
        (StoreError::UnknownFile(3), "13000000 0446 0807060504030201 030300000000000000"),
        (StoreError::AlreadyExists(4), "13000000 0446 0807060504030201 040400000000000000"),
        (StoreError::Timeout(5), "13000000 0446 0807060504030201 050500000000000000"),
        (StoreError::Io(6), "13000000 0446 0807060504030201 060600000000000000"),
        (StoreError::Codec("bad".into()), "12000000 0446 0807060504030201 0703000000626164"),
        (StoreError::StaleEpoch(8), "13000000 0446 0807060504030201 080800000000000000"),
        (StoreError::Degraded(9), "13000000 0446 0807060504030201 090900000000000000"),
        (StoreError::Corrupt(key()), "17000000 0446 0807060504030201 0a070000000000000001000000"),
        (StoreError::StalePlacement(key()), "17000000 0446 0807060504030201 0b070000000000000001000000"),
    ]
}

fn replies() -> Vec<(Reply, &'static str)> {
    vec![
        (Reply::Done, "0a000000 0441 0807060504030201"),
        (Reply::Data(Bytes::copy_from_slice(b"abc")), "0d000000 0442 0807060504030201 616263"),
        (Reply::Flag(true), "0b000000 0443 0807060504030201 01"),
        (Reply::Stats(stats()), "72000000 0444 0807060504030201 0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d00000000000000"),
        (Reply::Pong { worker: 3, epoch: 4 }, "1a000000 0445 0807060504030201 03000000000000000400000000000000"),
        (Reply::Err(StoreError::Timeout(5)), "13000000 0446 0807060504030201 050500000000000000"),
    ]
}

fn meta_requests() -> Vec<(MetaRequest, &'static str)> {
    vec![
        (MetaRequest::Register { id: 1, size: 2, servers: vec![3, 4] }, "26000000 0481 0807060504030201 01000000000000000200000000000000020000000300000004000000"),
        (MetaRequest::Unregister { id: 1 }, "12000000 0482 0807060504030201 0100000000000000"),
        (MetaRequest::Locate { id: 2 }, "12000000 0483 0807060504030201 0200000000000000"),
        (MetaRequest::Peek { id: 3 }, "12000000 0484 0807060504030201 0300000000000000"),
        (MetaRequest::ApplyPlacement { id: 4, servers: vec![5] }, "1a000000 0485 0807060504030201 04000000000000000100000005000000"),
        (MetaRequest::MarkAlive { w: 5 }, "12000000 0486 0807060504030201 0500000000000000"),
        (MetaRequest::MarkDead { w: 6 }, "12000000 0487 0807060504030201 0600000000000000"),
        (MetaRequest::Suspect { w: 7 }, "12000000 0488 0807060504030201 0700000000000000"),
        (MetaRequest::IsAlive { w: 8 }, "12000000 0489 0807060504030201 0800000000000000"),
        (MetaRequest::LiveWorkers { n: 9 }, "12000000 048a 0807060504030201 0900000000000000"),
        (MetaRequest::Degraded, "0a000000 048b 0807060504030201"),
        (MetaRequest::Rebalance { bandwidth: 1.5, lambda: 2.0, seed: 3 }, "22000000 048c 0807060504030201 000000000000f83f00000000000000400300000000000000"),
        (MetaRequest::Shutdown, "0a000000 048d 0807060504030201"),
        (MetaRequest::WorkerEpochs { n: 4 }, "12000000 048e 0807060504030201 0400000000000000"),
        (MetaRequest::RegisterWorker { w: 5 }, "12000000 048f 0807060504030201 0500000000000000"),
        (MetaRequest::BeginRepair { id: 6 }, "12000000 0490 0807060504030201 0600000000000000"),
        (MetaRequest::EndRepair { id: 7 }, "12000000 0491 0807060504030201 0700000000000000"),
        (MetaRequest::Status, "0a000000 0492 0807060504030201"),
        (MetaRequest::LogTail { from: 8 }, "12000000 0493 0807060504030201 0800000000000000"),
        (MetaRequest::Takeover { epoch: 9, addr: "a:1".into() }, "19000000 0494 0807060504030201 090000000000000003000000613a31"),
        (MetaRequest::RegisterBatch { entries: vec![(1, 2, vec![3]), (4, 5, vec![])] }, "3a000000 0495 0807060504030201 020000000100000000000000020000000000000001000000030000000400000000000000050000000000000000000000"),
        (MetaRequest::SetIntegrity { id: 2, integrity: integrity() }, "3a000000 0496 0807060504030201 020000000000000002000000ab00000000000000cd00000000000000010000000300000000000000ef00000000000000"),
        (MetaRequest::Integrity { id: 3 }, "12000000 0497 0807060504030201 0300000000000000"),
        (MetaRequest::ReportAccesses { counts: vec![(1, 2)] }, "1e000000 0498 0807060504030201 0100000001000000000000000200000000000000"),
    ]
}

fn meta_replies() -> Vec<(MetaReply, &'static str)> {
    vec![
        (MetaReply::Done, "0a000000 04c1 0807060504030201"),
        (MetaReply::Info { size: 1, servers: vec![2, 3] }, "1e000000 04c2 0807060504030201 0100000000000000020000000200000003000000"),
        (MetaReply::Maybe(Some((4, vec![5]))), "1b000000 04c3 0807060504030201 0104000000000000000100000005000000"),
        (MetaReply::Maybe(None), "0b000000 04c3 0807060504030201 00"),
        (MetaReply::Count(6), "0e000000 04c4 0807060504030201 06000000"),
        (MetaReply::Flag(false), "0b000000 04c5 0807060504030201 00"),
        (MetaReply::Workers(vec![7]), "12000000 04c6 0807060504030201 0100000007000000"),
        (MetaReply::Files(vec![8]), "16000000 04c7 0807060504030201 010000000800000000000000"),
        (MetaReply::Rebalanced { moved: 9, skipped: vec![10] }, "1e000000 04c8 0807060504030201 0900000000000000010000000a00000000000000"),
        (MetaReply::Err(StoreError::UnknownFile(11)), "13000000 04c9 0807060504030201 030b00000000000000"),
        (MetaReply::Epochs(vec![12]), "16000000 04ca 0807060504030201 010000000c00000000000000"),
        (MetaReply::Epoch(13), "12000000 04cb 0807060504030201 0d00000000000000"),
        (MetaReply::Redirect { to: "b:2".into() }, "11000000 04cc 0807060504030201 03000000623a32"),
        (MetaReply::Status { epoch: 1, active: true, files: 2, next_lsn: 3 }, "23000000 04cd 0807060504030201 01000000000000000102000000000000000300000000000000"),
        (MetaReply::Log { next_lsn: 4, bytes: b"rec".to_vec() }, "15000000 04ce 0807060504030201 0400000000000000726563"),
        (MetaReply::IntegrityRow(Some(integrity())), "33000000 04cf 0807060504030201 0102000000ab00000000000000cd00000000000000010000000300000000000000ef00000000000000"),
        (MetaReply::IntegrityRow(None), "0b000000 04cf 0807060504030201 00"),
    ]
}

fn image() -> MasterImage {
    MasterImage {
        files: vec![(1, 100, vec![0, 1], 2)],
        alive: vec![true, false],
        suspicion: vec![2, 0],
        epochs: vec![1, 3],
        repairing: vec![1],
        master_epoch: 4,
        master_addr: "a:1".into(),
        integrity: vec![(1, integrity())],
    }
}

fn journal() -> Vec<(MetaOp, &'static str)> {
    vec![
        (MetaOp::RegisterFile { id: 1, size: 2, servers: vec![3] }, "2500000091415ff3 2211000000000000 01 01000000000000000200000000000000010000000300000000000000"),
        (MetaOp::UnregisterFile { id: 1 }, "1100000097d46399 2211000000000000 02 0100000000000000"),
        (MetaOp::ApplyPlacement { id: 1, servers: vec![2, 3], version: 4 }, "2d000000ed785bc6 2211000000000000 03 010000000000000004000000000000000200000002000000000000000300000000000000"),
        (MetaOp::RegisterWorker { w: 1, epoch: 2 }, "1900000037cd8ca8 2211000000000000 04 01000000000000000200000000000000"),
        (MetaOp::MarkAlive { w: 3 }, "1100000023be27bf 2211000000000000 05 0300000000000000"),
        (MetaOp::MarkDead { w: 4, epoch: 5 }, "19000000ff892c0c 2211000000000000 06 04000000000000000500000000000000"),
        (MetaOp::Suspect { w: 6, count: 7, alive: true, epoch: 8 }, "1e000000a8e6db56 2211000000000000 07 060000000000000007000000010800000000000000"),
        (MetaOp::BeginRepair { id: 9 }, "11000000bc45a8df 2211000000000000 08 0900000000000000"),
        (MetaOp::EndRepair { id: 10 }, "110000001c565c46 2211000000000000 09 0a00000000000000"),
        (MetaOp::MasterEpoch { epoch: 11, addr: "a:1".into() }, "18000000477c8896 2211000000000000 0b 0b0000000000000003000000613a31"),
        (MetaOp::Snapshot(image()), "aa000000bacada3e 2211000000000000 0c 01000000010000000000000064000000000000000200000000000000020000000000000000000000010000000000000002000000010200000001000000000000000000000000030000000000000003000000010000000100000000000000040000000000000003000000613a3101000000010000000000000002000000ab00000000000000cd00000000000000010000000300000000000000ef00000000000000"),
        (MetaOp::SetIntegrity { id: 12, integrity: integrity() }, "3900000059846baa 2211000000000000 0d 0c0000000000000002000000ab00000000000000cd00000000000000010000000300000000000000ef00000000000000"),
    ]
}

/// A snapshot record written before the integrity tier: no integrity
/// section after the master address.
const PRE_INTEGRITY_SNAPSHOT: &str = "76000000cc125fc3 2211000000000000 0c 01000000010000000000000064000000000000000200000000000000020000000000000000000000010000000000000002000000010200000001000000000000000000000000030000000000000003000000010000000100000000000000040000000000000003000000613a31";

/// A snapshot record written while the suspicion threshold was a
/// setting: its threshold word holds 5, not the constant.
const THRESHOLD_SNAPSHOT: &str = "aa000000be30da2b 2211000000000000 0c 01000000010000000000000064000000000000000200000000000000020000000000000000000000010000000000000002000000010200000001000000000000000000000000030000000000000005000000010000000100000000000000040000000000000003000000613a3101000000010000000000000002000000ab00000000000000cd00000000000000010000000300000000000000ef00000000000000";

/// A record under the retired tag 10 (the suspicion threshold, 4).
const RETIRED_THRESHOLD: &str = "0d0000005996398e 2211000000000000 0a 04000000";

#[test]
fn data_requests_are_pinned() {
    let cases = requests();
    check("request", &cases, |r| encode_request(r, REQ_ID), frame_hex);
    for (req, wire) in &cases {
        assert_eq!(&decode_request(&parse(&unhex(wire))).unwrap(), req);
    }
}

#[test]
fn data_replies_and_error_kinds_are_pinned() {
    let cases = replies();
    check("reply", &cases, |r| encode_reply(r, REQ_ID), frame_hex);
    let errors = errors();
    check("error", &errors, |e| encode_reply(&Reply::Err(e.clone()), REQ_ID), frame_hex);
    let errors = errors.into_iter().map(|(e, wire)| (Reply::Err(e), wire));
    for (reply, wire) in cases.into_iter().chain(errors) {
        assert_eq!(decode_reply(&parse(&unhex(wire))).unwrap(), reply);
    }
}

#[test]
fn meta_requests_are_pinned() {
    let cases = meta_requests();
    check("meta request", &cases, |r| encode_meta_request(r, REQ_ID), frame_hex);
    for (req, wire) in &cases {
        assert_eq!(&decode_meta_request(&parse(&unhex(wire))).unwrap(), req);
    }
}

#[test]
fn meta_replies_are_pinned() {
    let cases = meta_replies();
    check("meta reply", &cases, |r| encode_meta_reply(r, REQ_ID), frame_hex);
    for (reply, wire) in &cases {
        assert_eq!(&decode_meta_reply(&parse(&unhex(wire))).unwrap(), reply);
    }
    // The error body is the data plane's, kind for kind.
    for (e, wire) in errors() {
        let data = unhex(wire);
        let meta = encode_meta_reply(&MetaReply::Err(e), REQ_ID);
        assert_eq!((meta[5], &meta[6..]), (0xC9, &data[6..]));
    }
}

#[test]
fn journal_records_are_pinned() {
    let cases = journal();
    check("journal", &cases, |op| encode_record(LSN, op), record_hex);
    for (op, rec) in &cases {
        assert_eq!(decode_records(&unhex(rec)), vec![(LSN, op.clone())]);
    }
}

#[test]
fn legacy_journal_forms_still_decode() {
    let old = MasterImage { integrity: Vec::new(), ..image() };
    let snap = |hex: &str| decode_records(&unhex(hex));
    assert_eq!(snap(PRE_INTEGRITY_SNAPSHOT), vec![(LSN, MetaOp::Snapshot(old.clone()))]);
    assert_eq!(snap(THRESHOLD_SNAPSHOT), vec![(LSN, MetaOp::Snapshot(image()))]);
    // A retired record carries no op, and replay goes on past it.
    let mut stream = encode_record(1, &MetaOp::MarkAlive { w: 1 });
    stream.extend(unhex(RETIRED_THRESHOLD));
    stream.extend(encode_record(2, &MetaOp::MarkAlive { w: 2 }));
    let lsns: Vec<u64> = decode_records(&stream).into_iter().map(|(lsn, _)| lsn).collect();
    assert_eq!(lsns, vec![1, 2]);
    assert_eq!(unhex(RETIRED_THRESHOLD)[16], 10);
}

/// A header-only frame under `opcode`.
fn bare(opcode: u8) -> Frame {
    let mut buf = vec![4, opcode];
    buf.extend_from_slice(&REQ_ID.to_le_bytes());
    assert_eq!(buf.len(), HEADER_LEN);
    Frame::parse(Bytes::from(buf)).unwrap()
}

/// The opcodes `decode` does not refuse as unknown, probed over all
/// 256 bytes on a header-only frame.
fn known<T>(decode: impl Fn(&Frame) -> Result<T, StoreError>) -> Vec<u8> {
    (0..=255u8)
        .filter(|&op| match decode(&bare(op)) {
            Err(StoreError::Codec(msg)) => !msg.starts_with("unknown"),
            _ => true,
        })
        .collect()
}

/// The pinned wires of a table.
fn wires<T>(cases: Vec<(T, &'static str)>) -> Vec<&'static str> {
    cases.into_iter().map(|(_, wire)| wire).collect()
}

/// The distinct bytes at `at` of the pinned wires.
fn pinned(cases: &[&str], at: usize) -> Vec<u8> {
    let mut ops: Vec<u8> = cases.iter().map(|wire| unhex(wire)[at]).collect();
    ops.sort_unstable();
    ops.dedup();
    ops
}

#[test]
fn every_decodable_opcode_has_a_golden_case() {
    assert_eq!(known(decode_request), pinned(&wires(requests()), 5));
    assert_eq!(known(decode_reply), pinned(&wires(replies()), 5));
}

#[test]
fn every_decodable_meta_opcode_has_a_golden_case() {
    assert_eq!(known(decode_meta_request), pinned(&wires(meta_requests()), 5));
    assert_eq!(known(decode_meta_reply), pinned(&wires(meta_replies()), 5));
}

#[test]
fn every_decodable_error_kind_has_a_golden_case() {
    let kinds: Vec<u8> = (0..=255u8)
        .filter(|&kind| {
            let mut buf = vec![4, 0x46];
            buf.extend_from_slice(&REQ_ID.to_le_bytes());
            buf.push(kind);
            match decode_reply(&Frame::parse(Bytes::from(buf)).unwrap()) {
                Err(StoreError::Codec(msg)) => !msg.starts_with("unknown"),
                _ => true,
            }
        })
        .collect();
    assert_eq!(kinds, pinned(&wires(errors()), 14));
}

/// A record of `body` under `tag`, framed and checksummed.
fn raw_record(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = LSN.to_le_bytes().to_vec();
    payload.push(tag);
    payload.extend_from_slice(body);
    let mut rec = (payload.len() as u32).to_le_bytes().to_vec();
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend(payload);
    rec
}

/// Every tag under which some pinned body decodes to an op is a pinned
/// tag: a new tag whose body reads like an old one's cannot slip in.
#[test]
fn every_decodable_journal_tag_has_a_golden_case() {
    let records: Vec<Vec<u8>> = journal().into_iter().map(|(_, r)| unhex(r)).collect();
    let bodies: Vec<&[u8]> = records.iter().map(|r| &r[17..]).collect();
    let decodable: Vec<u8> = (0..=255u8)
        .filter(|&tag| bodies.iter().any(|body| !decode_records(&raw_record(tag, body)).is_empty()))
        .collect();
    let mut tags: Vec<u8> = records.iter().map(|r| r[16]).collect();
    tags.sort_unstable();
    assert_eq!(decodable, tags);
}

