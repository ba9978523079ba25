//! Property tests of the master op-log (§4.14): replay is a pure,
//! **idempotent** function of the record sequence. Every op journalled
//! by a live master carries absolute resulting values (versions,
//! epochs, suspicion counts), so a standby that replays a prefix it
//! already applied — the normal case after a reconnect, where the
//! log-tail poll re-sends records around its watermark — converges to
//! exactly the same state as a single clean replay. And after every
//! command, the journal so far (snapshots included) replays to the live
//! master's image.

use proptest::prelude::*;

use std::sync::Arc;

use spcache_store::backing::UnderStore;
use spcache_store::{FileIntegrity, Master, MetaLog, MetaOp};

const N_WORKERS: usize = 4;
const N_FILES: u64 = 12;

/// One step of the generated master workload. Values are small indices
/// mapped into valid ids/workers so scripts collide (re-register,
/// re-place, double-repair) often — the interesting cases.
#[derive(Debug, Clone)]
enum Cmd {
    Register(u8, u16, u8),
    Unregister(u8),
    Place(u8, u8),
    RegisterWorker(u8),
    MarkAlive(u8),
    MarkDead(u8),
    Suspect(u8),
    BeginRepair(u8),
    EndRepair(u8),
    Claim(u8),
    SetIntegrity(u8, u16),
    RegisterBatch(u8, u16),
    AbandonRepairs,
    Compact,
}

/// Raw generator tuple: `(selector, operand, size)`, decoded into a
/// [`Cmd`] (the proptest shim has no `prop_oneof`, so selection is by
/// modulus — every variant still gets uniform weight).
type RawCmd = (u8, u8, u16);

fn cmd() -> impl Strategy<Value = Cmd> {
    (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(sel, x, s): RawCmd| match sel % 14 {
        0 => Cmd::Register(x, s, 1 + (s % 3) as u8),
        1 => Cmd::Unregister(x),
        2 => Cmd::Place(x, (s % 251) as u8),
        3 => Cmd::RegisterWorker(x),
        4 => Cmd::MarkAlive(x),
        5 => Cmd::MarkDead(x),
        6 => Cmd::Suspect(x),
        7 => Cmd::BeginRepair(x),
        8 => Cmd::EndRepair(x),
        9 => Cmd::Claim(x),
        10 => Cmd::SetIntegrity(x, s),
        11 => Cmd::RegisterBatch(x, s),
        12 => Cmd::AbandonRepairs,
        _ => Cmd::Compact,
    })
}

/// A master journalling to a fresh log that compacts every 4 records,
/// so [`Cmd::Compact`] lands `Snapshot` records mid-log.
fn journalled() -> (Master, Arc<MetaLog>) {
    let master = Master::new();
    master.ensure_workers(N_WORKERS);
    let log = Arc::new(MetaLog::open(Arc::new(UnderStore::new())).with_snapshot_every(4));
    master.enable_journal(Arc::clone(&log));
    (master, log)
}

/// Placement of file `id` over `k` consecutive workers.
fn servers(id: u64, k: usize) -> Vec<usize> {
    (0..k).map(|j| (id as usize + j) % N_WORKERS).collect()
}

/// Runs one command against the live master.
fn step(master: &Master, c: &Cmd) {
    match c {
        Cmd::Register(i, s, k) => {
            let id = u64::from(*i) % N_FILES;
            let _ = master.register(id, usize::from(*s) + 1, servers(id, usize::from(*k)));
        }
        Cmd::Unregister(i) => {
            let _ = master.unregister(u64::from(*i) % N_FILES);
        }
        Cmd::Place(i, r) => {
            let id = u64::from(*i) % N_FILES;
            let s = usize::from(*r) % N_WORKERS;
            let _ = master.apply_placement(id, vec![s]);
        }
        Cmd::RegisterWorker(w) => {
            let _ = master.register_worker(usize::from(*w) % N_WORKERS);
        }
        Cmd::MarkAlive(w) => master.mark_alive(usize::from(*w) % N_WORKERS),
        Cmd::MarkDead(w) => master.mark_dead(usize::from(*w) % N_WORKERS),
        Cmd::Suspect(w) => {
            let _ = master.suspect(usize::from(*w) % N_WORKERS);
        }
        Cmd::BeginRepair(i) => {
            let _ = master.begin_repair(u64::from(*i) % N_FILES);
        }
        Cmd::EndRepair(i) => master.end_repair(u64::from(*i) % N_FILES),
        Cmd::Claim(e) => {
            let epoch = u64::from(*e) % 8;
            let _ = master.claim_master_epoch(epoch, &format!("10.0.0.1:{epoch}"));
        }
        Cmd::SetIntegrity(i, v) => {
            // One row in three clears; the rest repeat a few values, so
            // re-installing the stored row is common.
            let row = match v % 3 {
                0 => FileIntegrity::default(),
                1 => FileIntegrity::data_only(vec![u64::from(v % 5) + 1]),
                _ => FileIntegrity {
                    sums: vec![u64::from(v % 5) + 1],
                    parity: vec![(usize::from(*v) % N_WORKERS, 9)],
                },
            };
            let _ = master.set_integrity(u64::from(*i) % N_FILES, row);
        }
        Cmd::RegisterBatch(i, s) => {
            // One to three consecutive ids (duplicates stop the batch
            // part-way); one batch in seven holds an empty placement and
            // is refused whole.
            let first = u64::from(*i);
            let entries: Vec<(u64, usize, Vec<usize>)> = (0..=u64::from(s % 3))
                .map(|j| {
                    let id = (first + j) % N_FILES;
                    let k = if s % 7 == 0 && j == 0 { 0 } else { 1 + usize::from(*s) % 3 };
                    (id, usize::from(*s) + 1, servers(id, k))
                })
                .collect();
            let _ = master.register_batch(&entries);
        }
        Cmd::AbandonRepairs => {
            let _ = master.abandon_repairs();
        }
        Cmd::Compact => master.maybe_compact(),
    }
}

/// Drives a journalled master through `cmds` and returns it plus the
/// op-log it produced (snapshot first, if one was written; then LSN
/// order).
fn drive(cmds: &[Cmd]) -> (Master, Vec<(u64, MetaOp)>) {
    let (master, log) = journalled();
    for c in cmds {
        step(&master, c);
    }
    let ops = log.replay();
    (master, ops)
}

/// Replays `ops` into a fresh master, applying each record `times`
/// times in sequence order.
fn replayed(ops: &[(u64, MetaOp)], times: usize) -> Master {
    let m = Master::new();
    for (_, op) in ops {
        for _ in 0..times {
            m.apply_op(op);
        }
    }
    m
}

proptest! {
    /// Any prefix of a real op-log, replayed twice — as a whole pass or
    /// record-by-record stutter — images identically to a single clean
    /// replay. And the full log replayed once images identically to the
    /// master that wrote it.
    #[test]
    fn any_prefix_of_the_log_replays_idempotently(
        cmds in proptest::collection::vec(cmd(), 1..60),
        cut_seed in 0usize..usize::MAX,
    ) {
        let (original, ops) = drive(&cmds);
        // A script of pure no-ops (e.g. re-marking an alive worker
        // alive) journals nothing; there is nothing to replay.
        prop_assume!(!ops.is_empty());

        // Full replay reproduces the writer.
        let twin = replayed(&ops, 1);
        prop_assert_eq!(twin.image(), original.image(), "one full replay diverged");

        let n = 1 + cut_seed % ops.len();
        let prefix = &ops[..n];
        let once = replayed(prefix, 1);

        // Record-level stutter: every record applied twice in place.
        let stuttered = replayed(prefix, 2);
        prop_assert_eq!(stuttered.image(), once.image(), "stuttered replay diverged");

        // Pass-level repeat: the whole prefix applied, then applied again
        // (a standby whose poll watermark rewound to zero).
        let repeated = replayed(prefix, 1);
        for (_, op) in prefix {
            repeated.apply_op(op);
        }
        prop_assert_eq!(repeated.image(), once.image(), "double-pass replay diverged");
    }

    /// LSNs are dense and strictly increasing — the contract the
    /// standby's `lsn >= from` watermark filter depends on.
    #[test]
    fn log_lsns_are_dense_and_ordered(
        cmds in proptest::collection::vec(cmd(), 1..40),
    ) {
        // Without compaction, so the retained log starts at LSN 1.
        let cmds: Vec<Cmd> = cmds.into_iter().filter(|c| !matches!(c, Cmd::Compact)).collect();
        let (_, ops) = drive(&cmds);
        for (i, (lsn, _)) in ops.iter().enumerate() {
            prop_assert_eq!(*lsn, 1 + i as u64, "lsn gap or reorder at record {}", i);
        }
    }

    /// After *every* command, a fresh master that replays the journal
    /// so far — newest snapshot plus tail — images identically to the
    /// live master: the live path and replay run one `apply`.
    #[test]
    fn live_equals_replay_after_every_command(
        cmds in proptest::collection::vec(cmd(), 1..60),
    ) {
        let (master, log) = journalled();
        for (i, c) in cmds.iter().enumerate() {
            step(&master, c);
            let twin = replayed(&log.replay(), 1);
            prop_assert_eq!(
                twin.image(),
                master.image(),
                "replay diverged after command {} ({:?})",
                i,
                c
            );
        }
    }
}
