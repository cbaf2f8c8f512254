//! Replicated-KV end-to-end benchmark: an open-loop client drives a
//! mixed single-key/transaction workload into a live localhost
//! multi-ring deployment (2 rings × 3 daemons, 4 partitions, replicas
//! on every daemon) and measures submit→apply latency at a replica —
//! the first user-visible number the ordering stack produces. A second
//! phase sweeps ≥100 seeded in-process chaos cases through the KV
//! divergence/dedup checker (random merge interleavings, snapshot cuts
//! with overlapping replay).
//!
//! ```text
//! cargo run --release --bin kv -- --out BENCH_kv.json
//! cargo run --release --bin kv -- --secs 10 --gap-us 2000 --sweep 200
//! ```
//!
//! Prints the run as JSON, and writes it to `--out PATH` when given (the
//! first command regenerates the committed record). Exits non-zero if
//! any op is lost or doubled, if the replicas' final states diverge, or
//! if any sweep seed reports a violation — the CI smoke gate. Honors
//! `ACCELRING_BENCH_QUALITY` (`quick`/`full`).

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelring_bench::{kv_divergence_case, Quality};
use accelring_core::{ProtocolConfig, RingIdx, Service};
use accelring_daemon::{FrontendOptions, SessionClient};
use accelring_kv::{
    encode_op, involved_partitions, partition_of, KvConfig, KvOp, KvShared, KvStore, KvWrite,
};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::spawn_local_multiring;
use bytes::Bytes;
use crossbeam::channel::unbounded;

const RINGS: u16 = 2;
const NODES: u16 = 3;
const PARTS: u16 = 4;

struct Args {
    secs: f64,
    gap_us: u64,
    seed: u64,
    sweep: u64,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        secs: match Quality::from_env() {
            Quality::Quick => 4.0,
            Quality::Full => 10.0,
        },
        gap_us: 3000,
        seed: 42,
        sweep: match Quality::from_env() {
            Quality::Quick => 120,
            Quality::Full => 200,
        },
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--secs" => {
                args.secs = value("--secs")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?;
            }
            "--gap-us" => {
                args.gap_us = value("--gap-us")?
                    .parse()
                    .map_err(|e| format!("--gap-us: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--sweep" => {
                args.sweep = value("--sweep")?
                    .parse()
                    .map_err(|e| format!("--sweep: {e}"))?;
            }
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.secs < 1.0 {
        return Err("--secs: need at least 1".to_string());
    }
    if args.gap_us < 100 {
        return Err("--gap-us: need at least 100".to_string());
    }
    Ok(args)
}

fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    for p in 0..PARTS {
        map.assign(&format!("kv.{p}"), RingIdx::new(p % RINGS));
    }
    map
}

/// Brute-forces a key that hashes into `part`.
fn key_in(tag: &str, part: &str) -> String {
    for i in 0..10_000u32 {
        let k = format!("{tag}-{i}");
        if partition_of(&k, PARTS) == part {
            return k;
        }
    }
    panic!("no key for partition {part}")
}

/// The percentile (`q` in `[0, 1]`) of an already-sorted sample, in
/// microseconds.
fn percentile(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e6
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kv: {e}");
            eprintln!("usage: kv [--secs S] [--gap-us N] [--seed N] [--sweep N]");
            return ExitCode::from(2);
        }
    };

    // --- Live phase: 2 rings × 3 daemons, a replica on each. ---
    let shareds: Vec<Arc<KvShared>> = (0..NODES).map(|_| KvShared::new(PARTS)).collect();
    let handles = match spawn_local_multiring(
        RINGS,
        NODES,
        ProtocolConfig::default(),
        MembershipConfig::for_wall_clock(),
        &[],
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("kv: rings failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut columns: Vec<Vec<_>> = (0..NODES).map(|_| Vec::new()).collect();
    for ring in handles {
        for (i, node) in ring.into_iter().enumerate() {
            columns[i].push(node);
        }
    }
    let daemons: Vec<MultiRingDaemon> = columns
        .into_iter()
        .zip(&shareds)
        .map(|(nodes, shared)| {
            MultiRingDaemon::start_with(
                nodes,
                shards(),
                MultiRingOptions {
                    frontend: FrontendOptions::enabled(),
                    app_state: Some(shared.clone()),
                    ..MultiRingOptions::default()
                },
            )
        })
        .collect();
    let (applied_tx, applied_rx) = unbounded();
    let stores: Vec<KvStore> = (0..NODES as usize)
        .map(|i| {
            KvStore::start(
                &daemons[i],
                shareds[i].clone(),
                KvConfig {
                    partitions: PARTS,
                    name: format!("replica-{i}"),
                    applied: (i == 0).then(|| applied_tx.clone()),
                    ..KvConfig::default()
                },
            )
            .expect("replica starts")
        })
        .collect();
    drop(applied_tx);
    let up = Instant::now() + Duration::from_secs(30);
    while !shareds.iter().all(|s| s.serving()) {
        if Instant::now() >= up {
            eprintln!("kv: replicas never all started serving");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Applied records are timestamped live on their own thread, so
    // latency reflects when replica 0 committed each op, not when this
    // thread drained the channel.
    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut got: Vec<(Instant, u64)> = Vec::new();
            loop {
                match applied_rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(rec) if rec.client == "load" => got.push((Instant::now(), rec.seq)),
                    Ok(_) => {}
                    Err(_) => {
                        if stop.load(Ordering::Relaxed) {
                            while let Ok(rec) = applied_rx.try_recv() {
                                if rec.client == "load" {
                                    got.push((Instant::now(), rec.seq));
                                }
                            }
                            return got;
                        }
                    }
                }
            }
        })
    };

    let addr0 = daemons[0].session_addr().expect("session socket");
    let mut session = match SessionClient::connect(addr0, "load") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kv: session connect: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Open-loop mixed workload: every fourth op is a transaction over
    // two keys pinned to different rings; the rest are single-key puts
    // round-robining the key space.
    let txn_a = key_in("txa", "kv.0");
    let txn_b = key_in("txb", "kv.1");
    let run = Duration::from_secs_f64(args.secs);
    let gap = Duration::from_micros(args.gap_us);
    // seq → (submit time, is_txn, groups, payload), kept for in-doubt
    // resubmission during reconciliation.
    let mut submitted: BTreeMap<u64, (Instant, bool, Vec<String>, Bytes)> = BTreeMap::new();
    let start = Instant::now();
    let mut counter = 0u64;
    while start.elapsed() < run {
        let is_txn = counter % 4 == 3;
        let op = if is_txn {
            KvOp::Write {
                writes: vec![
                    KvWrite::Put {
                        key: txn_a.clone(),
                        value: Bytes::from(format!("t{counter}")),
                    },
                    KvWrite::Put {
                        key: txn_b.clone(),
                        value: Bytes::from(format!("t{counter}")),
                    },
                ],
            }
        } else {
            KvOp::Write {
                writes: vec![KvWrite::Put {
                    key: format!("bench-{}", counter % 16),
                    value: Bytes::from(format!("v{counter}")),
                }],
            }
        };
        let payload = encode_op(&op);
        let groups: Vec<String> = involved_partitions(&op, PARTS).into_iter().collect();
        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        match session.multicast_sequenced(&refs, payload.clone(), Service::Agreed) {
            Ok(seq) => {
                submitted.insert(seq, (Instant::now(), is_txn, groups, payload));
            }
            Err(e) => {
                eprintln!("kv: submit: {e}");
                return ExitCode::FAILURE;
            }
        }
        counter += 1;
        std::thread::sleep(gap);
    }

    // Reconcile: every submitted seq must commit exactly once at the
    // replica; in-doubt seqs are resubmitted (exactly-once means the
    // retries cost nothing when the original landed).
    let mut resubmitted = 0u64;
    let reconcile = Instant::now() + Duration::from_secs(20);
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let seen: std::collections::BTreeSet<u64> = shareds[0].with_machine(|m| {
            submitted
                .keys()
                .filter(|&&s| submitted[&s].2.iter().all(|g| m.mark(g, "load") >= s))
                .copied()
                .collect()
        });
        let missing: Vec<u64> = submitted
            .keys()
            .filter(|s| !seen.contains(s))
            .copied()
            .collect();
        if missing.is_empty() || Instant::now() >= reconcile {
            break;
        }
        for seq in missing {
            let (_, _, groups, payload) = &submitted[&seq];
            let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
            if session
                .resubmit(seq, &refs, payload.clone(), Service::Agreed)
                .is_ok()
            {
                resubmitted += 1;
            }
        }
    }

    // Convergence across all three replicas.
    let mut converged = false;
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let p: Vec<u64> = shareds.iter().map(|s| s.position()).collect();
        if p.iter().all(|&x| x == p[0]) {
            std::thread::sleep(Duration::from_millis(400));
            let q: Vec<u64> = shareds.iter().map(|s| s.position()).collect();
            if q == p {
                converged = true;
                break;
            }
        } else {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let applied = collector.join().expect("collector thread");

    // Exactly-once accounting at replica 0.
    let mut seen_count: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, seq) in &applied {
        *seen_count.entry(*seq).or_default() += 1;
    }
    let lost = submitted
        .keys()
        .filter(|s| !seen_count.contains_key(s))
        .count();
    let doubled = seen_count.values().filter(|&&n| n > 1).count();

    let mut single: Vec<Duration> = Vec::new();
    let mut txn: Vec<Duration> = Vec::new();
    for (at, seq) in &applied {
        if let Some((sent, is_txn, _, _)) = submitted.get(seq) {
            let lat = at.saturating_duration_since(*sent);
            if *is_txn {
                txn.push(lat);
            } else {
                single.push(lat);
            }
        }
    }
    single.sort_unstable();
    txn.sort_unstable();

    let hashes: Vec<u64> = shareds.iter().map(|s| s.state_hash()).collect();
    let hashes_equal = hashes.iter().all(|&h| h == hashes[0]);
    let position = shareds[0].position();

    session.bye();
    for s in stores {
        s.shutdown();
    }
    for d in daemons {
        d.shutdown();
    }

    // --- Sweep phase: seeded divergence/dedup chaos cases. ---
    let mut divergence = 0usize;
    let mut dedup = 0usize;
    for s in 0..args.sweep {
        let r = kv_divergence_case(args.seed.wrapping_mul(1_000_003).wrapping_add(s));
        divergence += r.divergence;
        dedup += r.dedup;
    }

    let json = format!(
        "{{\n  \"bench\": \"kv\",\n  \"rings\": {RINGS},\n  \"nodes\": {NODES},\n  \
         \"partitions\": {PARTS},\n  \"seed\": {},\n  \"secs\": {:.1},\n  \
         \"send_gap_us\": {},\n  \"ops_submitted\": {},\n  \"single_ops\": {},\n  \
         \"txn_ops\": {},\n  \"applied_at_replica\": {},\n  \"resubmitted\": {resubmitted},\n  \
         \"single_p50_us\": {:.1},\n  \"single_p99_us\": {:.1},\n  \"single_p999_us\": {:.1},\n  \
         \"txn_p50_us\": {:.1},\n  \"txn_p99_us\": {:.1},\n  \"txn_p999_us\": {:.1},\n  \
         \"final_position\": {position},\n  \"replicas_converged\": {converged},\n  \
         \"state_hashes_equal\": {hashes_equal},\n  \"lost_ops\": {lost},\n  \
         \"doubled_ops\": {doubled},\n  \"divergence_seeds\": {},\n  \
         \"divergence_violations\": {divergence},\n  \"dedup_violations\": {dedup}\n}}\n",
        args.seed,
        args.secs,
        args.gap_us,
        submitted.len(),
        single.len(),
        txn.len(),
        applied.len(),
        percentile(&single, 0.50),
        percentile(&single, 0.99),
        percentile(&single, 0.999),
        percentile(&txn, 0.50),
        percentile(&txn, 0.99),
        percentile(&txn, 0.999),
        args.sweep,
    );
    print!("{json}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("kv: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut failed = false;
    if lost > 0 {
        eprintln!("kv: {lost} ops lost");
        failed = true;
    }
    if doubled > 0 {
        eprintln!("kv: {doubled} ops applied more than once");
        failed = true;
    }
    if !converged || !hashes_equal {
        eprintln!("kv: replicas diverged (converged={converged}, hashes {hashes:x?})");
        failed = true;
    }
    if divergence > 0 || dedup > 0 {
        eprintln!("kv: sweep violations: {divergence} divergence, {dedup} dedup");
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "kv: clean ({} ops, single p50/p99 {:.0}/{:.0} us, txn p50/p99 {:.0}/{:.0} us, {} sweep seeds)",
        submitted.len(),
        percentile(&single, 0.50),
        percentile(&single, 0.99),
        percentile(&txn, 0.50),
        percentile(&txn, 0.99),
        args.sweep,
    );
    ExitCode::SUCCESS
}
