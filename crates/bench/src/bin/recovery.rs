//! Crash-recovery benchmark: a restart storm per seed on a live
//! localhost UDP multi-ring deployment, measuring rejoin-to-serving
//! latency — from the moment a cycled daemon's ports are rebound to
//! the moment its serving gate opens on a shard map at least as new as
//! the survivors' — and checking the recovery invariants on every run:
//! no stale-map serving, no dedup-watermark regression, and a gap-free
//! exactly-once workload stream across the storm.
//!
//! ```text
//! cargo run --release --bin recovery -- --out BENCH_recovery.json
//! cargo run --release --bin recovery -- --seeds 100
//! ```
//!
//! Prints the run as JSON, and writes it to `--out PATH` when given (the
//! first command regenerates the committed record). Exits non-zero on any
//! invariant violation, a daemon that never converges, or a leaked
//! buffer lease. Honors `ACCELRING_BENCH_QUALITY` (`quick`/`full`) for
//! the default seed count.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use accelring_bench::{percentile, Quality};
use accelring_chaos::churn::{check_churn_handoff, check_recovery, RecoveryReport};
use accelring_chaos::MsgId;
use accelring_core::{Backoff, RingIdx, Service};
use accelring_daemon::{ClientEvent, FrontendOptions};
use accelring_multiring::{ChurnCluster, MultiRingClient, MultiRingOptions, ShardMap};
use bytes::Bytes;

const RINGS: u16 = 2;
const NODES: u16 = 3;
const HOT_SENDER: u16 = 7;
/// Daemons cycled together each seed (everyone but daemon 0, which stays
/// up as the catch-up source).
const VICTIMS: [u16; 2] = [1, 2];
const DOWNTIME: Duration = Duration::from_millis(300);
const CONVERGE_DEADLINE: Duration = Duration::from_secs(20);

struct Args {
    seeds: u64,
    seed_base: u64,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: match Quality::from_env() {
            Quality::Quick => 3,
            Quality::Full => 100,
        },
        seed_base: 1000,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--seed-base" => {
                args.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|e| format!("--seed-base: {e}"))?;
            }
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seeds < 1 {
        return Err("--seeds: need at least 1".to_string());
    }
    Ok(args)
}

fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    map.assign("hot", RingIdx::new(0));
    map.assign("cold", RingIdx::new(1));
    map
}

fn send_id(sender: &MultiRingClient, id: MsgId) -> Result<(), String> {
    let mut backoff = Backoff::new(
        Duration::from_millis(5),
        Duration::from_millis(100),
        id.counter,
    );
    loop {
        match sender.multicast_sequenced(&["hot"], Bytes::from(id.payload()), Service::Agreed) {
            Ok(_) => return Ok(()),
            Err(e) if backoff.attempts() >= 20 => return Err(format!("send {id}: {e}")),
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
}

fn collect_ids(client: &MultiRingClient, want: usize, deadline: Duration) -> Vec<MsgId> {
    let start = Instant::now();
    let mut got = Vec::new();
    while got.len() < want && start.elapsed() < deadline {
        if let Ok(ClientEvent::Message { payload, .. }) =
            client.events().recv_timeout(Duration::from_millis(100))
        {
            if let Some(id) = MsgId::parse(&payload) {
                got.push(id);
            }
        }
    }
    got
}

struct SeedOutcome {
    rejoin_ms: Vec<f64>,
    violations: Vec<String>,
    pulls: u64,
    snapshots: u64,
}

fn run_seed(seed: u64) -> Result<SeedOutcome, String> {
    let options = MultiRingOptions {
        frontend: FrontendOptions::enabled(),
        ..MultiRingOptions::default()
    };
    let mut cluster = ChurnCluster::start(RINGS, NODES, seed, shards(), options)
        .map_err(|e| format!("seed {seed}: cluster failed to start: {e}"))?;

    let observer = cluster.daemon(0).connect("obs").expect("connect");
    let post_sender = cluster.daemon(0).connect("src-after").expect("connect");
    let pre_sender = cluster.daemon(1).connect("src").expect("connect");
    observer.join("hot").expect("join hot");
    let view_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(ClientEvent::View { group, .. }) =
            observer.events().recv_timeout(Duration::from_millis(200))
        {
            if group == "hot" {
                break;
            }
        }
        if Instant::now() > view_deadline {
            return Err(format!("seed {seed}: observer never saw the hot view"));
        }
    }

    // Pre-storm traffic through a victim sets its dedup watermarks.
    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    for counter in 0..10 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        send_id(&pre_sender, id)?;
        sent.insert(id);
    }
    let mut stream = collect_ids(&observer, 10, Duration::from_secs(30));
    if stream.len() < 10 {
        return Err(format!("seed {seed}: pre-storm workload never landed"));
    }

    // Map churn: the rejoiners are reborn with the initial map and must
    // catch up past this migration's version.
    cluster
        .daemon(0)
        .migrate("hot", RingIdx::new(1))
        .map_err(|e| format!("seed {seed}: migrate rejected: {e}"))?;
    let commit_deadline = Instant::now() + Duration::from_secs(20);
    let inspect = || cluster.daemon(0).inspect().expect("daemon up");
    while inspect().migrations.committed < 1 {
        if Instant::now() > commit_deadline {
            return Err(format!("seed {seed}: migration never committed"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // The storm: both non-leader daemons crash together.
    let seqs_before: Vec<(u16, _)> = VICTIMS
        .iter()
        .map(|d| (*d, cluster.daemon(*d).export_seqs().expect("daemon up")))
        .collect();
    for d in VICTIMS {
        cluster.stop_daemon(d);
    }
    std::thread::sleep(DOWNTIME);
    let mut rebound_at = Vec::new();
    for d in VICTIMS {
        cluster
            .restart_daemon(d)
            .map_err(|e| format!("seed {seed}: daemon {d} failed to rebind: {e}"))?;
        rebound_at.push(Instant::now());
    }
    let map_before = cluster.daemon(0).inspect().expect("daemon up").map_version;

    // Rejoin-to-serving: gate open AND map at least the survivors'.
    let mut rejoin_ms = Vec::new();
    let mut reports = Vec::new();
    for (k, (d, before)) in seqs_before.into_iter().enumerate() {
        let t0 = rebound_at[k];
        let ins = loop {
            let ins = cluster.daemon(d).inspect().expect("daemon up");
            if !ins.catching_up && ins.map_version >= map_before {
                break ins;
            }
            if t0.elapsed() > CONVERGE_DEADLINE {
                break ins;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        rejoin_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        reports.push(RecoveryReport {
            daemon: d,
            map_before,
            map_after: ins.map_version,
            seqs_before: before,
            seqs_after: cluster.daemon(d).export_seqs().expect("daemon up"),
        });
    }
    let mut violations: Vec<String> = check_recovery(&reports)
        .iter()
        .map(ToString::to_string)
        .collect();

    // Post-storm traffic: the merged stream must stay gap-free and
    // exactly-once through the storm.
    for counter in 10..20 {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        send_id(&post_sender, id)?;
        sent.insert(id);
    }
    stream.extend(collect_ids(
        &observer,
        sent.len() - stream.len(),
        Duration::from_secs(30),
    ));
    violations.extend(
        check_churn_handoff(&sent, &[(0, stream)])
            .iter()
            .map(ToString::to_string),
    );

    let mut pulls = 0;
    let mut snapshots = 0;
    for d in VICTIMS {
        let recovery = cluster.daemon(d).inspect().expect("daemon up").recovery;
        pulls += recovery.pulls_sent;
        snapshots += recovery.snapshots_applied;
    }
    let probes: Vec<_> = (0..NODES)
        .flat_map(|d| cluster.daemon(d).transport_probes())
        .collect();
    cluster.shutdown();
    for p in &probes {
        if p.pool_outstanding() != 0 {
            violations.push(format!(
                "seed {seed}: {} buffer leases leaked",
                p.pool_outstanding()
            ));
        }
    }

    Ok(SeedOutcome {
        rejoin_ms,
        violations,
        pulls,
        snapshots,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("recovery: {e}");
            eprintln!("usage: recovery [--seeds N] [--seed-base N]");
            return ExitCode::from(2);
        }
    };

    let mut samples: Vec<f64> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut pulls = 0;
    let mut snapshots = 0;
    let started = Instant::now();
    for k in 0..args.seeds {
        let seed = args.seed_base + k;
        match run_seed(seed) {
            Ok(out) => {
                samples.extend(out.rejoin_ms);
                for v in &out.violations {
                    eprintln!("recovery: seed {seed}: {v}");
                }
                violations.extend(out.violations);
                pulls += out.pulls;
                snapshots += out.snapshots;
            }
            Err(e) => {
                eprintln!("recovery: {e}");
                violations.push(e);
            }
        }
        if (k + 1) % 10 == 0 {
            eprintln!(
                "recovery: {}/{} seeds, {} samples, {} violations, {:.0}s",
                k + 1,
                args.seeds,
                samples.len(),
                violations.len(),
                started.elapsed().as_secs_f64()
            );
        }
    }

    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    let max = sorted.last().copied().unwrap_or(0.0);
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    };

    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"rings\": {RINGS},\n  \"nodes\": {NODES},\n  \
         \"storm_size\": {},\n  \"downtime_ms\": {},\n  \"seeds\": {},\n  \
         \"seed_base\": {},\n  \"rejoin_samples\": {},\n  \"rejoin_p50_ms\": {p50:.1},\n  \
         \"rejoin_p99_ms\": {p99:.1},\n  \"rejoin_mean_ms\": {mean:.1},\n  \
         \"rejoin_max_ms\": {max:.1},\n  \"recovery_pulls_sent\": {pulls},\n  \
         \"recovery_snapshots_applied\": {snapshots},\n  \"violations\": {}\n}}\n",
        VICTIMS.len(),
        DOWNTIME.as_millis(),
        args.seeds,
        args.seed_base,
        sorted.len(),
        violations.len(),
    );
    print!("{json}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("recovery: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if !violations.is_empty() {
        eprintln!("recovery: {} violations", violations.len());
        return ExitCode::FAILURE;
    }
    println!(
        "recovery: clean ({} seeds, rejoin p50 {p50:.0} ms / p99 {p99:.0} ms)",
        args.seeds
    );
    ExitCode::SUCCESS
}
