//! Elastic resharding benchmark: steady client traffic into a hot group
//! on a live localhost UDP multi-ring deployment, with an online
//! migration of the group to another ring fired mid-run. Measures the
//! delivery-rate dip the handoff fence causes, in 100 ms buckets, and
//! reports the migration lifecycle counters (including total fence wait
//! time) from the transport probe.
//!
//! ```text
//! cargo run --release --bin resharding
//! cargo run --release --bin resharding -- --secs 10 --gap-us 2000
//! ```
//!
//! Writes the run as `BENCH_resharding.json`. Exits non-zero if the
//! migration never commits, if any sent message is lost or duplicated,
//! or if a phantom message appears — the CI smoke gate. Honors
//! `ACCELRING_BENCH_QUALITY` (`quick`/`full`) for the default run
//! length.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelring_bench::Quality;
use accelring_chaos::churn::check_churn_handoff;
use accelring_chaos::MsgId;
use accelring_core::{Backoff, RingIdx, Service};
use accelring_daemon::ClientEvent;
use accelring_multiring::{ChurnCluster, MultiRingClient, MultiRingOptions, ShardMap};
use bytes::Bytes;

const RINGS: u16 = 2;
const NODES: u16 = 3;
const HOT_SENDER: u16 = 7;
const BUCKET: Duration = Duration::from_millis(100);

struct Args {
    secs: f64,
    gap_us: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        secs: match Quality::from_env() {
            Quality::Quick => 4.0,
            Quality::Full => 12.0,
        },
        gap_us: 4000,
        seed: 42,
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

/// "hot" starts on ring 0 (where all clients live) and migrates to ring
/// 1, which carries a second group so the target is not idle state.
fn shards() -> ShardMap {
    let mut map = ShardMap::new(RINGS);
    map.assign("hot", RingIdx::new(0));
    map.assign("cold", RingIdx::new(1));
    map
}

fn await_view(client: &MultiRingClient, group: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(ClientEvent::View { group: g, .. }) =
            client.events().recv_timeout(Duration::from_millis(200))
        {
            if g == group {
                return;
            }
        }
    }
    panic!("client {} never saw a view for {group}", client.name());
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

/// Mean delivery rate (messages/sec) over the bucket indices `[a, b)`.
fn rate(buckets: &[u64], a: usize, b: usize) -> f64 {
    let b = b.min(buckets.len());
    if a >= b {
        return 0.0;
    }
    let total: u64 = buckets[a..b].iter().sum();
    total as f64 / ((b - a) as f64 * BUCKET.as_secs_f64())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("resharding: {e}");
            eprintln!("usage: resharding [--secs S] [--gap-us N] [--seed N]");
            return ExitCode::from(2);
        }
    };

    let cluster = match ChurnCluster::start(
        RINGS,
        NODES,
        args.seed,
        shards(),
        MultiRingOptions::default(),
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("resharding: cluster failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let observer = cluster.daemon(0).connect("obs").expect("connect");
    let sender = cluster.daemon(0).connect("src").expect("connect");
    observer.join("hot").expect("join hot");
    await_view(&observer, "hot");

    // The collector thread timestamps every delivery live, so the
    // buckets reflect when the merged order released each message, not
    // when this thread got around to draining the channel.
    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let stop = Arc::clone(&stop);
        let t0 = Instant::now();
        std::thread::spawn(move || {
            let mut got: Vec<(Duration, MsgId)> = Vec::new();
            let mut last = Instant::now();
            loop {
                match observer.events().recv_timeout(Duration::from_millis(100)) {
                    Ok(ClientEvent::Message { payload, .. }) => {
                        if let Some(id) = MsgId::parse(&payload) {
                            got.push((t0.elapsed(), id));
                            last = Instant::now();
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        if stop.load(Ordering::Relaxed) && last.elapsed() > Duration::from_secs(2) {
                            return got;
                        }
                    }
                }
            }
        })
    };

    let run = Duration::from_secs_f64(args.secs);
    let migrate_at = run / 2;
    let gap = Duration::from_micros(args.gap_us);
    let start = Instant::now();
    let mut sent: BTreeSet<MsgId> = BTreeSet::new();
    let mut counter = 0u64;
    let mut migrated = false;
    while start.elapsed() < run {
        let id = MsgId {
            sender: HOT_SENDER,
            counter,
        };
        if let Err(e) = send_id(&sender, id) {
            eprintln!("resharding: {e}");
            return ExitCode::FAILURE;
        }
        sent.insert(id);
        counter += 1;
        if !migrated && start.elapsed() >= migrate_at {
            migrated = true;
            if let Err(e) = cluster.daemon(0).migrate("hot", RingIdx::new(1)) {
                eprintln!("resharding: migrate rejected: {e}");
                return ExitCode::FAILURE;
            }
        }
        std::thread::sleep(gap);
    }

    // Wait out the commit, then release the collector.
    let commit_deadline = Instant::now() + Duration::from_secs(20);
    let inspect = || cluster.daemon(0).inspect().expect("daemon up");
    while Instant::now() < commit_deadline && inspect().migrations.committed < 1 {
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::Relaxed);
    let got = collector.join().expect("collector thread");
    let ins = inspect();

    let ids: Vec<MsgId> = got.iter().map(|(_, id)| *id).collect();
    let violations = check_churn_handoff(&sent, &[(0, ids)]);
    let committed = ins.migrations.committed;

    let nbuckets = (got
        .iter()
        .map(|(at, _)| at.as_millis() / BUCKET.as_millis())
        .max()
        .unwrap_or(0) as usize)
        + 1;
    let mut buckets = vec![0u64; nbuckets];
    for (at, _) in &got {
        buckets[(at.as_millis() / BUCKET.as_millis()) as usize] += 1;
    }
    let mig_bucket = (migrate_at.as_millis() / BUCKET.as_millis()) as usize;
    // "during" is the second right after the fence goes up; the dip is
    // its rate against the pre-fence baseline.
    let during_end =
        mig_bucket + (Duration::from_secs(1).as_millis() / BUCKET.as_millis()) as usize;
    let before = rate(&buckets, 0, mig_bucket);
    let during = rate(&buckets, mig_bucket, during_end);
    let after = rate(&buckets, during_end, nbuckets);
    let dip = if before > 0.0 { during / before } else { 0.0 };

    let bucket_list = buckets
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"resharding\",\n  \"rings\": {RINGS},\n  \"nodes\": {NODES},\n  \
         \"seed\": {},\n  \"secs\": {:.1},\n  \"send_gap_us\": {},\n  \"sent\": {},\n  \
         \"delivered\": {},\n  \"migrate_at_ms\": {},\n  \"bucket_ms\": {},\n  \
         \"buckets\": [{bucket_list}],\n  \"rate_before_fence\": {before:.1},\n  \
         \"rate_during_handoff\": {during:.1},\n  \"rate_after_handoff\": {after:.1},\n  \
         \"dip_ratio\": {dip:.3},\n  \"migrations_started\": {},\n  \
         \"migrations_committed\": {committed},\n  \"migrations_aborted\": {},\n  \
         \"submissions_redirected\": {},\n  \"fence_wait_ms\": {:.1},\n  \"violations\": {}\n}}\n",
        args.seed,
        args.secs,
        args.gap_us,
        sent.len(),
        got.len(),
        migrate_at.as_millis(),
        BUCKET.as_millis(),
        ins.migrations.started,
        ins.migrations.aborted,
        ins.migrations.redirected,
        ins.fence_wait.as_secs_f64() * 1e3,
        violations.len(),
    );
    print!("{json}");
    if let Err(e) = std::fs::write("BENCH_resharding.json", &json) {
        eprintln!("resharding: writing BENCH_resharding.json: {e}");
        return ExitCode::FAILURE;
    }

    cluster.shutdown();

    // CI smoke gate: the handoff must have happened and cost nothing.
    let mut failed = false;
    if committed < 1 {
        eprintln!("resharding: the migration never committed");
        failed = true;
    }
    for v in &violations {
        eprintln!("resharding: {v}");
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "resharding: clean ({} sent, {} delivered, dip {:.0}% of baseline)",
        sent.len(),
        got.len(),
        dip * 100.0
    );
    ExitCode::SUCCESS
}
