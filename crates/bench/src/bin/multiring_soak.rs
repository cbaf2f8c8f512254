//! Multi-ring chaos soak: seeded fault schedules against R independent
//! rings, the full per-ring EVS check plus the cross-ring
//! order-agreement invariant per seed. Every schedule includes a
//! ring-targeted partition on ring 0 and a daemon kill on the last
//! ring, alongside the generated faults. Each seed also runs the KV
//! replica divergence case: a mixed cross-ring workload consumed
//! straight-through versus through a random snapshot cut with
//! overlapping replay, with state-hash beacons compared at equal
//! order positions.
//!
//! ```text
//! cargo run --release --bin multiring_soak -- --seed 7
//! cargo run --release --bin multiring_soak -- --seeds 0..100 --rings 2 --events 90
//! ```
//!
//! Exits non-zero if any seed violates an invariant; `--seed N` replays
//! the run exactly.
use std::process::ExitCode;

use accelring_bench::kv_divergence_case;
use accelring_multiring::{run_multiring_chaos, MultiRingChaosConfig};

struct Args {
    seeds: std::ops::Range<u64>,
    rings: u16,
    nodes: u16,
    events: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 0..100,
        rings: 2,
        nodes: 5,
        events: 90,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                let s: u64 = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                args.seeds = s..s + 1;
            }
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B, got {v}"))?;
                let a: u64 = a.parse().map_err(|e| format!("--seeds: {e}"))?;
                let b: u64 = b.parse().map_err(|e| format!("--seeds: {e}"))?;
                if a >= b {
                    return Err(format!("--seeds: empty range {a}..{b}"));
                }
                args.seeds = a..b;
            }
            "--rings" => {
                args.rings = value("--rings")?
                    .parse()
                    .map_err(|e| format!("--rings: {e}"))?;
            }
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--events" => {
                args.events = value("--events")?
                    .parse()
                    .map_err(|e| format!("--events: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.rings < 1 {
        return Err("--rings: need at least 1".into());
    }
    if args.nodes < 3 {
        return Err(format!("--nodes: need at least 3, got {}", args.nodes));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("multiring_soak: {e}");
            eprintln!(
                "usage: multiring_soak [--seed N | --seeds A..B] [--rings N] [--nodes N] [--events N]"
            );
            return ExitCode::from(2);
        }
    };
    let mut failures = 0u32;
    let total = args.seeds.end - args.seeds.start;
    for seed in args.seeds.clone() {
        let report = run_multiring_chaos(MultiRingChaosConfig {
            rings: args.rings,
            nodes_per_ring: args.nodes,
            seed,
            events: args.events,
        });
        println!("{}", report.render());
        if !report.ok() {
            failures += 1;
        }
        let kv = kv_divergence_case(seed);
        if kv.ok() {
            println!("seed {seed}: kv replicas agree (no divergence, exactly-once commits)");
        } else {
            println!(
                "seed {seed}: KV VIOLATIONS: {} divergence, {} dedup",
                kv.divergence, kv.dedup
            );
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("multiring_soak: {failures}/{total} seed(s) violated invariants");
        return ExitCode::FAILURE;
    }
    println!(
        "multiring_soak: {total} seed(s) clean ({} rings x {} nodes, {} events each)",
        args.rings, args.nodes, args.events
    );
    ExitCode::SUCCESS
}
