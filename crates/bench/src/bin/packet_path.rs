//! Hot-datapath microbenchmark: the node's packet path on a real
//! localhost ring under saturating senders, over both backends —
//!
//! - `batched`: `recvmmsg`/`sendmmsg`, pooled, encode-once UDP,
//! - `shm`: the shared-memory SPSC ring backend (zero syscalls on the
//!   datagram path; the doorbell eventfd only fires on sleep edges) —
//!
//! plus transport-isolated link floods (one syscall per datagram, batched
//! UDP, shm) with no protocol on top.
//!
//! ```text
//! cargo run --release --bin packet_path
//! cargo run --release --bin packet_path -- --nodes 4 --secs 3
//! ```
//!
//! Reports datagrams/sec, syscalls/datagram, average batch size, and pool
//! hit rate per path (plus ring/doorbell counters for the shm path),
//! prints the shm speedups, and writes the whole run as
//! `BENCH_packet_path.json`. Exits non-zero if any path saw wire
//! decode errors or leaked pooled buffers — the CI smoke gate.
//! Honors `ACCELRING_BENCH_QUALITY` (`quick`/`full`) for the default
//! measurement window.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use accelring_bench::Quality;
use accelring_core::{ProtocolConfig, Service, ShmPathStats};
use accelring_membership::{MembershipConfig, StateKind};
use accelring_transport::{spawn_local_ring_on, AppEvent, NodeHandle, SubmitError, Transport};
use bytes::Bytes;

/// Payload size, the paper's standard 1350-byte datagram.
const PAYLOAD_LEN: usize = 1350;

/// How long to wait for the ring to form before giving up.
const FORM_TIMEOUT: Duration = Duration::from_secs(10);

struct Args {
    nodes: u16,
    secs: f64,
    window: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        nodes: 4,
        secs: match Quality::from_env() {
            Quality::Quick => 2.0,
            Quality::Full => 8.0,
        },
        window: 30,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--secs" => {
                args.secs = value("--secs")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?;
            }
            "--window" => {
                args.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.nodes < 2 {
        return Err(format!("--nodes: need at least 2, got {}", args.nodes));
    }
    if args.window < 1 {
        return Err("--window: need at least 1".to_string());
    }
    Ok(args)
}

/// One path's measured numbers.
struct PathResult {
    label: &'static str,
    elapsed_secs: f64,
    datagrams: u64,
    syscalls: u64,
    delivered: u64,
    decode_failures: u64,
    send_errors: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_outstanding: u64,
    token_retransmits: u64,
    rings_reformed: u64,
    submissions_shed: u64,
    /// Shared-memory ring counter deltas; all-zero on the UDP paths.
    shm: ShmPathStats,
}

impl PathResult {
    fn datagrams_per_sec(&self) -> f64 {
        self.datagrams as f64 / self.elapsed_secs
    }

    fn syscalls_per_datagram(&self) -> f64 {
        if self.datagrams == 0 {
            return 0.0;
        }
        self.syscalls as f64 / self.datagrams as f64
    }

    fn avg_batch(&self) -> f64 {
        if self.syscalls == 0 {
            return 0.0;
        }
        self.datagrams as f64 / self.syscalls as f64
    }

    fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"datagrams\": {}, \"syscalls\": {}, \"elapsed_secs\": {:.3}, \
             \"datagrams_per_sec\": {:.1}, \"syscalls_per_datagram\": {:.4}, \
             \"avg_batch\": {:.2}, \"delivered\": {}, \"decode_failures\": {}, \
             \"send_errors\": {}, \"pool_hits\": {}, \"pool_misses\": {}, \
             \"pool_hit_rate\": {:.4}, \"pool_outstanding\": {}, \
             \"token_retransmits\": {}, \"rings_reformed\": {}, \
             \"submissions_shed\": {}",
            self.datagrams,
            self.syscalls,
            self.elapsed_secs,
            self.datagrams_per_sec(),
            self.syscalls_per_datagram(),
            self.avg_batch(),
            self.delivered,
            self.decode_failures,
            self.send_errors,
            self.pool_hits,
            self.pool_misses,
            self.pool_hit_rate(),
            self.pool_outstanding,
            self.token_retransmits,
            self.rings_reformed,
            self.submissions_shed,
        );
        if self.shm.active() {
            out.push_str(&format!(
                ", \"shm_slots_published\": {}, \"shm_slots_consumed\": {}, \
                 \"shm_datagrams_published\": {}, \"shm_datagrams_consumed\": {}, \
                 \"shm_doorbell_rings\": {}, \"shm_doorbell_wakeups\": {}, \
                 \"shm_datagrams_per_wakeup\": {:.1}, \"shm_ring_full_drops\": {}",
                self.shm.slots_published,
                self.shm.slots_consumed,
                self.shm.datagrams_published,
                self.shm.datagrams_consumed,
                self.shm.doorbell_rings,
                self.shm.doorbell_wakeups,
                self.shm.datagrams_per_wakeup(),
                self.shm.ring_full_drops,
            ));
        }
        out.push('}');
        out
    }
}

/// How the link-level flood moves datagrams.
#[derive(Clone, Copy)]
enum LinkMode {
    /// One `send_to`/`recv_from` syscall per datagram.
    UdpUnbatched,
    UdpBatched,
    Shm,
}

/// Raw link-level numbers for one backend: a single thread ping-pongs
/// fixed-size batches between two endpoints with no protocol on top,
/// measuring the packet path in isolation. The full-ring runs above are
/// CPU-bound on ordering work on small machines, which caps how much a
/// transport swap can show there; this is the transport itself.
struct LinkResult {
    label: &'static str,
    datagrams: u64,
    syscalls: u64,
    elapsed_secs: f64,
}

impl LinkResult {
    fn datagrams_per_sec(&self) -> f64 {
        if self.elapsed_secs == 0.0 {
            return 0.0;
        }
        self.datagrams as f64 / self.elapsed_secs
    }

    fn syscalls_per_datagram(&self) -> f64 {
        if self.datagrams == 0 {
            return 0.0;
        }
        self.syscalls as f64 / self.datagrams as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"datagrams\": {}, \"syscalls\": {}, \"elapsed_secs\": {:.3}, \
             \"datagrams_per_sec\": {:.1}, \"syscalls_per_datagram\": {:.4}}}",
            self.datagrams,
            self.syscalls,
            self.elapsed_secs,
            self.datagrams_per_sec(),
            self.syscalls_per_datagram(),
        )
    }
}

/// Datagrams per link-flood batch; matches the event loop's receive batch.
const LINK_BATCH: usize = 32;

/// Floods `PAYLOAD_LEN`-byte datagrams from one endpoint to another for
/// `secs`, draining after every batch so nothing is lost to full socket
/// buffers, and returns the datagram and syscall counts.
fn run_link(label: &'static str, mode: LinkMode, secs: f64) -> Result<LinkResult, String> {
    use accelring_transport::{DatagramSocket, RecvSlot, ShmCounters, ShmSocket};

    let err = |e: std::io::Error| format!("link {label}: {e}");
    let (a, b, dest): (Box<dyn DatagramSocket>, Box<dyn DatagramSocket>, _) = match mode {
        LinkMode::UdpUnbatched | LinkMode::UdpBatched => {
            let a = std::net::UdpSocket::bind("127.0.0.1:0").map_err(err)?;
            let b = std::net::UdpSocket::bind("127.0.0.1:0").map_err(err)?;
            a.set_nonblocking(true).map_err(err)?;
            b.set_nonblocking(true).map_err(err)?;
            let dest = b.local_addr().map_err(err)?;
            (Box::new(a), Box::new(b), dest)
        }
        LinkMode::Shm => {
            let counters = ShmCounters::new();
            let a = ShmSocket::bind_ephemeral(counters.clone()).map_err(err)?;
            let b = ShmSocket::bind_ephemeral(counters).map_err(err)?;
            let dest = b.local_addr();
            (Box::new(a), Box::new(b), dest)
        }
    };

    let payload = Bytes::from(vec![0x5au8; PAYLOAD_LEN]);
    let batch: Vec<(Bytes, std::net::SocketAddr)> =
        (0..LINK_BATCH).map(|_| (payload.clone(), dest)).collect();
    let mut bufs = vec![[0u8; 2048]; LINK_BATCH];

    let mut datagrams = 0u64;
    let mut syscalls = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    while Instant::now() < deadline {
        match mode {
            LinkMode::UdpUnbatched => {
                for (buf, addr) in &batch {
                    syscalls += 1;
                    let _ = a.send_to(buf, *addr);
                }
                let mut buf = [0u8; 2048];
                loop {
                    syscalls += 1;
                    match b.recv_from(&mut buf) {
                        Ok(_) => datagrams += 1,
                        Err(_) => break,
                    }
                }
            }
            LinkMode::UdpBatched | LinkMode::Shm => {
                let out = a.send_batch(&batch);
                syscalls += out.syscalls;
                loop {
                    let mut slots: Vec<RecvSlot<'_>> =
                        bufs.iter_mut().map(|b| RecvSlot::new(b)).collect();
                    let out = b.recv_batch(&mut slots).map_err(err)?;
                    syscalls += out.syscalls;
                    datagrams += out.received as u64;
                    if out.received == 0 {
                        break;
                    }
                }
            }
        }
    }

    Ok(LinkResult {
        label,
        datagrams,
        syscalls,
        elapsed_secs: start.elapsed().as_secs_f64(),
    })
}

fn await_operational(handles: &[NodeHandle]) -> Result<(), String> {
    let deadline = Instant::now() + FORM_TIMEOUT;
    while Instant::now() < deadline {
        if handles
            .iter()
            .all(|h| h.membership_state() == StateKind::Operational)
        {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err("ring did not reach Operational in time".to_string())
}

/// Runs one path: forms a fully meshed localhost ring over `transport`,
/// saturates it from every node for `secs` of wall clock while draining
/// deliveries, and returns the hot-path counter deltas over the
/// measurement window.
fn run_path(label: &'static str, args: &Args, transport: Transport) -> Result<PathResult, String> {
    let handles = spawn_local_ring_on(
        transport,
        args.nodes,
        ProtocolConfig::accelerated(args.window, args.window),
        MembershipConfig::for_wall_clock(),
        None,
    )
    .map_err(|e| format!("spawn: {e}"))?;
    await_operational(&handles)?;
    let probes: Vec<_> = handles.iter().map(NodeHandle::probe).collect();

    let stop = AtomicBool::new(false);
    let delivered = AtomicU64::new(0);
    let payload = Bytes::from(vec![0x5au8; PAYLOAD_LEN]);

    // Warm up briefly so ring formation traffic and pool cold misses are
    // outside the measured window.
    let warmup = Duration::from_millis(250);
    let measure = Duration::from_secs_f64(args.secs);

    let (start_stats, rings_before): (Vec<_>, u64) = std::thread::scope(|s| {
        // Saturating submitter per node. The command queue holds 4096
        // entries, so sleeping (rather than spinning) on backpressure
        // keeps it full without stealing timeslices from the event loops
        // — essential on small machines where everything shares cores.
        for h in &handles {
            let stop = &stop;
            let payload = payload.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match h.submit(payload.clone(), Service::Agreed) {
                        Ok(()) => {}
                        Err(SubmitError::Backlogged) => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(SubmitError::Stopped) => break,
                    }
                }
            });
        }
        // Drainer per node: deliveries must be consumed (and their pooled
        // payload slices dropped) or daemon memory grows without bound.
        // One blocking wait, then an exhaustive drain, per wakeup.
        for h in &handles {
            let stop = &stop;
            let delivered = &delivered;
            s.spawn(move || loop {
                match h.events().recv_timeout(Duration::from_millis(50)) {
                    Ok(ev) => {
                        let mut n = matches!(ev, AppEvent::Delivered(_)) as u64;
                        while let Ok(ev) = h.events().try_recv() {
                            n += matches!(ev, AppEvent::Delivered(_)) as u64;
                        }
                        delivered.fetch_add(n, Ordering::Relaxed);
                    }
                    Err(_) => {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                }
            });
        }

        std::thread::sleep(warmup);
        let start_stats: Vec<_> = probes.iter().map(|p| p.stats()).collect();
        let rings_before = handles.iter().map(NodeHandle::rings_formed).sum::<u64>();
        delivered.store(0, Ordering::Relaxed);
        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
        (start_stats, rings_before)
    });
    let end_stats: Vec<_> = probes.iter().map(|p| p.stats()).collect();

    let mut datagrams = 0u64;
    let mut syscalls = 0u64;
    let mut decode_failures = 0u64;
    let mut send_errors = 0u64;
    let mut pool_hits = 0u64;
    let mut pool_misses = 0u64;
    let mut submissions_shed = 0u64;
    let mut shm = ShmPathStats::default();
    for (a, b) in start_stats.iter().zip(&end_stats) {
        submissions_shed += b.submissions_shed - a.submissions_shed;
        datagrams +=
            (b.hot.datagrams_rx - a.hot.datagrams_rx) + (b.hot.datagrams_tx - a.hot.datagrams_tx);
        syscalls +=
            (b.hot.syscalls_rx - a.hot.syscalls_rx) + (b.hot.syscalls_tx - a.hot.syscalls_tx);
        decode_failures += b.decode_failures - a.decode_failures;
        send_errors += b.send_errors - a.send_errors;
        pool_hits += b.hot.pool_hits - a.hot.pool_hits;
        pool_misses += b.hot.pool_misses - a.hot.pool_misses;
        shm.absorb(&ShmPathStats {
            slots_published: b.shm.slots_published - a.shm.slots_published,
            slots_consumed: b.shm.slots_consumed - a.shm.slots_consumed,
            datagrams_published: b.shm.datagrams_published - a.shm.datagrams_published,
            datagrams_consumed: b.shm.datagrams_consumed - a.shm.datagrams_consumed,
            doorbell_rings: b.shm.doorbell_rings - a.shm.doorbell_rings,
            doorbell_wakeups: b.shm.doorbell_wakeups - a.shm.doorbell_wakeups,
            ring_full_drops: b.shm.ring_full_drops - a.shm.ring_full_drops,
        });
    }
    let delivered_count = delivered.load(Ordering::Relaxed);
    let token_retransmits = handles
        .iter()
        .map(NodeHandle::tokens_retransmitted)
        .sum::<u64>();
    let rings_reformed = handles
        .iter()
        .map(NodeHandle::rings_formed)
        .sum::<u64>()
        .saturating_sub(rings_before);

    // Tear the ring down and verify every pooled buffer came home: the
    // event channels die with the handles, dropping any payload slices
    // still pinning pool leases.
    for h in handles {
        h.shutdown();
    }
    let leak_deadline = Instant::now() + Duration::from_secs(2);
    let mut outstanding = probes.iter().map(|p| p.pool_outstanding()).sum::<u64>();
    while outstanding > 0 && Instant::now() < leak_deadline {
        std::thread::sleep(Duration::from_millis(10));
        outstanding = probes.iter().map(|p| p.pool_outstanding()).sum();
    }

    Ok(PathResult {
        label,
        elapsed_secs: measure.as_secs_f64(),
        datagrams,
        syscalls,
        delivered: delivered_count,
        decode_failures,
        send_errors,
        pool_hits,
        pool_misses,
        pool_outstanding: outstanding,
        token_retransmits,
        rings_reformed,
        submissions_shed,
        shm,
    })
}

fn print_row(r: &PathResult) {
    println!(
        "{:>13}  {:>12.0} dgrams/s  {:>7.4} syscalls/dgram  {:>6.2} avg batch  \
         {:>9} delivered  {:>5.1}% pool hits  {:>5} token rexmt  {:>3} reforms",
        r.label,
        r.datagrams_per_sec(),
        r.syscalls_per_datagram(),
        r.avg_batch(),
        r.delivered,
        r.pool_hit_rate() * 100.0,
        r.token_retransmits,
        r.rings_reformed,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("packet_path: {e}");
            eprintln!("usage: packet_path [--nodes N] [--secs S] [--window W]");
            return ExitCode::from(2);
        }
    };

    println!(
        "# packet_path: {} nodes, window {}, {}B payloads, {:.1}s per path, saturating senders",
        args.nodes, args.window, PAYLOAD_LEN, args.secs
    );

    let batched = match run_path("batched", &args, Transport::Udp) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("packet_path: batched path: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_row(&batched);
    let shm = match run_path("shm", &args, Transport::Shm) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("packet_path: shm path: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_row(&shm);

    // Transport-isolated link floods: same payload, no protocol on top.
    let link_secs = args.secs.min(2.0);
    let link_old = match run_link("link_per_datagram", LinkMode::UdpUnbatched, link_secs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("packet_path: {e}");
            return ExitCode::FAILURE;
        }
    };
    let link_new = match run_link("link_batched", LinkMode::UdpBatched, link_secs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("packet_path: {e}");
            return ExitCode::FAILURE;
        }
    };
    let link_shm = match run_link("link_shm", LinkMode::Shm, link_secs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("packet_path: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in [&link_old, &link_new, &link_shm] {
        println!(
            "{:>17}  {:>12.0} dgrams/s  {:>7.4} syscalls/dgram",
            r.label,
            r.datagrams_per_sec(),
            r.syscalls_per_datagram(),
        );
    }

    let shm_speedup = if batched.datagrams_per_sec() > 0.0 {
        shm.datagrams_per_sec() / batched.datagrams_per_sec()
    } else {
        0.0
    };
    let link_shm_speedup = if link_new.datagrams_per_sec() > 0.0 {
        link_shm.datagrams_per_sec() / link_new.datagrams_per_sec()
    } else {
        0.0
    };
    println!(
        "shm speedup: {shm_speedup:.2}x datagrams/sec over batched udp \
         ({:.4} -> {:.4} syscalls/datagram, {:.0} datagrams/doorbell wakeup, \
         {} ring-full drops)",
        batched.syscalls_per_datagram(),
        shm.syscalls_per_datagram(),
        shm.shm.datagrams_per_wakeup(),
        shm.shm.ring_full_drops,
    );
    println!(
        "link shm speedup: {link_shm_speedup:.2}x datagrams/sec over batched udp \
         ({:.4} -> {:.4} syscalls/datagram, transport isolated)",
        link_new.syscalls_per_datagram(),
        link_shm.syscalls_per_datagram(),
    );

    let json = format!(
        "{{\n  \"bench\": \"packet_path\",\n  \"nodes\": {},\n  \"window\": {},\n  \
         \"payload_len\": {},\n  \
         \"measure_secs\": {:.1},\n  \"batched\": {},\n  \"shm\": {},\n  \
         \"link_per_datagram\": {},\n  \"link_batched\": {},\n  \"link_shm\": {},\n  \
         \"speedup_shm_vs_batched\": {:.3},\n  \
         \"link_speedup_shm_vs_batched\": {:.3}\n}}\n",
        args.nodes,
        args.window,
        PAYLOAD_LEN,
        args.secs,
        batched.json(),
        shm.json(),
        link_old.json(),
        link_new.json(),
        link_shm.json(),
        shm_speedup,
        link_shm_speedup,
    );
    if let Err(e) = std::fs::write("BENCH_packet_path.json", &json) {
        eprintln!("packet_path: writing BENCH_packet_path.json: {e}");
        return ExitCode::FAILURE;
    }

    // CI smoke gate: a decode error means the zero-copy parse corrupted
    // the wire; a leaked lease means a pooled buffer never came home.
    let mut failed = false;
    for r in [&batched, &shm] {
        if r.decode_failures > 0 {
            eprintln!(
                "packet_path: {} path saw {} wire decode errors",
                r.label, r.decode_failures
            );
            failed = true;
        }
        if r.pool_outstanding > 0 {
            eprintln!(
                "packet_path: {} path leaked {} pooled buffers",
                r.label, r.pool_outstanding
            );
            failed = true;
        }
    }
    // The shm packet path must be syscall-free: the link flood never
    // sleeps, so a single syscall means the ring fell back to the kernel.
    if link_shm.syscalls != 0 {
        eprintln!(
            "packet_path: shm link flood issued {} syscalls (expected 0)",
            link_shm.syscalls
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("packet_path: clean (no decode errors, no pool leaks, syscall-free shm path)");
    ExitCode::SUCCESS
}
