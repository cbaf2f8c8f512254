//! Session-frontend scaling benchmark: one reactor daemon serving
//! thousands of remote UDP sessions through the framed session protocol,
//! measured open-loop.
//!
//! ```text
//! cargo run --release --bin session_scaling -- --out BENCH_sessions.json
//! cargo run --release --bin session_scaling -- --sessions 1000 --secs 2
//! ```
//!
//! For each point of the session-count grid (default 1k/10k/100k) the
//! bench stands up a single-node ring with the session socket enabled,
//! opens N sessions multiplexed over a fixed fleet of client sockets
//! (sessions are routed by id, not source address — that is what makes
//! 100k sessions over 64 sockets possible), subscribes a small set of
//! watcher sessions to one group, and drives submits from the remaining
//! sessions at a fixed aggregate rate regardless of completions
//! (open-loop, so queueing delay is not hidden by back-pressure).
//! Reports submit→delivery p50/p99, delivered events/sec, shed rate,
//! reactor syscalls/wakeup, peak sessions, and process RSS, then prints
//! the whole run as JSON, which it writes to `--out PATH` when given (the
//! first command regenerates the committed record).
//!
//! Honors `ACCELRING_BENCH_QUALITY` (`quick`/`full`) for the measurement
//! window and rate. `--max-p99-ms` / `--max-shed-rate` turn the run into
//! a CI gate that exits non-zero on regression; pooled-buffer leaks after
//! teardown always fail.

use std::net::{SocketAddr, UdpSocket};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use accelring_bench::{percentile, Quality};
use accelring_core::{ParticipantId, ProtocolConfig, Service};
use accelring_daemon::proto::{decode_event_body, decode_session_frame, encode_session_frame};
use accelring_daemon::{ClientEvent, FrontendOptions, GroupAction, SessionFrame};
use accelring_membership::MembershipConfig;
use accelring_multiring::{MultiRingDaemon, MultiRingOptions, ShardMap};
use accelring_transport::{bind_with_retry, AddressBook, NodeAddr};
use bytes::Bytes;

/// Client sockets the sessions multiplex over (watchers get one each,
/// senders share the rest).
const SOCKETS: usize = 64;
/// Sessions subscribed to the bench group; every delivery fans out to
/// all of them, so delivered events/sec = WATCHERS × submit rate.
const WATCHERS: usize = 8;
/// The group all traffic targets. Senders are *not* members: open-group
/// semantics keep the fan-out fixed while the session count scales.
const GROUP: &str = "bench";
/// Credits granted back per CREDIT frame, matching the client refresh
/// cadence in `accelring_daemon::frontend`.
const CREDIT_CHUNK: u32 = 64;
/// How long to wait for the ring, handshakes, and views to settle.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

struct Args {
    grid: Vec<usize>,
    secs: f64,
    rate: u64,
    max_p99_ms: Option<f64>,
    max_shed_rate: Option<f64>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (secs, rate) = match Quality::from_env() {
        Quality::Quick => (2.0, 1_000),
        Quality::Full => (5.0, 2_000),
    };
    let mut args = Args {
        grid: vec![1_000, 10_000, 100_000],
        secs,
        rate,
        max_p99_ms: None,
        max_shed_rate: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--sessions" => {
                let n: usize = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?;
                args.grid = vec![n];
            }
            "--secs" => {
                args.secs = value("--secs")?
                    .parse()
                    .map_err(|e| format!("--secs: {e}"))?;
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--max-p99-ms" => {
                args.max_p99_ms = Some(
                    value("--max-p99-ms")?
                        .parse()
                        .map_err(|e| format!("--max-p99-ms: {e}"))?,
                );
            }
            "--max-shed-rate" => {
                args.max_shed_rate = Some(
                    value("--max-shed-rate")?
                        .parse()
                        .map_err(|e| format!("--max-shed-rate: {e}"))?,
                );
            }
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.grid.iter().any(|&n| n < 2 * WATCHERS) {
        return Err(format!("--sessions: need at least {}", 2 * WATCHERS));
    }
    Ok(args)
}

/// Resident set size of this process in MiB, from `/proc/self/status`
/// (0.0 where unavailable).
fn rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// One handshaken session: its id and the socket index it lives on.
struct SessionSlot {
    id: u64,
    socket: usize,
}

/// Sends HELLO and waits for the matching WELCOME (by nonce), retrying
/// on timeout. The socket may not carry any other inbound traffic yet.
fn handshake(
    socket: &UdpSocket,
    daemon: SocketAddr,
    name: &str,
    nonce: u64,
) -> Result<u64, String> {
    let hello = encode_session_frame(&SessionFrame::Hello {
        name: name.to_string(),
        resume_seq: 0,
        nonce,
    });
    let mut buf = [0u8; 2048];
    for _ in 0..10 {
        socket
            .send_to(&hello, daemon)
            .map_err(|e| format!("hello send: {e}"))?;
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            match socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    let mut bytes = Bytes::copy_from_slice(&buf[..len]);
                    match decode_session_frame(&mut bytes) {
                        Ok(SessionFrame::Welcome {
                            session, nonce: n, ..
                        }) if n == nonce => return Ok(session),
                        Ok(SessionFrame::Error { reason, .. }) => {
                            return Err(format!("daemon refused {name}: {reason}"))
                        }
                        _ => {}
                    }
                }
                Err(_) => break,
            }
        }
    }
    Err(format!("no WELCOME for {name}"))
}

fn submit(socket: &UdpSocket, daemon: SocketAddr, session: u64, action: GroupAction) {
    let frame = encode_session_frame(&SessionFrame::Submit {
        session,
        seq: 0,
        service: Service::Agreed,
        action,
    });
    let _ = socket.send_to(&frame, daemon);
}

/// One grid point's measured numbers.
struct PointResult {
    sessions: usize,
    connect_secs: f64,
    p50_us: f64,
    p99_us: f64,
    events_per_sec: f64,
    submits_sent: u64,
    events_delivered: u64,
    shed_rate: f64,
    shed_slow: u64,
    shed_budget: u64,
    shed_race: u64,
    syscalls_per_wakeup: f64,
    sessions_peak: u64,
    rss_mib: f64,
    pool_outstanding: u64,
}

impl PointResult {
    fn json(&self) -> String {
        format!(
            "{{\"sessions\": {}, \"connect_secs\": {:.3}, \"submit_p50_us\": {:.1}, \
             \"submit_p99_us\": {:.1}, \"events_per_sec\": {:.1}, \"submits_sent\": {}, \
             \"events_delivered\": {}, \"shed_rate\": {:.6}, \"shed_slow\": {}, \
             \"shed_budget\": {}, \"shed_race\": {}, \"syscalls_per_wakeup\": {:.3}, \
             \"sessions_peak\": {}, \"rss_mib\": {:.1}, \"pool_outstanding\": {}}}",
            self.sessions,
            self.connect_secs,
            self.p50_us,
            self.p99_us,
            self.events_per_sec,
            self.submits_sent,
            self.events_delivered,
            self.shed_rate,
            self.shed_slow,
            self.shed_budget,
            self.shed_race,
            self.syscalls_per_wakeup,
            self.sessions_peak,
            self.rss_mib,
            self.pool_outstanding,
        )
    }
}

fn run_point(n: usize, args: &Args) -> Result<PointResult, String> {
    // A single-node ring is all the ordering machinery the frontend
    // needs; the bench isolates the session layer, not the token path.
    let bound =
        bind_with_retry(ParticipantId::new(0), "127.0.0.1").map_err(|e| format!("bind: {e}"))?;
    let addrs: Vec<NodeAddr> = vec![bound.addr().map_err(|e| format!("addr: {e}"))?];
    let handle = bound
        .start(
            AddressBook::new(addrs),
            ProtocolConfig::accelerated(20, 15),
            MembershipConfig::for_wall_clock(),
        )
        .map_err(|e| format!("start node: {e}"))?;
    let daemon = MultiRingDaemon::start_with(
        vec![handle],
        ShardMap::new(1),
        MultiRingOptions {
            frontend: FrontendOptions::enabled(),
            ..MultiRingOptions::default()
        },
    );
    let probe = daemon.transport_probes().remove(0);
    let daemon_addr = daemon.session_addr().expect("session socket");

    let sockets: Vec<UdpSocket> = (0..SOCKETS)
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("client bind: {e}"))?;
            s.set_read_timeout(Some(Duration::from_millis(50)))
                .map_err(|e| format!("timeout: {e}"))?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;

    // Handshake every session, SOCKETS-way parallel. Watchers take
    // sockets [0, WATCHERS); senders round-robin over the rest.
    let connect_start = Instant::now();
    let slots: Vec<SessionSlot> = std::thread::scope(|s| {
        let mut tasks = Vec::new();
        for (k, socket) in sockets.iter().enumerate() {
            tasks.push(s.spawn(move || -> Result<Vec<SessionSlot>, String> {
                let mut out = Vec::new();
                let mut i = k;
                while i < n {
                    // Watcher sessions live 1:1 on the first sockets;
                    // every other session hashes onto the sender pool.
                    let on_this_socket = if i < WATCHERS {
                        i == k
                    } else {
                        k >= WATCHERS && (i - WATCHERS) % (SOCKETS - WATCHERS) == k - WATCHERS
                    };
                    if on_this_socket {
                        let name = format!("s{i}");
                        let nonce = 0x5e55_0000_0000 + i as u64;
                        let id = handshake(socket, daemon_addr, &name, nonce)?;
                        out.push(SessionSlot { id, socket: k });
                    }
                    i += 1;
                }
                Ok(out)
            }));
        }
        let mut all: Vec<SessionSlot> = Vec::with_capacity(n);
        for t in tasks {
            all.extend(t.join().expect("handshake thread")?);
        }
        Ok::<_, String>(all)
    })?;
    let connect_secs = connect_start.elapsed().as_secs_f64();
    if slots.len() != n {
        return Err(format!("handshook {} of {n} sessions", slots.len()));
    }
    // Watchers are the sessions on the dedicated sockets.
    let watchers: Vec<&SessionSlot> = slots.iter().filter(|s| s.socket < WATCHERS).collect();
    let senders: Vec<&SessionSlot> = slots.iter().filter(|s| s.socket >= WATCHERS).collect();

    // Subscribe the watchers and wait until each sees the full view.
    for w in &watchers {
        submit(
            &sockets[w.socket],
            daemon_addr,
            w.id,
            GroupAction::Join {
                group: GROUP.to_string(),
            },
        );
    }
    for w in &watchers {
        let socket = &sockets[w.socket];
        let deadline = Instant::now() + SETTLE_TIMEOUT;
        let mut buf = [0u8; 65_536];
        let mut seen = false;
        while !seen {
            if Instant::now() > deadline {
                return Err("watcher never saw the full view".to_string());
            }
            let Ok((len, _)) = socket.recv_from(&mut buf) else {
                continue;
            };
            let mut bytes = Bytes::copy_from_slice(&buf[..len]);
            if let Ok(SessionFrame::Event { mut body, .. }) = decode_session_frame(&mut bytes) {
                if let Ok(ClientEvent::View { group, members }) = decode_event_body(&mut body) {
                    seen = group == GROUP && members.len() == watchers.len();
                }
            }
        }
    }

    // Measurement: senders submit open-loop at the aggregate rate;
    // watcher threads drain EVENT frames, timestamp latency, and grant
    // credits back. Timestamps ride in the payload as nanoseconds since
    // a shared epoch, so one clock covers both ends.
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let submits_sent = AtomicU64::new(0);
    let events_delivered = AtomicU64::new(0);
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let stats_start = daemon.frontend_stats();
    let measure = Duration::from_secs_f64(args.secs);

    std::thread::scope(|s| {
        let sender_threads = SOCKETS - WATCHERS;
        for t in 0..sender_threads {
            let my: Vec<&SessionSlot> = senders
                .iter()
                .filter(|sl| sl.socket == WATCHERS + t)
                .copied()
                .collect();
            if my.is_empty() {
                continue;
            }
            let socket = &sockets[WATCHERS + t];
            let stop = &stop;
            let submits_sent = &submits_sent;
            let rate = args.rate as f64 / sender_threads as f64;
            s.spawn(move || {
                let interval = Duration::from_secs_f64(1.0 / rate);
                let start = Instant::now();
                let mut i: u64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    let due = start + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    let slot = my[(i as usize) % my.len()];
                    let nanos = epoch.elapsed().as_nanos() as u64;
                    submit(
                        socket,
                        daemon_addr,
                        slot.id,
                        GroupAction::Data {
                            groups: vec![GROUP.to_string()],
                            payload: Bytes::from(nanos.to_le_bytes().to_vec()),
                        },
                    );
                    submits_sent.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        for w in &watchers {
            let socket = &sockets[w.socket];
            let id = w.id;
            let stop = &stop;
            let events_delivered = &events_delivered;
            let samples = &samples;
            let epoch = &epoch;
            s.spawn(move || {
                let mut buf = [0u8; 65_536];
                let mut local: Vec<u64> = Vec::new();
                let mut since_credit: u32 = 0;
                loop {
                    match socket.recv_from(&mut buf) {
                        Ok((len, _)) => {
                            let mut bytes = Bytes::copy_from_slice(&buf[..len]);
                            if let Ok(SessionFrame::Event { mut body, .. }) =
                                decode_session_frame(&mut bytes)
                            {
                                if let Ok(ClientEvent::Message { payload, .. }) =
                                    decode_event_body(&mut body)
                                {
                                    if payload.len() == 8 {
                                        let sent =
                                            u64::from_le_bytes(payload[..8].try_into().unwrap());
                                        let now = epoch.elapsed().as_nanos() as u64;
                                        local.push(now.saturating_sub(sent));
                                    }
                                    events_delivered.fetch_add(1, Ordering::Relaxed);
                                }
                                since_credit += 1;
                                if since_credit >= CREDIT_CHUNK {
                                    since_credit = 0;
                                    let frame = encode_session_frame(&SessionFrame::Credit {
                                        session: id,
                                        credits: CREDIT_CHUNK,
                                    });
                                    let _ = socket.send_to(&frame, daemon_addr);
                                }
                            }
                        }
                        Err(_) => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                    }
                }
                samples.lock().expect("samples").extend(local);
            });
        }

        std::thread::sleep(measure);
        stop.store(true, Ordering::Relaxed);
    });
    // Let in-flight deliveries land before reading the counters.
    std::thread::sleep(Duration::from_millis(300));

    let stats_end = daemon.frontend_stats();
    let rss = rss_mib();
    let mut lat: Vec<u64> = samples.into_inner().expect("samples");
    lat.sort_unstable();
    let lat: Vec<f64> = lat.into_iter().map(|ns| ns as f64).collect();

    let enqueued = stats_end.events_enqueued - stats_start.events_enqueued;
    let shed = stats_end.events_shed() - stats_start.events_shed();
    let shed_rate = if enqueued + shed > 0 {
        shed as f64 / (enqueued + shed) as f64
    } else {
        0.0
    };
    let d_wakeups = stats_end.wakeups - stats_start.wakeups;
    let d_syscalls = stats_end.syscalls - stats_start.syscalls;

    drop(daemon);
    // Every pooled transport buffer must come home after teardown.
    let leak_deadline = Instant::now() + Duration::from_secs(2);
    let mut outstanding = probe.pool_outstanding();
    while outstanding > 0 && Instant::now() < leak_deadline {
        std::thread::sleep(Duration::from_millis(10));
        outstanding = probe.pool_outstanding();
    }

    Ok(PointResult {
        sessions: n,
        connect_secs,
        p50_us: percentile(&lat, 0.50) / 1_000.0,
        p99_us: percentile(&lat, 0.99) / 1_000.0,
        events_per_sec: events_delivered.load(Ordering::Relaxed) as f64 / args.secs,
        submits_sent: submits_sent.load(Ordering::Relaxed),
        events_delivered: events_delivered.load(Ordering::Relaxed),
        shed_rate,
        shed_slow: stats_end.shed_slow_session - stats_start.shed_slow_session,
        shed_budget: stats_end.shed_global_budget - stats_start.shed_global_budget,
        shed_race: stats_end.shed_disconnect_race - stats_start.shed_disconnect_race,
        syscalls_per_wakeup: if d_wakeups > 0 {
            d_syscalls as f64 / d_wakeups as f64
        } else {
            0.0
        },
        sessions_peak: stats_end.sessions_peak,
        rss_mib: rss,
        pool_outstanding: outstanding,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("session_scaling: {e}");
            eprintln!(
                "usage: session_scaling [--sessions N] [--secs S] [--rate R] \
                 [--max-p99-ms F] [--max-shed-rate F]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# session_scaling: grid {:?}, {} watchers over {} sockets, {}/s open-loop, {:.1}s per point",
        args.grid, WATCHERS, SOCKETS, args.rate, args.secs
    );

    let mut points = Vec::new();
    for &n in &args.grid {
        match run_point(n, &args) {
            Ok(r) => {
                println!(
                    "{:>7} sessions  connect {:>6.2}s  p50 {:>8.0}us  p99 {:>8.0}us  \
                     {:>8.0} events/s  shed {:>6.4}  {:>6.2} syscalls/wakeup  rss {:>6.1} MiB",
                    r.sessions,
                    r.connect_secs,
                    r.p50_us,
                    r.p99_us,
                    r.events_per_sec,
                    r.shed_rate,
                    r.syscalls_per_wakeup,
                    r.rss_mib,
                );
                points.push(r);
            }
            Err(e) => {
                eprintln!("session_scaling: {n} sessions: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"session_scaling\",\n  \"watchers\": {},\n  \"sockets\": {},\n  \
         \"rate_per_sec\": {},\n  \"measure_secs\": {:.1},\n  \"points\": [\n    {}\n  ]\n}}\n",
        WATCHERS,
        SOCKETS,
        args.rate,
        args.secs,
        points
            .iter()
            .map(PointResult::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    print!("{json}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("session_scaling: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // CI gates: regression thresholds are opt-in, leak checks are not.
    let mut failed = false;
    for r in &points {
        if let Some(max) = args.max_p99_ms {
            if r.p99_us / 1_000.0 > max {
                eprintln!(
                    "session_scaling: {} sessions p99 {:.1}ms exceeds gate {max:.1}ms",
                    r.sessions,
                    r.p99_us / 1_000.0
                );
                failed = true;
            }
        }
        if let Some(max) = args.max_shed_rate {
            if r.shed_rate > max {
                eprintln!(
                    "session_scaling: {} sessions shed rate {:.4} exceeds gate {max:.4}",
                    r.sessions, r.shed_rate
                );
                failed = true;
            }
        }
        if r.pool_outstanding > 0 {
            eprintln!(
                "session_scaling: {} sessions leaked {} pooled buffers",
                r.sessions, r.pool_outstanding
            );
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("session_scaling: clean");
    ExitCode::SUCCESS
}
