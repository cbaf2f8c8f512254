//! `session_fanout`: 1 ring × 3 daemons over UDP. One sender socket holds
//! a session on every daemon and multicasts [`PAYLOAD`]-byte messages to
//! group `fan` at [`RATE`]/s, open loop; one receiver socket carries
//! [`WATCHERS`] watcher sessions spread over the daemons.

use std::time::{Duration, Instant};

use accelring_daemon::{ClientEvent, GroupAction};
use accelring_transport::Transport;
use bytes::Bytes;

use crate::deploy::{bring_up, Deployment, Layout, NODES};
use crate::raw::RawSessions;
use crate::stats::{ratio, Rng, Span, Timing};
use crate::{common, observe, span_us, timed_up, Args, Outcome, Spec, Window, DRAIN};

const GROUP: &str = "fan";
const LAYOUT: Layout = Layout {
    rings: 1,
    transport: Transport::Udp,
    groups: &[(GROUP, 0)],
    kv_partitions: 0,
};
const WATCHERS: usize = 8;
/// Messages per second, all senders together.
const RATE: u64 = 2_000;
const PAYLOAD: usize = 64;

pub const SPEC: Spec = Spec {
    name: "session_fanout",
    phase: run,
    group: GROUP,
    payload: PAYLOAD,
};

struct Clients {
    senders: RawSessions,
    watchers: RawSessions,
}

fn up(seed: u64) -> Result<(Deployment, Clients), String> {
    let d = bring_up(&LAYOUT)?;
    let senders: Vec<_> = (0..NODES as usize)
        .map(|i| (d.session_addr(i), format!("fan-src-{i}")))
        .collect();
    let watchers: Vec<_> = (0..WATCHERS)
        .map(|w| (d.session_addr(w % NODES as usize), format!("fan-w{w}")))
        .collect();
    let senders = RawSessions::open(&senders, seed).map_err(|e| format!("senders: {e}"))?;
    let mut watchers =
        RawSessions::open(&watchers, seed ^ 0x5a5a).map_err(|e| format!("watchers: {e}"))?;
    for w in 0..WATCHERS {
        watchers
            .submit(
                w,
                GroupAction::Join {
                    group: GROUP.to_string(),
                },
            )
            .map_err(|e| format!("join: {e}"))?;
    }
    // Joined once every watcher has seen the full membership view.
    let mut complete = [false; WATCHERS];
    let deadline = Instant::now() + Duration::from_secs(10);
    while !complete.iter().all(|&c| c) {
        if Instant::now() >= deadline {
            return Err("watchers never saw the full view".to_string());
        }
        let mut ignore = 0;
        if let Ok(Some((w, ClientEvent::View { members, .. }))) =
            watchers.recv(Duration::from_millis(20), &mut ignore)
        {
            complete[w] |= members.len() == WATCHERS;
        }
    }
    Ok((d, Clients { senders, watchers }))
}

/// The open-loop schedule: message `k` is due `k / RATE` after the start.
fn due(win: &Window, k: u64) -> Instant {
    win.start + Duration::from_nanos(k * 1_000_000_000 / RATE)
}

#[derive(Default)]
struct Sent {
    late_ms: Vec<f64>,
    submit_ns: Vec<u64>,
    errors: u64,
}

fn send(senders: &mut RawSessions, filler: &[u8], win: &Window, n: u64) -> Sent {
    let mut r = Sent::default();
    for k in 0..n {
        let at = due(win, k);
        crate::sleep_until(at);
        let now = Instant::now();
        if win.measured(at) {
            r.late_ms.push((now - at).as_secs_f64() * 1e3);
        }
        let mut payload = filler.to_vec();
        payload[..8].copy_from_slice(&k.to_le_bytes());
        let action = GroupAction::Data {
            groups: vec![GROUP.to_string()],
            payload: Bytes::from(payload),
        };
        let t = Instant::now();
        if senders.submit(k as usize % NODES as usize, action).is_err() {
            r.errors += 1;
        }
        if win.traced(t) {
            r.submit_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    r
}

#[derive(Default)]
struct Watched {
    /// Delivered message numbers, per watcher, in delivery order.
    order: Vec<Vec<u64>>,
    /// When each message reached its last watcher so far.
    last_at: Vec<Option<Instant>>,
    lat_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    decode_ns: Vec<u64>,
    fifo: u64,
    corrupt: u64,
    disconnected: u64,
}

fn watch(watchers: &mut RawSessions, filler: &[u8], win: &Window, n: u64) -> Watched {
    let mut r = Watched {
        order: (0..WATCHERS)
            .map(|_| Vec::with_capacity(n as usize))
            .collect(),
        last_at: vec![None; n as usize],
        ..Watched::default()
    };
    let mut last_seq = [[0u64; NODES as usize]; WATCHERS];
    let stop = win.end + DRAIN;
    loop {
        let now = Instant::now();
        let done = r.order.iter().all(|o| o.len() as u64 >= n);
        if now >= stop || (now >= win.end && done) {
            return r;
        }
        let mut decode_ns = 0;
        let Ok(got) = watchers.recv(Duration::from_millis(20), &mut decode_ns) else {
            r.disconnected += 1;
            return r;
        };
        let at = Instant::now();
        match got {
            Some((
                w,
                ClientEvent::Message {
                    sender,
                    seq,
                    payload,
                    ..
                },
            )) => {
                if win.traced(at) {
                    r.decode_ns.push(decode_ns);
                }
                let src = sender
                    .name
                    .strip_prefix("fan-src-")
                    .and_then(|i| i.parse::<usize>().ok())
                    .filter(|&i| i < NODES as usize);
                let valid = payload.len() == PAYLOAD && payload[8..] == filler[8..];
                let (Some(src), true) = (src, valid) else {
                    r.corrupt += 1;
                    continue;
                };
                if seq <= last_seq[w][src] {
                    r.fifo += 1;
                }
                last_seq[w][src] = seq;
                let k = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                r.order[w].push(k);
                if let Some(last) = r.last_at.get_mut(k as usize) {
                    *last = Some(at);
                }
                let due_at = due(win, k);
                if win.measured(due_at) {
                    let ms = (at - due_at).as_secs_f64() * 1e3;
                    r.lat_ms.push(ms);
                    if win.traced(due_at) {
                        r.traced_ms.push(ms);
                    } else {
                        r.untraced_ms.push(ms);
                    }
                }
            }
            Some((_, ClientEvent::Disconnected { .. })) => {
                r.disconnected += 1;
                return r;
            }
            _ => {}
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let filler = Rng::new(args.seed).bytes(PAYLOAD);
    let (d, mut clients, bring) = timed_up(|| up(args.seed))?;
    let win = Window::open(args);
    // Every message due before the window closes is sent.
    let n = ((win.end - win.start).as_nanos() as u64 * RATE).div_ceil(1_000_000_000);
    let (sent, watched, obs) = std::thread::scope(|s| {
        let (filler, win) = (&filler, &win);
        let Clients { senders, watchers } = &mut clients;
        let tx = s.spawn(move || send(senders, filler, win, n));
        let rx = s.spawn(move || watch(watchers, filler, win, n));
        let obs = observe(&d, win);
        (
            tx.join().expect("sender thread"),
            rx.join().expect("watcher thread"),
            obs,
        )
    });
    clients.senders.bye();
    clients.watchers.bye();
    let teardown = d.teardown();

    let mut o = Outcome {
        attempted: n * WATCHERS as u64,
        ..Outcome::default()
    };
    let in_window = (0..n).filter(|&k| win.measured(due(&win, k))).count() as f64;
    let lat = Timing::of(watched.lat_ms.clone());
    // Distinct messages of the window that reached every watcher.
    let mut reached = vec![0usize; n as usize];
    let mut lost = 0;
    let mut doubled = 0;
    for order in &watched.order {
        let mut seen = vec![false; n as usize];
        for &k in order {
            match seen.get_mut(k as usize) {
                Some(s) if !*s => *s = true,
                Some(_) => doubled += 1,
                // A number never sent is counted as corrupt below.
                None => {}
            }
        }
        for (k, s) in seen.iter().enumerate() {
            if *s {
                reached[k] += 1;
            } else {
                lost += 1;
            }
        }
    }
    let mut everywhere = Span::default();
    for (&at, &watchers) in watched.last_at.iter().zip(&reached) {
        match at {
            Some(t) if watchers == WATCHERS && win.measured(t) => everywhere.add(t),
            _ => {}
        }
    }
    o.set("order_msgs_per_s", everywhere.per_sec());
    o.set("latency_p50_ms", lat.p50);
    o.set("latency_p90_ms", lat.p90);
    o.set("deliver_p50_ms", lat.p50);
    o.set("deliver_p99_ms", lat.tail);
    common(&mut o, &bring, &obs, &teardown, in_window, in_window);
    let diverged = watched
        .order
        .iter()
        .filter(|w| **w != watched.order[0])
        .count();
    let out_of_range: u64 = watched.order.iter().flatten().filter(|&&k| k >= n).count() as u64;
    o.violate("events lost", lost);
    o.violate("events delivered twice", doubled);
    o.violate("watchers whose delivered order differs", diverged as u64);
    o.violate("FIFO violations", watched.fifo);
    o.violate("corrupted payloads", watched.corrupt + out_of_range);
    o.violate("watcher disconnected", watched.disconnected);
    o.violate("submit send errors", sent.errors);

    let late = Timing::of(sent.late_ms.clone());
    o.set("gen_late_p99_ms", late.tail);
    o.note(format!(
        "deliver: {}",
        Timing::describe(&watched.lat_ms, "ms")
    ));
    o.note(format!(
        "generator lateness: {}",
        Timing::describe(&sent.late_ms, "ms")
    ));
    o.set("multiring.ring_share_min", 1.0);
    o.set("multiring.ring0_p50_ms", lat.p50);
    let on = Timing::of(watched.traced_ms.clone()).p50;
    let off = Timing::of(watched.untraced_ms.clone()).p50;
    o.set("trace.overhead_pct", ratio(on - off, off) * 100.0);
    o.set("span.submit_call_us", span_us(&sent.submit_ns));
    o.set("span.decode_us", span_us(&watched.decode_ns));
    Ok(o)
}
