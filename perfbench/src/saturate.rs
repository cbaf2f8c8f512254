//! `order_saturate`: 2 rings × 3 daemons over shared memory, one group per
//! ring. Two session clients on different daemons each join their own
//! ring's group and keep [`IN_FLIGHT`] multicasts of [`PAYLOAD`] bytes in
//! flight, closed loop, counting their own messages as they come back.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use accelring_core::Service;
use accelring_daemon::{ClientEvent, SessionClient};
use accelring_transport::Transport;
use bytes::Bytes;

use crate::deploy::{bring_up, Deployment, Layout};
use crate::stats::{ratio, Rng, Span, Timing};
use crate::{common, observe, span_us, timed_up, Args, Outcome, Spec, Window, DRAIN};

const GROUPS: [(&str, u16); 2] = [("sat0", 0), ("sat1", 1)];
const LAYOUT: Layout = Layout {
    rings: 2,
    transport: Transport::Shm,
    groups: &GROUPS,
    kv_partitions: 0,
};
/// Multicasts each client keeps outstanding.
const IN_FLIGHT: usize = 64;
/// The paper's message size.
const PAYLOAD: usize = 1350;

pub const SPEC: Spec = Spec {
    name: "order_saturate",
    phase: run,
    group: GROUPS[0].0,
    payload: PAYLOAD,
};

/// Blocks until `client` sees a view of `group` that includes itself.
fn await_own_view(client: &mut SessionClient, group: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match client.recv_event(Duration::from_millis(50)) {
            Ok(Some(ClientEvent::View { group: g, members }))
                if g == group && members.iter().any(|m| m.name == client.name()) =>
            {
                return Ok(());
            }
            Ok(_) => {}
            Err(e) => return Err(format!("{}: {e}", client.name())),
        }
    }
    Err(format!("{} never saw its view of {group}", client.name()))
}

fn up() -> Result<(Deployment, Vec<SessionClient>), String> {
    let d = bring_up(&LAYOUT)?;
    let mut clients = Vec::new();
    for (i, (group, _)) in GROUPS.iter().enumerate() {
        let mut c = SessionClient::connect(d.session_addr(i), &format!("sat-{i}"))
            .map_err(|e| format!("connect: {e}"))?;
        c.join(group).map_err(|e| format!("join: {e}"))?;
        await_own_view(&mut c, group)?;
        clients.push(c);
    }
    Ok((d, clients))
}

/// One client's view of the run.
#[derive(Default)]
struct Driven {
    sent: u64,
    /// Own messages back in the window.
    in_window: Span,
    /// Of those, how many arrived in traced and untraced slices.
    traced: u64,
    untraced: u64,
    lat_ms: Vec<f64>,
    submit_ns: Vec<u64>,
    out_of_order: u64,
    corrupt: u64,
    lost: u64,
    disconnected: bool,
}

fn drive(client: &mut SessionClient, group: &str, filler: &[u8], win: &Window) -> Driven {
    let mut r = Driven::default();
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::new();
    loop {
        let now = Instant::now();
        let sending = now < win.end;
        if !sending && (inflight.is_empty() || now >= win.end + DRAIN) {
            r.lost = inflight.len() as u64;
            return r;
        }
        while sending && inflight.len() < IN_FLIGHT {
            let seq = client.last_seq() + 1;
            let mut payload = filler.to_vec();
            payload[..8].copy_from_slice(&seq.to_le_bytes());
            let t = Instant::now();
            if client
                .multicast_sequenced(&[group], Bytes::from(payload), Service::Agreed)
                .is_err()
            {
                r.disconnected = true;
                return r;
            }
            if win.traced(t) {
                r.submit_ns.push(t.elapsed().as_nanos() as u64);
            }
            r.sent += 1;
            inflight.push_back((seq, t));
        }
        match client.recv_event(Duration::from_millis(100)) {
            Ok(Some(ClientEvent::Message {
                sender,
                seq,
                payload,
                ..
            })) if sender.name == client.name() => {
                let at = Instant::now();
                // Per-sender FIFO and exactly-once: the oldest message in
                // flight is the only one that may come back next.
                let Some(&(want, sent_at)) = inflight.front() else {
                    r.out_of_order += 1;
                    continue;
                };
                if seq != want {
                    r.out_of_order += 1;
                    continue;
                }
                inflight.pop_front();
                if payload.len() != PAYLOAD
                    || payload[..8] != seq.to_le_bytes()
                    || payload[8..] != filler[8..]
                {
                    r.corrupt += 1;
                }
                if win.measured(at) {
                    r.in_window.add(at);
                    r.lat_ms.push((at - sent_at).as_secs_f64() * 1e3);
                    if win.traced(at) {
                        r.traced += 1;
                    } else {
                        r.untraced += 1;
                    }
                }
            }
            Ok(Some(ClientEvent::Message { .. })) => r.out_of_order += 1,
            Ok(Some(ClientEvent::Disconnected { .. })) | Err(_) => {
                r.disconnected = true;
                return r;
            }
            Ok(_) => {}
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed);
    let filler = rng.bytes(PAYLOAD);
    let (d, mut clients, bring) = timed_up(up)?;
    let win = Window::open(args);
    let (driven, obs) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(GROUPS)
            .map(|(c, (group, _))| {
                let filler = &filler;
                let win = &win;
                s.spawn(move || drive(c, group, filler, win))
            })
            .collect();
        let obs = observe(&d, &win);
        let driven: Vec<Driven> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (driven, obs)
    });
    for c in clients {
        c.bye();
    }
    let teardown = d.teardown();

    let mut o = Outcome::default();
    let secs = win.secs();
    let mut in_window = Span::default();
    for r in &driven {
        in_window.merge(&r.in_window);
    }
    let lat: Vec<f64> = driven
        .iter()
        .flat_map(|r| r.lat_ms.iter().copied())
        .collect();
    let all = Timing::of(lat.clone());
    o.attempted = driven.iter().map(|r| r.sent).sum();
    o.set("order_msgs_per_s", in_window.per_sec());
    o.set("latency_p50_ms", all.p50);
    o.set("latency_p90_ms", all.p90);
    o.set("deliver_p50_ms", all.p50);
    o.set("deliver_p99_ms", all.tail);
    let ops = in_window.n as f64;
    common(&mut o, &bring, &obs, &teardown, ops, ops);
    for r in &driven {
        o.violate("messages lost", r.lost);
        o.violate("FIFO or exactly-once violations", r.out_of_order);
        o.violate("corrupted payloads", r.corrupt);
        o.violate("client disconnected", u64::from(r.disconnected));
    }

    let per_ring: Vec<Timing> = driven
        .iter()
        .map(|r| Timing::of(r.lat_ms.clone()))
        .collect();
    let counts: Vec<f64> = driven.iter().map(|r| r.in_window.n as f64).collect();
    o.set(
        "multiring.ring_share_min",
        ratio(counts[0].min(counts[1]), counts[0] + counts[1]),
    );
    o.set("multiring.ring0_p50_ms", per_ring[0].p50);
    o.set("multiring.ring1_p50_ms", per_ring[1].p50);
    o.set(
        "multiring.ring_skew_ms",
        (per_ring[0].p50 - per_ring[1].p50).abs(),
    );
    o.note(format!(
        "per ring: msgs/s {:.1} / {:.1}, deliver p50 {:.3} / {:.3} ms",
        counts[0] / secs,
        counts[1] / secs,
        per_ring[0].p50,
        per_ring[1].p50
    ));
    o.note(format!("deliver: {}", Timing::describe(&lat, "ms")));

    // Closed loop: tracing overhead is the throughput lost in traced
    // slices relative to untraced ones.
    let (on_secs, off_secs) = win.slice_secs();
    let on = ratio(driven.iter().map(|r| r.traced).sum::<u64>() as f64, on_secs);
    let off = ratio(
        driven.iter().map(|r| r.untraced).sum::<u64>() as f64,
        off_secs,
    );
    o.set("trace.overhead_pct", ratio(off - on, off) * 100.0);
    let spans: Vec<u64> = driven
        .iter()
        .flat_map(|r| r.submit_ns.iter().copied())
        .collect();
    o.set("span.submit_call_us", span_us(&spans));
    Ok(o)
}
