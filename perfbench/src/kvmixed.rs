//! `kv_mixed`: 2 rings × 3 daemons over UDP, 4 partitions, a replica on
//! every daemon. A writer session on daemon 0 submits [`WRITE_RATE`]
//! writes/s, open loop, every fourth a two-key transaction spanning both
//! rings; each write is timed to its commit record at replica 0. A reader
//! on daemon 1 issues [`READ_RATE`] local gets/s over `SVC_QUERY`.

use std::collections::{BTreeSet, HashMap};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use accelring_core::Service;
use accelring_daemon::proto::{decode_session_frame, encode_session_frame};
use accelring_daemon::{SessionClient, SessionFrame};
use accelring_kv::{
    decode_reply, encode_op, encode_query, involved_partitions, partition_of, KvApplied, KvMachine,
    KvOp, KvQuery, KvReply, KvWrite,
};
use accelring_transport::Transport;
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::deploy::{bring_up, Deployment, Layout};
use crate::stats::{ratio, Rng, Span, Timing};
use crate::{common, observe, span_us, timed_up, Args, Outcome, Spec, Window, DRAIN};

const PARTITIONS: u16 = 4;
const LAYOUT: Layout = Layout {
    rings: 2,
    transport: Transport::Udp,
    groups: &[],
    kv_partitions: PARTITIONS,
};
const KEYS: usize = 4_096;
const VALUE: usize = 100;
const WRITE_RATE: u64 = 500;
const READ_RATE: u64 = 1_000;
const WRITER: &str = "kv-writer";
const READER: &str = "kv-reader";

pub const SPEC: Spec = Spec {
    name: "kv_mixed",
    phase: run,
    group: "kv.0",
    payload: VALUE,
};
/// A read unanswered this long after the window is a timeout.
const READ_GRACE: Duration = Duration::from_secs(2);
/// An uncommitted write this old is resubmitted under its sequence.
const RESUBMIT_AFTER: Duration = Duration::from_secs(1);

/// The seeded key space and value filler.
struct Plan {
    keys: Vec<String>,
    /// Ring of each key's partition.
    ring: Vec<usize>,
    by_ring: [Vec<usize>; 2],
    filler: Vec<u8>,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let keys: Vec<String> = (0..KEYS)
            .map(|i| format!("key-{i:04}-{:08x}", rng.next_u64() as u32))
            .collect();
        let ring: Vec<usize> = keys
            .iter()
            .map(|k| {
                let part = partition_of(k, PARTITIONS);
                let p: usize = part["kv.".len()..].parse().expect("kv.<n>");
                p % LAYOUT.rings as usize
            })
            .collect();
        let mut by_ring = [Vec::new(), Vec::new()];
        for (i, r) in ring.iter().enumerate() {
            by_ring[*r].push(i);
        }
        Plan {
            keys,
            ring,
            by_ring,
            filler: rng.bytes(VALUE),
        }
    }

    /// The value write `c` stores under key `k`: both numbers up front,
    /// seeded filler after, so a read can name the write it saw.
    fn value(&self, c: u64, k: usize) -> Bytes {
        let mut v = format!("c{c:010}k{k:04}").into_bytes();
        v.extend_from_slice(&self.filler[v.len()..]);
        Bytes::from(v)
    }

    /// The keys of write `c`: every fourth spans both rings.
    fn keys_of(&self, c: u64, rng: &mut Rng) -> Vec<usize> {
        let a = rng.below(KEYS);
        if c % 4 == 3 {
            let other = &self.by_ring[1 - self.ring[a]];
            vec![a, other[rng.below(other.len())]]
        } else {
            vec![a]
        }
    }
}

struct Clients {
    writer: SessionClient,
    reader: UdpSocket,
    read_addr: SocketAddr,
}

fn up() -> Result<(Deployment, Clients), String> {
    let d = bring_up(&LAYOUT)?;
    let writer = SessionClient::connect(d.session_addr(0), WRITER)
        .map_err(|e| format!("writer connect: {e}"))?;
    let reader = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("reader socket: {e}"))?;
    let read_addr = d.session_addr(1);
    Ok((
        d,
        Clients {
            writer,
            reader,
            read_addr,
        },
    ))
}

fn due(win: &Window, i: u64, rate: u64) -> Instant {
    win.start + Duration::from_nanos(i * 1_000_000_000 / rate)
}

/// One submitted write.
struct WriteRec {
    due: Instant,
    keys: Vec<usize>,
    groups: Vec<String>,
    payload: Bytes,
}

#[derive(Default)]
struct Written {
    log: Vec<WriteRec>,
    /// Commit records of this writer at replica 0, in commit order.
    applied: Vec<(Instant, u64)>,
    late_ms: Vec<f64>,
    submit_ns: Vec<u64>,
    resubmitted: u64,
    errors: u64,
}

fn write(
    session: &mut SessionClient,
    applied: &Receiver<KvApplied>,
    plan: &Plan,
    win: &Window,
    n: u64,
    seed: u64,
) -> Written {
    let mut r = Written::default();
    let mut rng = Rng::new(seed ^ 0x77);
    let drain = |r: &mut Written, until: Instant| {
        let wait = until.saturating_duration_since(Instant::now());
        match applied.recv_timeout(wait) {
            Ok(rec) if rec.client == WRITER => r.applied.push((Instant::now(), rec.seq)),
            Ok(_) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => r.errors += 1,
        }
    };
    for c in 0..n {
        let at = due(win, c, WRITE_RATE);
        while Instant::now() < at {
            drain(&mut r, at);
        }
        if win.measured(at) {
            r.late_ms.push((Instant::now() - at).as_secs_f64() * 1e3);
        }
        let keys = plan.keys_of(c, &mut rng);
        let writes = keys
            .iter()
            .map(|&k| KvWrite::Put {
                key: plan.keys[k].clone(),
                value: plan.value(c, k),
            })
            .collect();
        let op = KvOp::Write { writes };
        let groups: Vec<String> = involved_partitions(&op, PARTITIONS).into_iter().collect();
        let refs: Vec<&str> = groups.iter().map(String::as_str).collect();
        let payload = encode_op(&op);
        let t = Instant::now();
        match session.multicast_sequenced(&refs, payload.clone(), Service::Agreed) {
            Ok(seq) if seq == c + 1 => {}
            _ => r.errors += 1,
        }
        if win.traced(t) {
            r.submit_ns.push(t.elapsed().as_nanos() as u64);
        }
        r.log.push(WriteRec {
            due: at,
            keys,
            groups,
            payload,
        });
    }
    // Drain until every write committed, resubmitting in-doubt ones
    // (exactly-once dedup makes a resubmit of a landed write free).
    let stop = win.end + DRAIN;
    let mut next_check = Instant::now();
    let mut seen = vec![false; n as usize];
    let mut counted = 0;
    while Instant::now() < stop {
        for &(_, seq) in &r.applied[counted..] {
            if let Some(s) = seq.checked_sub(1).and_then(|i| seen.get_mut(i as usize)) {
                *s = true;
            }
        }
        counted = r.applied.len();
        if seen.iter().all(|&s| s) {
            break;
        }
        if Instant::now() >= next_check {
            for (i, w) in r.log.iter().enumerate() {
                if !seen[i] && w.due.elapsed() >= RESUBMIT_AFTER {
                    let refs: Vec<&str> = w.groups.iter().map(String::as_str).collect();
                    let seq = i as u64 + 1;
                    if session
                        .resubmit(seq, &refs, w.payload.clone(), Service::Agreed)
                        .is_ok()
                    {
                        r.resubmitted += 1;
                    }
                }
            }
            next_check = Instant::now() + RESUBMIT_AFTER;
        }
        drain(&mut r, Instant::now() + Duration::from_millis(50));
    }
    r
}

#[derive(Default)]
struct Reads {
    /// `(key, value)` of every answered read.
    answers: Vec<(usize, Option<Bytes>)>,
    lat_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_ns: Vec<u64>,
    decode_ns: Vec<u64>,
    in_window: u64,
    timeouts: u64,
    bad_replies: u64,
}

fn read(sock: &UdpSocket, addr: SocketAddr, plan: &Plan, win: &Window, n: u64, seed: u64) -> Reads {
    let mut r = Reads::default();
    let mut rng = Rng::new(seed ^ 0x99);
    // Nonce j + 1 identifies read j.
    let mut pending: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0u64;
    let stop = win.end + READ_GRACE;
    loop {
        let now = Instant::now();
        if next < n && now >= due(win, next, READ_RATE) {
            let at = due(win, next, READ_RATE);
            let key = rng.below(KEYS);
            if win.measured(at) {
                r.late_ms.push((now - at).as_secs_f64() * 1e3);
                r.in_window += 1;
            }
            let t = Instant::now();
            let frame = SessionFrame::SvcQuery {
                nonce: next + 1,
                body: encode_query(&KvQuery::Get {
                    key: plan.keys[key].clone(),
                    client: READER.to_string(),
                    min_seq: 0,
                }),
            };
            if sock.send_to(&encode_session_frame(&frame), addr).is_err() {
                r.bad_replies += 1;
            }
            if win.traced(t) {
                r.submit_ns.push(t.elapsed().as_nanos() as u64);
            }
            pending.insert(next + 1, (at, key));
            next += 1;
            continue;
        }
        if next >= n && (pending.is_empty() || now >= stop) {
            r.timeouts = pending.len() as u64;
            return r;
        }
        let wake = if next < n {
            due(win, next, READ_RATE)
        } else {
            now + Duration::from_millis(20)
        };
        let wait = wake
            .saturating_duration_since(now)
            .max(Duration::from_micros(20));
        if sock.set_read_timeout(Some(wait)).is_err() {
            continue;
        }
        let Ok((len, _)) = sock.recv_from(&mut buf) else {
            continue;
        };
        let got = Instant::now();
        let mut datagram = Bytes::copy_from_slice(&buf[..len]);
        let reply = match decode_session_frame(&mut datagram) {
            Ok(SessionFrame::SvcReply { nonce, body }) => Some((nonce, decode_reply(&body))),
            _ => None,
        };
        if win.traced(got) {
            r.decode_ns.push(got.elapsed().as_nanos() as u64);
        }
        let Some((nonce, Some(KvReply::Value { found, value, .. }))) = reply else {
            r.bad_replies += 1;
            continue;
        };
        let Some((at, key)) = pending.remove(&nonce) else {
            r.bad_replies += 1;
            continue;
        };
        r.answers.push((key, found.then_some(value)));
        if win.measured(at) {
            let ms = (got - at).as_secs_f64() * 1e3;
            r.lat_ms.push(ms);
            if win.traced(at) {
                r.traced_ms.push(ms);
            } else {
                r.untraced_ms.push(ms);
            }
        }
    }
}

/// Replays the writes into a fresh [`KvMachine`] as the replicas saw
/// them, returning the microseconds each op's fragments took to ingest
/// and the final state hash. Commit records give the merged commit order;
/// a transaction's fragment on a ring is delivered no later than the next
/// higher-sequence op on that ring (per-ring FIFO), and its last fragment
/// lands at its commit.
fn replay(plan: &Plan, log: &[WriteRec], commits: &[(Instant, usize)]) -> (Vec<f64>, u64) {
    let ring_of_group = |g: &str| -> usize {
        let p: usize = g["kv.".len()..].parse().expect("kv.<n>");
        p % LAYOUT.rings as usize
    };
    // Transaction fragments not yet delivered, per ring, by write index.
    let mut undelivered: [BTreeSet<usize>; 2] = [BTreeSet::new(), BTreeSet::new()];
    for &(_, c) in commits {
        if log[c].keys.len() > 1 {
            for g in &log[c].groups {
                undelivered[ring_of_group(g)].insert(c);
            }
        }
    }
    let mut machine = KvMachine::new(PARTITIONS);
    let mut spent = vec![0.0f64; log.len()];
    let mut deliver = |machine: &mut KvMachine, c: usize, ring: usize| {
        for g in log[c].groups.iter().filter(|g| ring_of_group(g) == ring) {
            let t = Instant::now();
            machine.ingest(
                WRITER,
                c as u64 + 1,
                std::slice::from_ref(g),
                &log[c].payload,
            );
            spent[c] += t.elapsed().as_secs_f64() * 1e6;
        }
    };
    for &(_, c) in commits {
        let rings: BTreeSet<usize> = log[c].keys.iter().map(|&k| plan.ring[k]).collect();
        for &r in &rings {
            let earlier: Vec<usize> = undelivered[r].range(..c).copied().collect();
            for e in earlier {
                undelivered[r].remove(&e);
                deliver(&mut machine, e, r);
            }
            if log[c].keys.len() == 1 || undelivered[r].remove(&c) {
                deliver(&mut machine, c, r);
            }
        }
    }
    let per_op = commits.iter().map(|&(_, c)| spent[c]).collect();
    (per_op, machine.state_hash())
}

/// Waits until every replica sits at the same position for a while, then
/// returns whether their state hashes agree.
fn converged(d: &Deployment) -> (bool, Vec<u64>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let p: Vec<u64> = d.shareds.iter().map(|s| s.position()).collect();
        if p.iter().all(|&x| x == p[0]) {
            std::thread::sleep(Duration::from_millis(200));
            let q: Vec<u64> = d.shareds.iter().map(|s| s.position()).collect();
            if q == p {
                let h: Vec<u64> = d.shareds.iter().map(|s| s.state_hash()).collect();
                return (h.iter().all(|&x| x == h[0]), h);
            }
        } else {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    (false, Vec::new())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(args.seed);
    let (d, mut clients, bring) = timed_up(up)?;
    let applied = d.applied.clone().ok_or("the KV layout has replica 0")?;
    let win = Window::open(args);
    let span = (win.end - win.start).as_nanos() as u64;
    let n_writes = (span * WRITE_RATE).div_ceil(1_000_000_000);
    let n_reads = (span * READ_RATE).div_ceil(1_000_000_000);
    let (written, reads, obs) = std::thread::scope(|s| {
        let (plan, win, seed) = (&plan, &win, args.seed);
        let Clients {
            writer,
            reader,
            read_addr,
        } = &mut clients;
        let (reader, read_addr) = (&*reader, *read_addr);
        let applied = &applied;
        let w = s.spawn(move || write(writer, applied, plan, win, n_writes, seed));
        let r = s.spawn(move || read(reader, read_addr, plan, win, n_reads, seed));
        let obs = observe(&d, win);
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
            obs,
        )
    });
    let (hashes_equal, hashes) = converged(&d);
    let replica0 = d.shareds[0].state_hash();
    clients.writer.bye();
    drop(applied);
    let teardown = d.teardown();

    let mut o = Outcome {
        attempted: n_writes + n_reads,
        ..Outcome::default()
    };

    // Exactly-once at replica 0, and latency from each write's due time.
    let mut times = vec![0u32; n_writes as usize];
    let mut first: Vec<(Instant, usize)> = Vec::new();
    let mut foreign = 0;
    for &(at, seq) in &written.applied {
        match seq.checked_sub(1).and_then(|i| times.get_mut(i as usize)) {
            Some(t) => {
                *t += 1;
                if *t == 1 {
                    first.push((at, seq as usize - 1));
                }
            }
            None => foreign += 1,
        }
    }
    let lost = times.iter().filter(|&&t| t == 0).count() as u64;
    let doubled = times.iter().filter(|&&t| t > 1).count() as u64;
    let (mut all, mut txn, mut per_ring) = (Vec::new(), Vec::new(), [Vec::new(), Vec::new()]);
    let mut committed = Span::default();
    for &(at, c) in &first {
        let w = &written.log[c];
        if win.measured(at) {
            committed.add(at);
        }
        if !win.measured(w.due) {
            continue;
        }
        let ms = (at - w.due).as_secs_f64() * 1e3;
        all.push(ms);
        match w.keys[..] {
            [k] => per_ring[plan.ring[k]].push(ms),
            _ => txn.push(ms),
        }
    }

    // Replay the committed stream into a fresh machine: times the apply
    // step per op, and must land on replica 0's state.
    let (apply_us, replay_hash) = replay(&plan, &written.log, &first);
    let replay_matches = replay_hash == replica0;

    // Every local read returns absent or a value some write produced.
    let produced = |k: usize, v: &Bytes| -> bool {
        let c: Option<u64> = std::str::from_utf8(&v[..v.len().min(11)])
            .ok()
            .and_then(|s| s.strip_prefix('c'))
            .and_then(|s| s.parse().ok());
        c.and_then(|c| written.log.get(c as usize).map(|w| (c, w)))
            .is_some_and(|(c, w)| w.keys.contains(&k) && *v == plan.value(c, k))
    };
    let bad_values = reads
        .answers
        .iter()
        .filter(|(k, v)| v.as_ref().is_some_and(|v| !produced(*k, v)))
        .count() as u64;

    let writes_in_window = (0..n_writes)
        .filter(|&c| win.measured(due(&win, c, WRITE_RATE)))
        .count() as f64;
    let ops = writes_in_window + reads.in_window as f64;
    let write_t = Timing::of(all.clone());
    let read_t = Timing::of(reads.lat_ms.clone());
    o.set("order_msgs_per_s", committed.per_sec());
    o.set("latency_p50_ms", read_t.p50);
    o.set("latency_p90_ms", read_t.p90);
    common(&mut o, &bring, &obs, &teardown, ops, writes_in_window);
    o.violate("KV ops lost", lost);
    o.violate("KV ops applied twice", doubled);
    o.violate("commit records for unknown sequences", foreign);
    o.violate("replica state hashes differ", u64::from(!hashes_equal));
    o.violate(
        "replayed state differs from replica 0",
        u64::from(!replay_matches),
    );
    o.violate("reads returning a value no write produced", bad_values);
    o.violate("read timeouts", reads.timeouts);
    o.violate("unmatched or undecodable read replies", reads.bad_replies);
    o.violate("writer errors", written.errors);

    let ring_p50: Vec<f64> = per_ring.iter().map(|s| Timing::of(s.clone()).p50).collect();
    let txns = txn.len() as f64;
    let frags = [
        per_ring[0].len() as f64 + txns,
        per_ring[1].len() as f64 + txns,
    ];
    o.set(
        "multiring.ring_share_min",
        ratio(frags[0].min(frags[1]), frags[0] + frags[1]),
    );
    o.set("multiring.ring0_p50_ms", ring_p50[0]);
    o.set("multiring.ring1_p50_ms", ring_p50[1]);
    o.set("multiring.ring_skew_ms", (ring_p50[0] - ring_p50[1]).abs());
    o.set("kv.apply_us", Timing::of(apply_us).p50);
    o.set("kv_write_p50_ms", write_t.p50);
    o.set("kv_write_p99_ms", write_t.tail);
    o.set("kv.txn_p50_ms", Timing::of(txn.clone()).p50);
    o.set("kv_read_p50_ms", read_t.p50);
    o.set("kv_read_p99_ms", read_t.tail);
    o.set("kv.resubmitted", written.resubmitted as f64);
    o.set(
        "kv.svc_queries_per_read",
        ratio(obs.delta.fe_svc_queries as f64, reads.in_window as f64),
    );
    let late: Vec<f64> = written
        .late_ms
        .iter()
        .chain(&reads.late_ms)
        .copied()
        .collect();
    o.set("gen_late_p99_ms", Timing::of(late.clone()).tail);
    let on = Timing::of(reads.traced_ms.clone()).p50;
    let off = Timing::of(reads.untraced_ms.clone()).p50;
    o.set("trace.overhead_pct", ratio(on - off, off) * 100.0);
    let submit_ns: Vec<u64> = written
        .submit_ns
        .iter()
        .chain(&reads.submit_ns)
        .copied()
        .collect();
    o.set("span.submit_call_us", span_us(&submit_ns));
    o.set("span.decode_us", span_us(&reads.decode_ns));
    o.note(format!("write: {}", Timing::describe(&all, "ms")));
    o.note(format!(
        "write p50 by ring: ring0 {:.3} ms ({} writes), ring1 {:.3} ms ({} writes); txn {}",
        ring_p50[0],
        per_ring[0].len(),
        ring_p50[1],
        per_ring[1].len(),
        Timing::describe(&txn, "ms")
    ));
    o.note(format!("read: {}", Timing::describe(&reads.lat_ms, "ms")));
    o.note(format!(
        "generator lateness: {}",
        Timing::describe(&late, "ms")
    ));
    o.note(format!("replica state hashes {hashes:x?}"));
    Ok(o)
}
