//! A receive batch costs only the pages its datagrams touch. Sixteen
//! batches of 32 × 64 KiB map 32 MiB and add under 1 MiB of resident
//! memory, before and after one 100 B datagram goes through each; a
//! 48 KiB datagram commits at most 16 pages; a datagram in every slot
//! commits about one page per slot; and dropping the batches returns
//! what they committed.
//!
//! Resident memory is `VmRSS` from `/proc/self/status`, so the test is
//! Linux-only. It is the only test in its binary, so no other test
//! shares the process's RSS while it measures.

#![cfg(target_os = "linux")]

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use accelring_transport::RecvBatch;
use bytes::Bytes;

const BATCHES: usize = 16;
const COUNT: usize = 32;
const SIZE: usize = 65_536;
const PAGE: u64 = 4096;
const KIB: u64 = 1024;
const MIB: u64 = 1 << 20;

/// This process's resident set, in bytes.
fn rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("a VmRSS line in kB");
    kib * KIB
}

/// Growth of the resident set since `base`, in bytes (0 if it shrank).
fn growth(base: u64) -> u64 {
    rss().saturating_sub(base)
}

/// Sends `n` datagrams of `len` bytes to `rx`, then receives them all
/// through `batch` into `out` (cleared first). Loopback delivery is
/// immediate, but the loop allows the kernel a moment.
fn round_trip(
    tx: &UdpSocket,
    rx: &UdpSocket,
    batch: &mut RecvBatch,
    n: usize,
    len: usize,
    out: &mut Vec<(Bytes, SocketAddr)>,
) {
    let dest = rx.local_addr().expect("receiver address");
    let payload = vec![0xA5; len];
    for _ in 0..n {
        tx.send_to(&payload, dest).expect("send");
    }
    out.clear();
    let deadline = Instant::now() + Duration::from_secs(5);
    while out.len() < n {
        assert!(Instant::now() < deadline, "{n} datagrams never arrived");
        batch.recv(rx, out).expect("recv");
        if out.len() < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(out.iter().all(|(d, _)| d.len() == len));
}

#[test]
fn a_receive_batch_commits_only_the_pages_its_datagrams_touch() {
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind receiver");
    rx.set_nonblocking(true).expect("non-blocking");
    let mut out: Vec<(Bytes, SocketAddr)> = Vec::with_capacity(2 * COUNT);
    let mut batches: Vec<RecvBatch> = Vec::with_capacity(BATCHES);

    // Building the batches commits nothing.
    let base = rss();
    for _ in 0..BATCHES {
        batches.push(RecvBatch::new(COUNT, SIZE).expect("map a receive batch"));
    }
    let built = growth(base);
    println!(
        "{BATCHES} batches ({} MiB mapped): +{} KiB",
        (BATCHES * COUNT * SIZE) as u64 / MIB,
        built / KIB
    );
    assert!(
        built < MIB,
        "{BATCHES} batches of {COUNT} × {SIZE} B grew the resident set by {} KiB",
        built / KIB
    );

    // One small datagram through each batch commits one page of it.
    for batch in &mut batches {
        round_trip(&tx, &rx, batch, 1, 100, &mut out);
    }
    let touched = growth(base);
    println!("one 100 B datagram through each: +{} KiB", touched / KIB);
    assert!(
        touched < MIB,
        "one 100 B datagram through each batch grew the resident set by {} KiB",
        touched / KIB
    );

    // A 48 KiB datagram commits its own pages and no more. The first one
    // goes through another batch, so the copy's heap memory is already
    // resident when the second is measured.
    const BIG: usize = 48 * 1024;
    round_trip(&tx, &rx, &mut batches[0], 1, BIG, &mut out);
    out.clear();
    let before_big = rss();
    round_trip(&tx, &rx, &mut batches[1], 1, BIG, &mut out);
    let big = growth(before_big);
    println!("one 48 KiB datagram: +{} pages", big / PAGE);
    assert!(
        big <= 16 * PAGE,
        "one 48 KiB datagram grew the resident set by {} pages",
        big / PAGE
    );

    // A datagram in every slot commits about one page per slot.
    let before_full = rss();
    for batch in &mut batches {
        round_trip(&tx, &rx, batch, COUNT, 100, &mut out);
    }
    out.clear();
    let full = growth(before_full);
    let slots = (BATCHES * COUNT) as u64;
    println!(
        "a 100 B datagram in each of {slots} slots: +{} KiB",
        full / KIB
    );
    assert!(
        full <= slots * PAGE + 256 * KIB,
        "a 100 B datagram in each of {slots} slots grew the resident set by {} KiB",
        full / KIB
    );

    // Dropping the batches returns what they committed.
    let held = rss();
    drop(batches);
    let released = held.saturating_sub(rss());
    println!("dropping the batches: -{} KiB", released / KIB);
    assert!(
        released >= full * 3 / 4,
        "dropping the batches released {} KiB of the {} KiB their slots committed",
        released / KIB,
        full / KIB
    );
    assert!(
        growth(base) < MIB,
        "the resident set stayed {} KiB above its size before the batches",
        growth(base) / KIB
    );
}
