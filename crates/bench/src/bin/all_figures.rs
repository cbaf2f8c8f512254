//! Runs every figure and table of the paper and prints the full report —
//! the source of EXPERIMENTS.md. Honors ACCELRING_BENCH_QUALITY.
use accelring_bench::*;
use accelring_core::Service;
use accelring_sim::harness::format_table;
use accelring_sim::NetworkProfile;

fn main() {
    let q = Quality::from_env();
    println!("{}", format_max_throughput(&max_throughput_table(q)));
    println!("{}", format_multiring_scaling(&multiring_scaling_table(q)));
    println!(
        "{}",
        format_table(
            "Figure 2: Agreed latency vs throughput, 1Gb",
            "offered Mbps",
            &figure_02(q)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 3: Safe latency vs throughput, 1Gb",
            "offered Mbps",
            &figure_03(q)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 4: Agreed latency vs throughput, 10Gb",
            "offered Mbps",
            &figure_04(q)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 5: Agreed, 1350B vs 8850B payloads, 10Gb",
            "offered Mbps",
            &figure_payload_sizes(q, Service::Agreed)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 6: Safe latency vs throughput, 10Gb",
            "offered Mbps",
            &figure_06(q)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 7: Safe, 1350B vs 8850B payloads, 10Gb",
            "offered Mbps",
            &figure_payload_sizes(q, Service::Safe)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 8: Safe latency at low throughput, 10Gb (crossover)",
            "offered Mbps",
            &figure_08(q)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 9: latency vs loss, 480 Mbps goodput, 10Gb",
            "loss %",
            &figure_loss(q, NetworkProfile::ten_gigabit(), 480)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 10: latency vs loss, 1200 Mbps goodput, 10Gb",
            "loss %",
            &figure_loss(q, NetworkProfile::ten_gigabit(), 1200)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 11: latency vs loss, 140 Mbps goodput, 1Gb",
            "loss %",
            &figure_loss(q, NetworkProfile::gigabit(), 140)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 12: latency vs loss, 350 Mbps goodput, 1Gb",
            "loss %",
            &figure_loss(q, NetworkProfile::gigabit(), 350)
        )
    );
    println!(
        "{}",
        format_table(
            "Figure 13: latency vs ring distance of the lossy pair",
            "distance",
            &figure_13(q)
        )
    );
    println!(
        "{}",
        format_table(
            "Ablation: accelerated window size",
            "accel window",
            &ablate_accelerated_window(q)
        )
    );
    println!(
        "{}",
        format_table(
            "Ablation: token priority policies (10Gb, spread profile)",
            "offered Mbps",
            &ablate_priority_method(q)
        )
    );
    println!("# Ablation: retransmission request delay (accelerated, 350 Mbps, 1Gb)");
    println!("{:>28} {:>16} {:>12}", "policy", "retrans/msg", "mean us");
    for (label, rate, latency) in ablate_rtr_delay(q) {
        println!("{label:>28} {rate:>16.4} {latency:>12.1}");
    }
    println!();
    println!("# Ablation: switch buffer depth (accelerated, saturating, 1Gb)");
    println!(
        "{:>12} {:>14} {:>12} {:>14}",
        "buffer KiB", "goodput Mbps", "mean us", "switch drops"
    );
    for (kib, goodput, latency, drops) in ablate_switch_buffer(q) {
        println!("{kib:>12} {goodput:>14.1} {latency:>12.1} {drops:>14}");
    }
}
