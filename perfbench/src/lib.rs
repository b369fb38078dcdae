//! # sweb-perfbench — the SWEB live-cluster benchmark
//!
//! One command runs a named, seeded workload against an in-process
//! [`sweb_server::LiveCluster`] and prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweb-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (set-up time, closed-loop
//! throughput at the reference host speed, success share, peak memory);
//! `--trace 1` reports per-layer metrics, and the open-loop latency
//! quantiles, from a traced run of the same workload. The closed loop
//! runs with the whole process pinned to one core ([`pin`]), and its
//! throughput is quoted relative to a bare loopback responder measured
//! between its windows ([`bare`]), because a shared VM's speed drifts by
//! tens of percent between runs. The last stdout line is the result
//! object; the line before it carries the environment (seed, the closed
//! loop's core, kernel, rustc, I/O backend per shard, the fixed
//! open-loop rate, hypervisor steal), the raw and bare closed-loop
//! rates, the open-loop p50/p99 with their sample counts, and whether
//! the generator stayed below saturation.

pub mod bare;
pub mod client;
pub mod counts;
pub mod gen;
pub mod pin;
pub mod run;
pub mod trace;
pub mod workload;
