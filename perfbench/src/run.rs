//! One benchmark run: set up, drive the phases, and report.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use sweb_server::{LiveCluster, ServerOptions};
use sweb_telemetry::Json;

use crate::bare::Bare;
use crate::counts::{self, Counts};
use crate::gen::{self, median, quantile, Generator, Phase};
use crate::pin::Pinned;
use crate::trace;
use crate::workload::{poisson_schedule, Kind, Workload};

/// Cluster set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// How long after its last due time an open-loop phase may run on.
const OPEN_GRACE: Duration = Duration::from_secs(20);

/// Open-loop latency quantiles are medians over windows of this many
/// seconds (each holds enough requests for ten beyond its p99).
const OPEN_WINDOW_S: f64 = 0.5;

/// The generator counts as saturated, and the run as invalid, when its
/// own open-loop send delay p99 exceeds this...
pub const LATE_LIMIT_MS: f64 = 2.0;

/// ...or its threads were busy for more than this share of the time.
pub const CPU_LIMIT: f64 = 0.8;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (closed loop, then open loop).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for the docroot (created, then removed).
    pub workdir: PathBuf,
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A run's result.
#[derive(Debug)]
pub struct Report {
    /// Every response passed its checks and no guard counter moved.
    pub correct: bool,
    /// Requests attempted, warm-up included.
    pub attempted: u64,
    /// Failed requests plus guard-counter failures.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Environment, sample counts and validity.
    pub detail: Json,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), m)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Start the workload's cluster: default options except where the
/// workload says otherwise.
pub fn start_cluster(wl: &Workload, docroot: &Path) -> Result<LiveCluster, String> {
    ServerOptions::new()
        .peer_transfer(wl.peer_transfer)
        .start(wl.nodes, docroot.to_path_buf())
        .map_err(|e| format!("cluster start: {e}"))
}

/// Peak resident set of this process (client and cluster), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Run one workload end to end.
pub fn run(opts: &Options) -> Result<Report, String> {
    let wl = Workload::generate(opts.kind, opts.seed);
    let _scratch = Scratch(opts.workdir.clone());
    let docroot = opts.workdir.join("docroot");
    wl.write_docroot(&docroot)
        .map_err(|e| format!("docroot: {e}"))?;

    // Set-up, several times: start, loadd mesh, cache-filling warm-up.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut warm = Vec::with_capacity(SETUPS);
    let mut cluster: Option<LiveCluster> = None;
    for _ in 0..SETUPS {
        if let Some(old) = cluster.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let c = start_cluster(&wl, &docroot)?;
        if !c.await_loadd_mesh(Duration::from_secs(10)) {
            c.shutdown();
            return Err("loadd mesh did not converge".into());
        }
        let cursor = AtomicU64::new(0);
        warm.push(gen::closed(
            &Generator::new(&wl, &c),
            &cursor,
            60.0,
            wl.warmup as u64,
            false,
            None,
        ));
        setup_s.push(t0.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");
    let result = measure(opts, &wl, &cluster, &docroot, &setup_s, &warm);
    cluster.shutdown();
    result
}

fn measure(
    opts: &Options,
    wl: &Workload,
    cluster: &LiveCluster,
    docroot: &Path,
    setup_s: &[f64],
    warm: &[Phase],
) -> Result<Report, String> {
    let g = Generator::new(wl, cluster);
    let cursor = AtomicU64::new(wl.warmup as u64);
    let half = opts.seconds / 2.0;
    let rate = opts.kind.open_rate();
    let backends = counts::io_backends(cluster)?;
    let bare = Bare::start().map_err(|e| format!("bare responder: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let cpu0 = cpu_ticks();
    let c0 = counts::snapshot(cluster)?;
    let (closed, core) = {
        let pinned = Pinned::to_current_core()?;
        let phase = gen::closed(&g, &cursor, half, u64::MAX, opts.trace, Some(&bare));
        (phase, pinned.core)
    };
    let c1 = counts::snapshot(cluster)?;
    // The traced run splits its open loop: an untraced half as the
    // reference for the tracing overhead, then a traced half.
    let (open, untraced) = if opts.trace {
        let plain = gen::open(
            &g,
            &cursor,
            &poisson_schedule(wl.seed, 1, rate, half / 2.0),
            OPEN_GRACE,
            false,
        );
        let traced = gen::open(
            &g,
            &cursor,
            &poisson_schedule(wl.seed, 2, rate, half / 2.0),
            OPEN_GRACE,
            true,
        );
        (traced, Some(plain))
    } else {
        (
            gen::open(
                &g,
                &cursor,
                &poisson_schedule(wl.seed, 1, rate, half),
                OPEN_GRACE,
                false,
            ),
            None,
        )
    };
    let c2 = counts::snapshot(cluster)?;
    let delta = c2.since(&c0);
    let steal_share = steal_share(cpu0, cpu_ticks());

    let phases: Vec<&Phase> = warm
        .iter()
        .chain([&closed, &open])
        .chain(untraced.as_ref())
        .collect();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed_requests: u64 = phases.iter().map(|p| p.failed).sum();
    let guards = delta.guard_failures();
    let failed = failed_requests + guards;
    let errors: Vec<Json> = phases
        .iter()
        .flat_map(|p| p.errors.iter())
        .take(8)
        .map(|e| Json::Str(e.clone()))
        .collect();

    let late_p99_ms = ms(quantile(&open.late_ns, 0.99));
    let cpu_share = open.cpu_share();
    let valid = late_p99_ms <= LATE_LIMIT_MS && cpu_share <= CPU_LIMIT;
    // Open-loop latency, always from an untraced open loop.
    let plain = untraced.as_ref().unwrap_or(&open);
    let (p50, p99) = (
        plain.latency_ns(OPEN_WINDOW_S, 0.5) / 1e6,
        plain.latency_ns(OPEN_WINDOW_S, 0.99) / 1e6,
    );

    let metrics = if opts.trace {
        let roots: Vec<gen::Root> = closed.roots.iter().chain(&open.roots).cloned().collect();
        let t = trace::replay(wl, cluster, docroot, &roots);
        per_layer(
            cluster,
            &delta,
            &c1.since(&c0),
            &t,
            attempted,
            &open,
            plain,
            steal_share,
        )
    } else {
        let error_share = ratio(failed, attempted);
        vec![
            ("setup_s", median(setup_s.to_vec()), "s"),
            ("rps_norm", closed.rps_norm(), "1/s"),
            ("mb_per_s_norm", closed.bytes_per_s_norm() / 1e6, "MB/s"),
            ("success_share", 1.0 - error_share, "ratio"),
            ("rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    let num = |v: f64| Json::Num(v);
    let detail = Json::Obj(vec![
        ("workload".into(), Json::Str(opts.kind.name().into())),
        ("seed".into(), num(wl.seed as f64)),
        ("trace".into(), Json::Bool(opts.trace)),
        ("nproc".into(), num(nproc as f64)),
        ("closed_loop_core".into(), num(core as f64)),
        ("kernel".into(), Json::Str(kernel())),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
        (
            "io_backends".into(),
            Json::Arr(backends.into_iter().map(Json::Str).collect()),
        ),
        ("open_rate_per_s".into(), num(rate)),
        ("steal_share".into(), num(steal_share)),
        ("seconds".into(), num(opts.seconds)),
        (
            "setup_s_all".into(),
            Json::Arr(setup_s.iter().map(|&s| num(s)).collect()),
        ),
        ("closed_requests".into(), num(closed.attempted as f64)),
        ("closed_windows".into(), num(closed.tally.len() as f64)),
        ("rps".into(), num(closed.rps())),
        ("bare_rps".into(), num(closed.bare_rps())),
        ("open_requests".into(), num(open.attempted as f64)),
        ("latency_samples".into(), num(open.samples.len() as f64)),
        ("latency_window_s".into(), num(OPEN_WINDOW_S)),
        ("p50_ms".into(), num(p50)),
        ("p99_ms".into(), num(p99)),
        ("error_share".into(), num(ratio(failed, attempted))),
        ("guard_failures".into(), num(guards as f64)),
        ("loadgen_late_p99_ms".into(), num(late_p99_ms)),
        ("loadgen_cpu_share".into(), num(cpu_share)),
        ("valid".into(), Json::Bool(valid)),
        ("errors".into(), Json::Arr(errors)),
    ]);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// The traced run's metrics: `all` and `closed` are counter deltas over
/// the measured phases and the closed loop, `open` is the traced open
/// loop and `plain` the untraced one run just before it.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    cluster: &LiveCluster,
    all: &Counts,
    closed: &Counts,
    t: &trace::Trace,
    attempted: u64,
    open: &Phase,
    plain: &Phase,
    steal_share: f64,
) -> Vec<Metric> {
    let traced_p50 = open.latency_ns(OPEN_WINDOW_S, 0.5);
    let plain_p50 = plain.latency_ns(OPEN_WINDOW_S, 0.5);
    let us = |name: &str| t.median_ns(name) as f64 / 1e3;
    let mut log_err: Vec<f64> = (0..cluster.len())
        .flat_map(|i| cluster.node(i).stats.feedback.samples())
        .map(|s| {
            (s.measured_us.max(1) as f64 / s.predicted_us.max(1) as f64)
                .ln()
                .abs()
        })
        .collect();
    log_err.sort_by(f64::total_cmp);
    let pred_log_err_p50 = log_err.get(log_err.len() / 2).copied().unwrap_or(0.0);
    vec![
        ("http.parse_ns", t.median_ns("http.parse") as f64, "ns"),
        ("http.head_ns", t.median_ns("http.head") as f64, "ns"),
        (
            "reactor.syscalls_per_req",
            ratio(closed.syscalls, closed.responses()),
            "1/req",
        ),
        (
            "reactor.sendfile_share",
            ratio(all.sendfile, all.responses()),
            "ratio",
        ),
        (
            "reactor.zero_copy_share",
            ratio(all.zero_copy, all.responses()),
            "ratio",
        ),
        (
            "broker.decide_ns",
            t.median_ns("broker.decide") as f64,
            "ns",
        ),
        (
            "broker.redirect_share",
            ratio(all.redirected, attempted),
            "ratio",
        ),
        (
            "broker.peer_fetch_share",
            ratio(all.peer_fetches, attempted),
            "ratio",
        ),
        ("broker.pred_log_err_p50", pred_log_err_p50, "ln"),
        (
            "file_cache.hit_ratio",
            ratio(all.cache_hits, all.cache_hits + all.cache_misses),
            "ratio",
        ),
        (
            "file_cache.evictions_per_req",
            ratio(all.evictions, attempted),
            "1/req",
        ),
        ("file_cache.hit_us", us("file_cache.hit"), "us"),
        ("file_cache.miss_us", us("file_cache.miss"), "us"),
        ("peer.fetch_us", us("peer.fetch"), "us"),
        ("dynamic.handle_us.burn", us("dynamic.handle.burn"), "us"),
        (
            "dynamic.handle_us.template",
            us("dynamic.handle.template"),
            "us",
        ),
        ("dynamic.handle_us.echo", us("dynamic.handle.echo"), "us"),
        (
            "dynamic.cache_hit_ratio",
            ratio(all.dyn_hits, all.dyn_hits + all.dyn_misses),
            "ratio",
        ),
        ("overload.shed", all.shed as f64, "count"),
        (
            "overload.deadline_overruns",
            all.deadline_overruns as f64,
            "count",
        ),
        (
            "peer.failures",
            (all.forward_failures + all.peer_frames_bad) as f64,
            "count",
        ),
        (
            "client.p50_ms",
            plain.latency_ns(OPEN_WINDOW_S, 0.5) / 1e6,
            "ms",
        ),
        (
            "client.p99_ms",
            plain.latency_ns(OPEN_WINDOW_S, 0.99) / 1e6,
            "ms",
        ),
        ("host.steal_share", steal_share, "ratio"),
        (
            "loadgen.late_p99_ms",
            ms(quantile(&open.late_ns, 0.99)),
            "ms",
        ),
        ("loadgen.cpu_share", open.cpu_share(), "ratio"),
        ("trace.unattributed_share", t.unattributed_share(), "ratio"),
        (
            "trace.overhead_share",
            (traced_p50 - plain_p50) / plain_p50.max(1e-9),
            "ratio",
        ),
    ]
}

/// `(steal, total)` CPU ticks of the whole box (`/proc/stat`).
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of the box's CPU time the hypervisor gave to other guests while
/// the phases ran: a run on a contended host reads slow for that reason.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio(
        after.0.saturating_sub(before.0),
        after.1.saturating_sub(before.1),
    )
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().into())
}
