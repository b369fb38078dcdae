//! The load generator: closed- and open-loop phases over the seeded
//! stream, with every response checked against the generated inputs.
//!
//! One process drives the cluster: the closed loop from one thread with
//! one HTTP/1.0 connection in flight, the open loop from
//! [`OPEN_CLIENTS`] threads with one each.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sweb_server::{DynamicRegistry, HandlerCtx, LiveCluster, NodeShared};

use crate::bare::{Bare, REFERENCE_RPS};
use crate::client::{self, Reply};
use crate::workload::{Entry, Op, Workload, BURN_COSTS};

/// Failures kept verbatim for the report (the rest are only counted).
const ERRORS_KEPT: usize = 8;

/// Everything needed to send a stream entry and judge its response.
pub struct Generator<'a> {
    /// The inputs.
    pub wl: &'a Workload,
    addrs: Vec<SocketAddr>,
    /// Node whose shared state in-process handlers run against.
    node0: Arc<NodeShared>,
    /// The handlers the server runs, instantiated in-process as the
    /// reference for dynamic bodies.
    reference: DynamicRegistry,
    burn: HashMap<u64, Vec<u8>>,
    templates: Vec<Vec<u8>>,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Response checked and correct.
    pub ok: bool,
    /// Body bytes of the final response.
    pub bytes: u64,
    /// Last body byte of the final response.
    pub done: Instant,
    /// The `X-SWEB-Trace` id of the final response.
    pub trace: Option<String>,
    /// Whether one 302 was followed.
    pub redirected: bool,
    /// `X-SWEB-Node` of the final response.
    pub served_by: u8,
    /// Why the request failed.
    pub error: Option<String>,
}

impl<'a> Generator<'a> {
    /// A generator for `wl` against a running `cluster`.
    pub fn new(wl: &'a Workload, cluster: &LiveCluster) -> Generator<'a> {
        let addrs = (0..cluster.len())
            .map(|i| {
                cluster
                    .base_url(i)
                    .trim_start_matches("http://")
                    .parse()
                    .expect("node address")
            })
            .collect();
        let node0 = Arc::clone(cluster.node(0));
        let reference = DynamicRegistry::demo();
        let run = |target: &str| {
            let raw = format!("GET {target} HTTP/1.0\r\n\r\n");
            let (req, _) = sweb_http::parse_request(raw.as_bytes()).expect("reference request");
            let h = reference
                .lookup(&req.path().expect("path"))
                .expect("demo handler");
            h.handle(
                &HandlerCtx {
                    shared: &node0,
                    deadline: None,
                },
                &req,
                b"",
            )
            .body
            .to_vec()
        };
        // The burn handler's reply depends on its work arguments, not on
        // the per-request id (which only defeats its response cache).
        let burn = BURN_COSTS
            .iter()
            .map(|&c| (c, run(&format!("/cgi-bin/burn?cost={c}&id=reference"))))
            .collect();
        let templates = wl
            .templates
            .iter()
            .map(|q| run(&format!("/cgi-bin/template?{q}")))
            .collect();
        Generator {
            wl,
            addrs,
            node0,
            reference,
            burn,
            templates,
        }
    }

    /// Send stream position `seq` (entry `e`) and check the response.
    pub fn perform(&self, seq: u64, e: Entry, buf: &mut Vec<u8>) -> Outcome {
        let request = self.wl.request_bytes(e.op, seq);
        let mut out = Outcome {
            ok: false,
            bytes: 0,
            done: Instant::now(),
            trace: None,
            redirected: false,
            served_by: e.node,
            error: None,
        };
        match self.fetch(&request, e.node as usize, buf, &mut out) {
            Ok(reply) => match self.check(seq, e.op, &request, &reply) {
                Ok(()) => {
                    out.ok = true;
                    out.bytes = reply.body.len() as u64;
                }
                Err(why) => out.error = Some(why),
            },
            Err(why) => out.error = Some(why),
        }
        out
    }

    /// One exchange plus at most one 302 hop.
    fn fetch(
        &self,
        request: &[u8],
        node: usize,
        buf: &mut Vec<u8>,
        out: &mut Outcome,
    ) -> Result<Reply, String> {
        let (mut reply, mut done) = client::exchange(self.addrs[node], request, buf)?;
        if reply.status == 302 {
            let location = reply.header("location").ok_or("302 without Location")?;
            let (addr, target) = client::split_location(location)
                .ok_or_else(|| format!("unusable Location {location:?}"))?;
            let hop = format!("GET {target} HTTP/1.0\r\nHost: sweb\r\n\r\n");
            (reply, done) = client::exchange(addr, hop.as_bytes(), buf)?;
            out.redirected = true;
            if reply.status == 302 {
                return Err("second redirect".into());
            }
        }
        out.done = done;
        out.trace = reply.header("x-sweb-trace").map(str::to_string);
        if let Some(n) = reply.header("x-sweb-node").and_then(|v| v.parse().ok()) {
            out.served_by = n;
        }
        Ok(reply)
    }

    /// Status, node header, and body against the reference.
    fn check(&self, seq: u64, op: Op, request: &[u8], reply: &Reply) -> Result<(), String> {
        if reply.status != 200 {
            return Err(format!("status {}", reply.status));
        }
        let node = reply.header("x-sweb-node").ok_or("missing X-SWEB-Node")?;
        node.parse::<u8>()
            .map_err(|_| format!("bad X-SWEB-Node {node:?}"))?;
        let echo;
        let expected: &[u8] = match op {
            Op::Static(i) => &self.wl.docs[i as usize].body,
            Op::Burn(cost) => &self.burn[&cost],
            Op::Template(t) => &self.templates[t as usize],
            Op::Echo(_) => {
                let (req, used) =
                    sweb_http::parse_request(request).map_err(|e| format!("{e:?}"))?;
                let h = self
                    .reference
                    .lookup("/cgi-bin/echo")
                    .ok_or("no echo handler")?;
                let ctx = HandlerCtx {
                    shared: &self.node0,
                    deadline: None,
                };
                echo = h.handle(&ctx, &req, &request[used..]).body.to_vec();
                &echo
            }
        };
        if reply.body != expected {
            return Err(format!(
                "{} body mismatch ({} bytes, expected {})",
                self.wl.target(op, seq),
                reply.body.len(),
                expected.len()
            ));
        }
        Ok(())
    }
}

/// The client-side record of one traced request: the root span.
#[derive(Debug, Clone)]
pub struct Root {
    /// Stream position (`request_bytes` input).
    pub seq: u64,
    /// The stream entry.
    pub entry: Entry,
    /// Scheduled (open loop) or actual (closed loop) send.
    pub start: Instant,
    /// Last body byte.
    pub end: Instant,
    /// `X-SWEB-Trace` id.
    pub trace: String,
    /// Node that served it.
    pub served_by: u8,
    /// Whether it took a 302 hop.
    pub redirected: bool,
}

/// The closed loop alternates windows of this many seconds against the
/// cluster with [`PROBE_S`] bursts against the bare responder, so both
/// see the host at the same speeds.
pub const RATE_WINDOW_S: f64 = 0.5;

/// Seconds of bare-responder exchanges after each closed-loop window.
pub const PROBE_S: f64 = 0.1;

/// Closed-loop clients. One: the measured loop runs pinned to one core,
/// which a single back-to-back client and the server already keep busy.
pub const CLOSED_CLIENTS: usize = 1;

/// One open-loop request. The open loop keeps one per request (its count
/// is fixed by the schedule); the closed loop keeps only per-window tallies,
/// so the generator's memory does not grow with the server's speed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due time, seconds from the phase start.
    pub at: f32,
    /// Latency in 10 ns units; a failure reads as the client timeout.
    latency_10ns: u32,
    /// Whether the response passed every check.
    pub ok: bool,
}

impl Sample {
    fn new(at: f64, latency: Duration, ok: bool) -> Sample {
        Sample {
            at: at as f32,
            latency_10ns: u32::try_from(latency.as_nanos() / 10).unwrap_or(u32::MAX),
            ok,
        }
    }

    /// Latency, ns.
    pub fn latency_ns(&self) -> u64 {
        u64::from(self.latency_10ns) * 10
    }
}

/// One closed-loop window: correct responses and their body bytes, then
/// the bare-responder burst that followed it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Correct responses completed in the window.
    pub ok: u64,
    /// Their body bytes.
    pub bytes: u64,
    /// The window's length, seconds.
    pub secs: f64,
    /// Bare exchanges in the burst after it.
    pub bare: u64,
    /// The burst's length, seconds.
    pub bare_secs: f64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent (or due, in the open loop).
    pub attempted: u64,
    /// Requests that failed any check.
    pub failed: u64,
    /// Phase wall time, seconds.
    pub elapsed: f64,
    /// Closed loop: each window and the bare burst after it.
    pub tally: Vec<Tally>,
    /// Open loop: every request.
    pub samples: Vec<Sample>,
    /// Open loop: how late each send left relative to when the generator
    /// could have sent it (its own scheduling delay), ns.
    pub late_ns: Vec<u64>,
    /// CPU time the generator threads used, ns.
    pub cpu_ns: u64,
    /// Generator threads.
    pub threads: usize,
    /// Root spans (traced phases only).
    pub roots: Vec<Root>,
    /// First few failure reasons.
    pub errors: Vec<String>,
}

impl Phase {
    /// `f(window)` summed over the closed loop's windows.
    fn total(&self, f: impl Fn(&Tally) -> f64) -> f64 {
        self.tally.iter().map(f).sum()
    }

    /// Correct responses per second of the closed loop's windows.
    pub fn rps(&self) -> f64 {
        self.total(|t| t.ok as f64) / self.total(|t| t.secs)
    }

    /// Bare-responder exchanges per second of the bursts between them.
    pub fn bare_rps(&self) -> f64 {
        self.total(|t| t.bare as f64) / self.total(|t| t.bare_secs)
    }

    /// Correct responses per second at the reference host speed: the
    /// closed loop's rate over the bare responder's, times the latter's
    /// rate on the reference host. Whole-run totals, not per-window
    /// medians: over ten seeds they spread the least.
    pub fn rps_norm(&self) -> f64 {
        self.rps() / self.bare_rps() * REFERENCE_RPS
    }

    /// Correct response-body bytes per second at the reference host
    /// speed, as [`Phase::rps_norm`].
    pub fn bytes_per_s_norm(&self) -> f64 {
        self.total(|t| t.bytes as f64) / self.total(|t| t.secs) / self.bare_rps() * REFERENCE_RPS
    }

    /// Median over full open-loop windows of `width` seconds (by due time)
    /// of each window's `q`-quantile latency, ns.
    pub fn latency_ns(&self, width: f64, q: f64) -> f64 {
        let end = self
            .samples
            .iter()
            .map(|s| f64::from(s.at))
            .fold(0.0, f64::max);
        let mut windows = vec![Vec::new(); ((end / width) as usize).max(1)];
        for s in &self.samples {
            if let Some(w) = windows.get_mut((f64::from(s.at) / width) as usize) {
                w.push(s.latency_ns());
            }
        }
        median(windows.iter().map(|w| quantile(w, q) as f64).collect())
    }

    /// Generator CPU time over the threads' wall time.
    pub fn cpu_share(&self) -> f64 {
        self.cpu_ns as f64 / 1e9 / (self.elapsed * self.threads as f64)
    }

    fn absorb(&mut self, mut t: ThreadLog) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.tally.append(&mut t.tally);
        self.samples.append(&mut t.samples);
        self.late_ns.append(&mut t.late_ns);
        self.cpu_ns += t.cpu_ns;
        self.roots.append(&mut t.roots);
        let room = ERRORS_KEPT.saturating_sub(self.errors.len());
        self.errors.extend(t.errors.into_iter().take(room));
    }
}

#[derive(Default)]
struct ThreadLog {
    /// Keep per-request samples (open loop) instead of window tallies.
    open: bool,
    attempted: u64,
    failed: u64,
    tally: Vec<Tally>,
    samples: Vec<Sample>,
    late_ns: Vec<u64>,
    cpu_ns: u64,
    roots: Vec<Root>,
    errors: Vec<String>,
}

impl ThreadLog {
    fn fail(&mut self, at: f64, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.open {
            self.samples.push(Sample::new(at, client::TIMEOUT, false));
        }
        if self.errors.len() < ERRORS_KEPT {
            self.errors.push(why);
        }
    }

    /// Record `o`, timed from `start`; `at` places it in the phase.
    /// Returns the body bytes of a correct response.
    fn record(
        &mut self,
        seq: u64,
        e: Entry,
        at: f64,
        start: Instant,
        o: Outcome,
        traced: bool,
    ) -> Option<u64> {
        if !o.ok {
            self.fail(at, o.error.unwrap_or_default());
            return None;
        }
        self.attempted += 1;
        if self.open {
            self.samples.push(Sample::new(
                at,
                o.done.saturating_duration_since(start),
                true,
            ));
        }
        let bytes = o.bytes;
        if let (true, Some(trace)) = (traced, o.trace) {
            self.roots.push(Root {
                seq,
                entry: e,
                start,
                end: o.done,
                trace,
                served_by: o.served_by,
                redirected: o.redirected,
            });
        }
        Some(bytes)
    }
}

/// CPU time the calling thread has used, ns (`/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Open-loop clients: two, so one slow response does not hold back the
/// next due request.
pub const OPEN_CLIENTS: usize = 2;

fn run_threads(
    t0: Instant,
    open: bool,
    threads: usize,
    body: impl Fn(&mut ThreadLog) + Sync,
) -> Phase {
    let logs = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let cpu0 = thread_cpu_ns();
                let mut log = ThreadLog {
                    open,
                    ..ThreadLog::default()
                };
                body(&mut log);
                log.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
                logs.lock()
                    .expect("no generator thread panics holding the log")
                    .push(log);
            });
        }
    });
    let mut phase = Phase {
        elapsed: t0.elapsed().as_secs_f64(),
        threads,
        ..Phase::default()
    };
    for log in logs.into_inner().expect("generator threads joined") {
        phase.absorb(log);
    }
    phase
}

/// Closed loop: the client sends its next request as soon as the
/// previous one completes, until `seconds` pass or `limit` requests
/// (stream positions below it) have been taken. With a `bare` responder,
/// every [`RATE_WINDOW_S`] window is followed by a [`PROBE_S`] burst
/// against it, which reads the host's speed at that moment.
pub fn closed(
    g: &Generator<'_>,
    cursor: &AtomicU64,
    seconds: f64,
    limit: u64,
    traced: bool,
    bare: Option<&Bare>,
) -> Phase {
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(seconds);
    run_threads(t0, false, CLOSED_CLIENTS, |log| {
        let mut buf = Vec::new();
        let mut taken = true;
        while taken && Instant::now() < stop {
            let from = Instant::now();
            let until = (from + Duration::from_secs_f64(RATE_WINDOW_S)).min(stop);
            let mut t = Tally::default();
            while Instant::now() < until {
                let seq = cursor.fetch_add(1, Ordering::Relaxed);
                if seq >= limit {
                    taken = false;
                    break;
                }
                let e = g.wl.stream[seq as usize % g.wl.stream.len()];
                let start = Instant::now();
                let o = g.perform(seq, e, &mut buf);
                let at = o.done.saturating_duration_since(t0).as_secs_f64();
                if let Some(bytes) = log.record(seq, e, at, start, o, traced) {
                    t.ok += 1;
                    t.bytes += bytes;
                }
            }
            t.secs = from.elapsed().as_secs_f64();
            if let Some(b) = bare {
                let from = Instant::now();
                let until = from + Duration::from_secs_f64(PROBE_S);
                while Instant::now() < until {
                    match b.exchange(&mut buf) {
                        Ok(()) => t.bare += 1,
                        Err(why) => log.fail(0.0, why),
                    }
                }
                t.bare_secs = from.elapsed().as_secs_f64();
            }
            log.tally.push(t);
        }
    })
}

/// Open loop: requests are due at the `schedule` offsets (seconds from
/// the phase start) whatever the server's speed. Latency runs from the
/// due time, so a stalled server is charged for every request waiting
/// behind the stall. Requests still unsent `grace` after the last due
/// time count as failed.
pub fn open(
    g: &Generator<'_>,
    cursor: &AtomicU64,
    schedule: &[f64],
    grace: Duration,
    traced: bool,
) -> Phase {
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let horizon = t0 + Duration::from_secs_f64(schedule.last().copied().unwrap_or(0.0)) + grace;
    run_threads(t0, true, OPEN_CLIENTS, |log| {
        let mut buf = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed) as usize;
            let Some(&offset) = schedule.get(k) else {
                break;
            };
            let due = t0 + Duration::from_secs_f64(offset);
            let free = Instant::now();
            if free > horizon {
                log.fail(offset, "not sent before the open-loop horizon".into());
                continue;
            }
            if due > free {
                std::thread::sleep(due - free);
            }
            let sent = Instant::now();
            log.late_ns
                .push(sent.saturating_duration_since(due.max(free)).as_nanos() as u64);
            let seq = cursor.fetch_add(1, Ordering::Relaxed);
            let e = g.wl.stream[seq as usize % g.wl.stream.len()];
            let o = g.perform(seq, e, &mut buf);
            log.record(seq, e, offset, due, o, traced);
        }
    })
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples.
pub fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    *s.select_nth_unstable(rank).1
}
