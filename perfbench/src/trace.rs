//! Per-layer spans for the traced run.
//!
//! The root span of each request is the client's own record (send to last
//! body byte, keyed by the response's `X-SWEB-Trace`). Its child spans
//! time this benchmark's calls into each layer's public functions on that
//! request's exact inputs: the request bytes are parsed, the broker
//! decides over the arrival node's live load table, the document is
//! fetched through a file cache or the peer channel, the handler runs,
//! and the response head is serialized. The program itself is not
//! instrumented.
//!
//! Children are replayed after the phase's closing status snapshot, so
//! they neither slow the measured requests nor move the status counters.
//! Calls that mutate state run on bench-owned instances of the same type
//! and size: one `FileCache` per node, fed every request that node served
//! so its residency tracks the live cache; a private `PeerPool`; the demo
//! handler registry. A child span therefore estimates what that layer
//! cost the request; the root's remainder (kernel, loopback, queueing in
//! the engine) is its self time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sweb_core::{CostInputs, RequestClass, RequestInfo};
use sweb_http::{mime_for_path, try_parse_request, Method, Response};
use sweb_server::file_cache::key_of;
use sweb_server::{home_of, DynamicRegistry, FileCache, HandlerCtx, LiveCluster};

use crate::gen::Root;
use crate::workload::{Op, Workload};

/// Root spans whose children are replayed (evenly strided over a phase).
const SAMPLED_ROOTS: usize = 2000;

/// One child span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Its root span (the request): position in completion order.
    pub root: usize,
    /// Layer call it timed.
    pub name: &'static str,
    /// Duration, ns.
    pub ns: u64,
}

/// Children of the sampled roots, and the closure statistic.
#[derive(Debug, Default)]
pub struct Trace {
    /// Every child span recorded.
    pub spans: Vec<Span>,
    /// Summed root durations of the sampled roots, ns.
    pub root_ns: u64,
    /// Summed root self time (duration not covered by children), ns.
    pub self_ns: u64,
}

impl Trace {
    /// Median duration of spans named `name`, ns (0 when none ran).
    pub fn median_ns(&self, name: &str) -> u64 {
        let v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns)
            .collect();
        crate::gen::quantile(&v, 0.5)
    }

    /// Share of root time no child span accounts for.
    pub fn unattributed_share(&self) -> f64 {
        self.self_ns as f64 / self.root_ns.max(1) as f64
    }
}

fn timed<T>(spans: &mut Vec<Span>, root: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = black_box(f());
    spans.push(Span {
        root,
        name,
        ns: t0.elapsed().as_nanos() as u64,
    });
    out
}

/// Replay the layer calls of `roots` (in completion order) and attach the
/// children of an evenly strided sample of them.
pub fn replay(
    wl: &Workload,
    cluster: &LiveCluster,
    docroot: &std::path::Path,
    roots: &[Root],
) -> Trace {
    let caches: Vec<FileCache> = (0..cluster.len())
        .map(|i| FileCache::new(cluster.node(i).file_cache.capacity()))
        .collect();
    let pool = sweb_peer::PeerPool::new(cluster.node(0).peer_tcp.clone());
    let handlers = DynamicRegistry::demo();
    let stride = roots.len().div_ceil(SAMPLED_ROOTS).max(1);
    let mut order: Vec<&Root> = roots.iter().collect();
    order.sort_by_key(|r| r.end);
    let mut trace = Trace::default();
    for (idx, root) in order.iter().enumerate() {
        if idx % stride != 0 {
            // Unsampled requests only keep the bench caches in step.
            if let Op::Static(i) = root.entry.op {
                let path = &wl.docs[i as usize].path;
                let full = docroot.join(path.trim_start_matches('/'));
                caches[root.served_by as usize]
                    .read(path, &full)
                    .expect("generated document reads");
            }
            continue;
        }
        let mut spans = Vec::new();
        let node = cluster.node(root.served_by as usize);
        let arrival = cluster.node(root.entry.node as usize);
        let raw = wl.request_bytes(root.entry.op, root.seq);
        let (req, used) = timed(&mut spans, idx, "http.parse", || try_parse_request(&raw))
            .ok()
            .flatten()
            .expect("the benchmark's own requests parse");
        let path = req.path().expect("generated paths are clean");
        let dynamic = req
            .is_cgi()
            .then(|| handlers.lookup(&path).expect("demo handler"));
        let size = match root.entry.op {
            Op::Static(i) => wl.docs[i as usize].body.len() as u64,
            _ => dynamic.map_or(0, |h| h.size_hint()),
        };
        let info = RequestInfo {
            file: key_of(&path),
            size,
            home: home_of(&path, cluster.len()),
            cpu_ops: match dynamic {
                Some(h) => arrival.oracle.characterize_dynamic(h.class(), &path, size),
                None => arrival.oracle.characterize(&path, size),
            },
            redirected: false,
            pinned_local: req.method == Method::Post,
            cached_at_origin: dynamic.is_none()
                && (arrival.sweb.cache_aware_cost || arrival.sweb.peer_transfer)
                && arrival.file_cache.resident(&path),
            class: dynamic.map_or(RequestClass::Static, |h| RequestClass::Dynamic(h.class())),
        };
        let decision = {
            let loads = arrival.loads.read();
            let inputs = CostInputs {
                cluster: &arrival.cluster,
                loads: &loads,
            };
            timed(&mut spans, idx, "broker.decide", || {
                arrival.broker.decide(&info, arrival.id, &inputs)
            })
        };
        let mut resp = match (dynamic, root.entry.op) {
            (Some(h), _) => {
                let name = match h.class() {
                    "burn" => "dynamic.handle.burn",
                    "template" => "dynamic.handle.template",
                    "echo" => "dynamic.handle.echo",
                    other => unreachable!("no workload calls the {other} handler"),
                };
                let ctx = HandlerCtx {
                    shared: node,
                    deadline: None,
                };
                timed(&mut spans, idx, name, || h.handle(&ctx, &req, &raw[used..]))
            }
            (None, Op::Static(i)) => {
                let doc = &wl.docs[i as usize];
                let cache = &caches[root.served_by as usize];
                let full = docroot.join(path.trim_start_matches('/'));
                let body = match decision.peer_source() {
                    Some(src) if !root.redirected => {
                        let body = timed(&mut spans, idx, "peer.fetch", || {
                            pool.fetch(
                                src.index(),
                                info.file.0,
                                &path,
                                &root.trace,
                                Duration::from_secs(2),
                            )
                            .map(|d| d.body)
                            .expect("peer pull of a generated document")
                        });
                        // The live node caches what it pulled; so does
                        // the bench copy.
                        cache.read(&path, &full).expect("generated document reads");
                        body
                    }
                    _ => {
                        if cache.resident(&path) {
                            timed(&mut spans, idx, "file_cache.hit", || cache.get(info.file))
                                .expect("resident document")
                                .0
                                .to_vec()
                        } else {
                            timed(&mut spans, idx, "file_cache.miss", || {
                                cache.read(&path, &full)
                            })
                            .expect("generated document reads")
                            .0
                            .to_vec()
                        }
                    }
                };
                assert_eq!(body, doc.body, "layer replay fetched the wrong bytes");
                Response::ok(body, mime_for_path(&path))
            }
            (None, _) => unreachable!("only static ops lack a handler"),
        };
        resp.headers.set("X-SWEB-Node", root.served_by.to_string());
        resp.headers.set("X-SWEB-Trace", root.trace.as_str());
        timed(&mut spans, idx, "http.head", || resp.to_wire_parts(false));
        let root_ns = root.end.saturating_duration_since(root.start).as_nanos() as u64;
        let child_ns: u64 = spans.iter().map(|s| s.ns).sum();
        trace.root_ns += root_ns;
        trace.self_ns += root_ns.saturating_sub(child_ns);
        trace.spans.append(&mut spans);
    }
    trace
}
