//! Server-side counts: `/sweb-status?format=json` fetched from every node
//! around each phase, summed over nodes and differenced.

use std::sync::atomic::{AtomicU64, Ordering};

use sweb_server::{LiveCluster, StatusReport};
use sweb_telemetry::Json;

use crate::client;

/// Status pages this process has fetched. Each one is a response the
/// node writes *after* gathering its report, so it shows up in the
/// transmit counters of the next snapshot.
static STATUS_FETCHES: AtomicU64 = AtomicU64::new(0);

/// Cluster-wide totals of the status counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Status pages fetched before this snapshot.
    pub status_fetches: u64,
    /// Requests fulfilled locally.
    pub served: u64,
    /// 302s issued.
    pub redirected: u64,
    /// Poller kernel entries.
    pub syscalls: u64,
    /// Responses streamed with `sendfile(2)`.
    pub sendfile: u64,
    /// Responses sent with zero-copy `writev`.
    pub zero_copy: u64,
    /// Requests served after a peer pull.
    pub peer_fetches: u64,
    /// Document-cache hits.
    pub cache_hits: u64,
    /// Document-cache misses.
    pub cache_misses: u64,
    /// Document-cache evictions (read from the live cache: the status
    /// document does not carry them).
    pub evictions: u64,
    /// Dynamic response-cache hits.
    pub dyn_hits: u64,
    /// Dynamic response-cache misses.
    pub dyn_misses: u64,
    /// Requests refused 503 by admission control.
    pub shed: u64,
    /// Requests failed for missing a deadline phase.
    pub deadline_overruns: u64,
    /// Peer pulls that failed and degraded.
    pub forward_failures: u64,
    /// Bad peer-channel frames.
    pub peer_frames_bad: u64,
    /// Undecodable loadd packets.
    pub loadd_decode_errors: u64,
}

impl Counts {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Counts) -> Counts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counts {
            status_fetches: d(self.status_fetches, before.status_fetches),
            served: d(self.served, before.served),
            redirected: d(self.redirected, before.redirected),
            syscalls: d(self.syscalls, before.syscalls),
            sendfile: d(self.sendfile, before.sendfile),
            zero_copy: d(self.zero_copy, before.zero_copy),
            peer_fetches: d(self.peer_fetches, before.peer_fetches),
            cache_hits: d(self.cache_hits, before.cache_hits),
            cache_misses: d(self.cache_misses, before.cache_misses),
            evictions: d(self.evictions, before.evictions),
            dyn_hits: d(self.dyn_hits, before.dyn_hits),
            dyn_misses: d(self.dyn_misses, before.dyn_misses),
            shed: d(self.shed, before.shed),
            deadline_overruns: d(self.deadline_overruns, before.deadline_overruns),
            forward_failures: d(self.forward_failures, before.forward_failures),
            peer_frames_bad: d(self.peer_frames_bad, before.peer_frames_bad),
            loadd_decode_errors: d(self.loadd_decode_errors, before.loadd_decode_errors),
        }
    }

    /// Responses the nodes wrote: documents and dynamic replies, 302s,
    /// and the benchmark's own status pages.
    pub fn responses(&self) -> u64 {
        self.served + self.redirected + self.status_fetches
    }

    /// Server-side failures no client check sees directly: each one is a
    /// failed operation and must read as such in the error share.
    pub fn guard_failures(&self) -> u64 {
        self.shed
            + self.deadline_overruns
            + self.forward_failures
            + self.peer_frames_bad
            + self.loadd_decode_errors
    }
}

/// Fetch node `i`'s status document.
pub fn status(cluster: &LiveCluster, i: usize) -> Result<StatusReport, String> {
    let addr = cluster
        .base_url(i)
        .trim_start_matches("http://")
        .parse()
        .map_err(|_| "address")?;
    let req = b"GET /sweb-status?format=json HTTP/1.0\r\n\r\n";
    STATUS_FETCHES.fetch_add(1, Ordering::Relaxed);
    let (reply, _) = client::exchange(addr, req, &mut Vec::new())?;
    if reply.status != 200 {
        return Err(format!("status page answered {}", reply.status));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|_| "status page is not UTF-8")?;
    StatusReport::from_json(&Json::parse(text)?)
}

/// Snapshot every node's counters.
pub fn snapshot(cluster: &LiveCluster) -> Result<Counts, String> {
    let mut c = Counts {
        status_fetches: STATUS_FETCHES.load(Ordering::Relaxed),
        ..Counts::default()
    };
    for i in 0..cluster.len() {
        let s = status(cluster, i)?;
        let k = &s.counters;
        c.served += k.served;
        c.redirected += k.redirected;
        c.syscalls += s.io.syscalls;
        c.sendfile += k.sendfile;
        c.zero_copy += k.zero_copy;
        c.peer_fetches += k.peer_fetches;
        c.cache_hits += s.cache.hits;
        c.cache_misses += s.cache.misses;
        c.evictions += cluster.node(i).file_cache.evictions();
        c.dyn_hits += s.dynamic_cache.hits;
        c.dyn_misses += s.dynamic_cache.misses;
        c.shed += k.shed;
        c.deadline_overruns += k.deadline_overruns;
        c.forward_failures += k.forward_failures;
        c.peer_frames_bad += k.peer_frames_bad;
        c.loadd_decode_errors += k.loadd_decode_errors;
    }
    Ok(c)
}

/// The I/O backend each shard of each node actually ran, `n<i>:<backend>`.
pub fn io_backends(cluster: &LiveCluster) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for i in 0..cluster.len() {
        for shard in status(cluster, i)?.shards {
            out.push(format!("n{i}s{}:{}", shard.shard, shard.io_backend));
        }
    }
    Ok(out)
}
