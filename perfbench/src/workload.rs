//! Seeded workload generation: the document root and the request stream.
//!
//! Everything here is a pure function of `(workload, seed)`. The seed picks
//! document bytes, which document each request asks for, the arrival
//! nodes, and the open-loop arrival times; document names and the *shape*
//! of each workload (sizes per popularity rank, request-class shares,
//! arrival skew) are fixed, so two seeds give different inputs with the
//! same statistics, and the same names hash to the same cache stripes and
//! home nodes. Shares are drawn block-stratified — every block of the
//! stream holds the exact class counts, in seeded order — because a rare
//! heavy class (the 1.5 MB tail) drawn independently would swing a run's
//! byte mix by tens of percent.

use std::path::Path;

/// The 1.5 MB document size of the paper's Table 4.
pub const LARGE_DOC: usize = 1_500_000;

/// Entries in a generated request stream (runs wrap around it).
const STREAM_LEN: usize = 200_000;

/// Burn-handler work levels (LCG iterations): tens to a hundred µs each.
pub const BURN_COSTS: [u64; 3] = [25_000, 50_000, 100_000];

/// Argument sets the template requests cycle through.
const TEMPLATE_SETS: usize = 32;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so independent streams
    /// drawn from one seed do not coincide.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads. See `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One node, 64 small documents, uniform popularity, all cache hits.
    StaticSmall,
    /// Three nodes under the paper's policy, Zipf popularity over a
    /// corpus twice one node's cache, skewed arrivals.
    SwebZipf,
    /// Three nodes with peer transfer: dynamic handlers, cached
    /// templates, POSTs and peer-pulled static documents.
    DynamicPeer,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::StaticSmall, Kind::SwebZipf, Kind::DynamicPeer];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StaticSmall => "static-small",
            Kind::SwebZipf => "sweb-zipf",
            Kind::DynamicPeer => "dynamic-peer",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The fixed open-loop arrival rate, requests per second: about a
    /// quarter of the two-client closed-loop rate measured on a 2-vCPU
    /// x86-64 VM (kernel 6.18, epoll backend). At half that rate the open
    /// loop overloaded whenever hypervisor steal halved the VM's capacity,
    /// and latency then measured the backlog instead of the server. Fixed
    /// here, never recalibrated per run, so a faster server faces the
    /// same offered load.
    pub fn open_rate(self) -> f64 {
        match self {
            Kind::StaticSmall => 4000.0,
            Kind::SwebZipf => 3000.0,
            Kind::DynamicPeer => 2400.0,
        }
    }

    /// Requests of the stream replayed (and checked) as the cache-filling
    /// warm-up before any phase is timed.
    fn warmup(self) -> usize {
        match self {
            Kind::StaticSmall => 256,
            Kind::SwebZipf => 3000,
            Kind::DynamicPeer => 2000,
        }
    }
}

/// One generated document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    /// URL path, also the file's path under the docroot.
    pub path: String,
    /// Exact bytes every response for this document must carry.
    pub body: Vec<u8>,
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET` of `docs[i]`.
    Static(u32),
    /// `GET /cgi-bin/burn?cost=..&id=..` with a per-request unique id.
    Burn(u64),
    /// `GET /cgi-bin/template?..` with one of the fixed argument sets.
    Template(u8),
    /// `POST /cgi-bin/echo` with a seeded body of this many bytes.
    Echo(u16),
}

/// One request of the stream: what to ask, and which node it arrives at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The request.
    pub op: Op,
    /// Arrival node (the client's DNS answer).
    pub node: u8,
}

/// A fully generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Whether the cluster runs with peer transfer on.
    pub peer_transfer: bool,
    /// Static documents.
    pub docs: Vec<Doc>,
    /// Query strings of the template argument sets.
    pub templates: Vec<String>,
    /// The request stream (warm-up first, then the timed phases).
    pub stream: Vec<Entry>,
    /// Leading stream entries used as warm-up.
    pub warmup: usize,
}

impl Workload {
    /// Generate `kind` from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed, 1);
        let (nodes, peer_transfer) = match kind {
            Kind::StaticSmall => (1, false),
            Kind::SwebZipf => (3, false),
            Kind::DynamicPeer => (3, true),
        };
        let sizes = match kind {
            Kind::StaticSmall => (0..64).map(|k| 256 + (8192 - 256) * k / 63).collect(),
            Kind::SwebZipf => zipf_sizes(2400, 16 << 10, 16),
            Kind::DynamicPeer => zipf_sizes(2000, 48 << 10, 0),
        };
        let docs = make_docs(&mut rng, &sizes);
        let templates = (0..TEMPLATE_SETS)
            .map(|k| {
                format!(
                    "title=T{k}-{:x}&name=n{:x}",
                    rng.next_u64() as u16,
                    rng.next_u64() as u32
                )
            })
            .collect();
        let stream = match kind {
            Kind::StaticSmall => stream_uniform(&mut rng, docs.len()),
            Kind::SwebZipf => stream_zipf(&mut rng, &sizes),
            Kind::DynamicPeer => stream_dynamic(&mut rng, &sizes),
        };
        Workload {
            kind,
            seed,
            nodes,
            peer_transfer,
            docs,
            templates,
            stream,
            warmup: kind.warmup(),
        }
    }

    /// Write every document under `root` (created if missing).
    pub fn write_docroot(&self, root: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(root)?;
        for doc in &self.docs {
            std::fs::write(root.join(doc.path.trim_start_matches('/')), &doc.body)?;
        }
        Ok(())
    }

    /// Request target (path and query) of `op` at stream position `seq`.
    pub fn target(&self, op: Op, seq: u64) -> String {
        match op {
            Op::Static(i) => self.docs[i as usize].path.clone(),
            Op::Burn(cost) => format!("/cgi-bin/burn?cost={cost}&id={:x}-{seq}", self.seed),
            Op::Template(t) => format!("/cgi-bin/template?{}", self.templates[t as usize]),
            Op::Echo(_) => format!("/cgi-bin/echo?id={seq}"),
        }
    }

    /// The raw HTTP/1.0 request bytes for stream position `seq`.
    pub fn request_bytes(&self, op: Op, seq: u64) -> Vec<u8> {
        let target = self.target(op, seq);
        match op {
            Op::Echo(len) => {
                let body = self.echo_body(len, seq);
                let mut out = format!(
                    "POST {target} HTTP/1.0\r\nHost: sweb\r\nContent-Type: text/plain\r\n\
                     Content-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                out.extend_from_slice(&body);
                out
            }
            _ => format!("GET {target} HTTP/1.0\r\nHost: sweb\r\n\r\n").into_bytes(),
        }
    }

    /// The seeded POST body for an echo request at stream position `seq`.
    pub fn echo_body(&self, len: u16, seq: u64) -> Vec<u8> {
        let mut rng = Rng::new(self.seed ^ seq, 7);
        (0..len).map(|_| b'a' + rng.below(26) as u8).collect()
    }
}

/// Seeded printable-ASCII bodies of the given sizes, under fixed names.
fn make_docs(rng: &mut Rng, sizes: &[usize]) -> Vec<Doc> {
    sizes
        .iter()
        .enumerate()
        .map(|(k, &size)| {
            let path = format!("/d{k:04}.html");
            let mut body = Vec::with_capacity(size);
            while body.len() < size {
                let word = rng.next_u64();
                for b in word.to_le_bytes() {
                    if body.len() < size {
                        body.push(b' ' + (b % 95));
                    }
                }
            }
            Doc { path, body }
        })
        .collect()
}

/// Sizes by popularity rank (index 0 is the most popular): log-uniform
/// between 512 B and `max_small`, spread over ranks by the golden ratio so
/// every rank band holds the full size range, plus `large` documents of
/// [`LARGE_DOC`] bytes at evenly spaced ranks.
fn zipf_sizes(n: usize, max_small: usize, large: usize) -> Vec<usize> {
    let phi = 0.618_033_988_749_894_9_f64;
    let ratio = (max_small as f64 / 512.0).ln();
    let mut sizes: Vec<usize> = (0..n)
        .map(|r| (512.0 * (ratio * ((r as f64 + 1.0) * phi).fract()).exp()) as usize)
        .collect();
    if let Some(stride) = n.checked_div(large) {
        for j in 0..large {
            sizes[stride / 2 + j * stride] = LARGE_DOC;
        }
    }
    sizes
}

/// Every block of the stream visits each of the `n` documents once, in
/// seeded order: uniform popularity with exact per-block counts.
fn stream_uniform(rng: &mut Rng, n: usize) -> Vec<Entry> {
    let mut stream = Vec::with_capacity(STREAM_LEN);
    let mut block: Vec<u32> = (0..n as u32).collect();
    while stream.len() < STREAM_LEN {
        rng.shuffle(&mut block);
        stream.extend(block.iter().map(|&i| Entry {
            op: Op::Static(i),
            node: 0,
        }));
    }
    stream.truncate(STREAM_LEN);
    stream
}

/// Zipf(1.0) sampler over a subset of ranks.
struct Zipf {
    ranks: Vec<u32>,
    cdf: Vec<f64>,
}

impl Zipf {
    fn over(ranks: Vec<u32>) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = ranks
            .iter()
            .map(|&r| {
                acc += 1.0 / (r as f64 + 1.0);
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { ranks, cdf }
    }

    fn total_weight(ranks: &[u32]) -> f64 {
        ranks.iter().map(|&r| 1.0 / (r as f64 + 1.0)).sum()
    }

    fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.ranks.len() - 1);
        self.ranks[i]
    }
}

/// Zipf over the corpus with the large-document tail stratified: each
/// block holds the expected number of large requests at seeded positions.
/// Arrivals are skewed: half land on node 0 (DNS caching), the rest split
/// evenly over the other nodes.
fn stream_zipf(rng: &mut Rng, sizes: &[usize]) -> Vec<Entry> {
    const BLOCK: usize = 2000;
    let (large, small): (Vec<u32>, Vec<u32>) =
        (0..sizes.len() as u32).partition(|&r| sizes[r as usize] >= LARGE_DOC);
    let large_share =
        Zipf::total_weight(&large) / (Zipf::total_weight(&large) + Zipf::total_weight(&small));
    let large_per_block = (large_share * BLOCK as f64).round() as usize;
    let (large, small) = (Zipf::over(large), Zipf::over(small));
    let mut stream = Vec::with_capacity(STREAM_LEN);
    let mut slots: Vec<bool> = (0..BLOCK).map(|i| i < large_per_block).collect();
    let mut nodes = [0u8, 0, 1, 2];
    while stream.len() < STREAM_LEN {
        rng.shuffle(&mut slots);
        for (i, &is_large) in slots.iter().enumerate() {
            if i % nodes.len() == 0 {
                rng.shuffle(&mut nodes);
            }
            let doc = if is_large {
                large.sample(rng)
            } else {
                small.sample(rng)
            };
            stream.push(Entry {
                op: Op::Static(doc),
                node: nodes[i % nodes.len()],
            });
        }
    }
    stream.truncate(STREAM_LEN);
    stream
}

/// The dynamic mix, stratified per block of 20: 7 burns, 4 templates,
/// 2 echo POSTs and 7 static Zipf fetches, arriving round-robin.
fn stream_dynamic(rng: &mut Rng, sizes: &[usize]) -> Vec<Entry> {
    const BLOCK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3];
    let zipf = Zipf::over((0..sizes.len() as u32).collect());
    let mut stream = Vec::with_capacity(STREAM_LEN);
    let mut block = BLOCK;
    while stream.len() < STREAM_LEN {
        rng.shuffle(&mut block);
        for &class in &block {
            let op = match class {
                0 => Op::Burn(BURN_COSTS[rng.below(BURN_COSTS.len())]),
                1 => Op::Template(rng.below(TEMPLATE_SETS) as u8),
                2 => Op::Echo(1024 + rng.below(3073) as u16),
                _ => Op::Static(zipf.sample(rng)),
            };
            let node = (stream.len() % 3) as u8;
            stream.push(Entry { op, node });
        }
    }
    stream.truncate(STREAM_LEN);
    stream
}

/// Seeded exponential inter-arrival offsets (seconds from phase start)
/// for a Poisson process at `rate` over `seconds`.
pub fn poisson_schedule(seed: u64, salt: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 100 + salt);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}
