//! Connection handling: parse, schedule (serve or 302), fulfill.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;
use sweb_cluster::{FileId, NodeId, Placement};
use sweb_core::{AdmitClass, Decision, RequestClass, RequestInfo};
use sweb_http::{
    mime_for_path, parse_request, Method, ParseError, Request, Response, StatusCode,
};
use sweb_telemetry::{Phase, RequestDeadline};

use crate::node::NodeShared;

/// How long we wait for a complete request head.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Maximum requests served over one keep-alive connection.
const KEEPALIVE_LIMIT: u32 = 64;

/// Smallest document worth streaming via `sendfile` instead of buffering:
/// below this the fd bookkeeping costs more than the copy it saves.
const SENDFILE_MIN: u64 = 256 << 10;

/// Wall-clock bound on one peer pull when the request carries no
/// deadline of its own (thread engine without a budget, tests).
const FORWARD_BUDGET: Duration = Duration::from_secs(2);

/// The document's "home" node. Every node shares one document root (the
/// NFS crossmount); homes are assigned by hashing the path — the same
/// FNV-1a the file cache keys on, so home placement, cache digests and
/// residency checks all live in one `FileId` namespace.
pub fn home_of(path: &str, nodes: usize) -> NodeId {
    Placement::Hashed.home(crate::file_cache::key_of(path), nodes)
}

/// Serve one connection. HTTP/1.0 closes after each response; as a
/// labelled *extension* the server honors `Connection: Keep-Alive`
/// (responses always carry `Content-Length`, so framing is unambiguous).
pub fn handle_connection(shared: Arc<NodeShared>, mut stream: TcpStream, accepted_at: Instant) {
    shared.stats.active.inc();
    let accept_us = accepted_at.elapsed().as_micros() as u64;
    shared.stats.phases.record(Phase::Accept, accept_us);
    // The threaded engine's queue-sojourn signal: how long the accepted
    // connection waited for a handler thread to start. (The reactor feeds
    // its worker-queue wait through the same controller.)
    if shared.overload_control {
        let inflated = if shared.chaos.is_active() {
            accept_us + shared.chaos.overload_sojourn(shared.id.0).unwrap_or(0)
        } else {
            accept_us
        };
        shared.admission.observe(inflated);
    }
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let peer_host = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "-".to_string());
    let mut carry: Vec<u8> = Vec::new();
    for _round in 0..KEEPALIVE_LIMIT {
        let (mut response, head_only, keep_alive, logged) =
            match read_request(&shared, &mut stream, &mut carry) {
                Ok((req, parse_started)) => {
                    let head_only = req.method == Method::Head;
                    let keep = req
                        .headers
                        .get("connection")
                        .map(|v| v.eq_ignore_ascii_case("keep-alive"))
                        .unwrap_or(false);
                    let method = method_str(req.method);
                    let body = match read_body(&mut stream, &mut carry, &req) {
                        Ok(body) => body,
                        Err(()) => {
                            shared.stats.bad_requests.inc();
                            let resp = Response::error(StatusCode::BadRequest);
                            let _ = stream.write_all(&resp.to_bytes(false));
                            break;
                        }
                    };
                    shared
                        .stats
                        .phases
                        .record(Phase::Parse, parse_started.elapsed().as_micros() as u64);
                    let deadline = RequestDeadline::new(parse_started, shared.request_budget);
                    let resp = if deadline.overrun(Phase::Parse) {
                        shared.stats.deadline_overruns.inc();
                        overloaded(&shared)
                    } else {
                        respond(&shared, &req, &body, Some(&deadline))
                    };
                    (resp, head_only, keep, Some((method, req.target.clone())))
                }
                Err(ParseError::Incomplete) => break, // client closed / idle
                Err(_) => {
                    shared.stats.bad_requests.inc();
                    (Response::error(StatusCode::BadRequest), false, false, None)
                }
            };
        if let (Some(log), Some((method, target))) = (&shared.access_log, &logged) {
            let trace = response.headers.get("x-sweb-trace");
            log.log(&peer_host, method, target, response.status.code(), response.body.len() as u64, trace);
        }
        // A response that asked for `Connection: close` (deadline overrun,
        // overload shedding) overrides the client's keep-alive wish.
        let keep_alive = keep_alive
            && !response
                .headers
                .get("connection")
                .map(|v| v.eq_ignore_ascii_case("close"))
                .unwrap_or(false);
        if keep_alive {
            response.headers.set("Connection", "Keep-Alive");
        }
        let wire = response.to_bytes(head_only);
        shared.stats.bytes_in_flight.add(wire.len() as i64);
        let write_started = Instant::now();
        let write_ok = stream.write_all(&wire).is_ok() && stream.flush().is_ok();
        shared.stats.bytes_in_flight.sub(wire.len() as i64);
        if write_ok {
            shared
                .stats
                .phases
                .record(Phase::Write, write_started.elapsed().as_micros() as u64);
        }
        if !write_ok || !keep_alive {
            break;
        }
    }
    shared.stats.active.dec();
}

/// Read one request head from the stream. `carry` holds bytes already read
/// beyond the previous request (keep-alive pipelining). The returned
/// instant is when the request's first byte became available (parse-phase
/// start), so keep-alive idle time is not charged to parsing.
///
/// Slowloris guard: once the first byte of a request arrives, the whole
/// head must complete within an *absolute* deadline (a quarter of the
/// request budget, capped at [`READ_TIMEOUT`]). The deadline is fixed at
/// first byte and never extended — a client dribbling one header byte
/// per read keeps the socket warm but cannot keep the head open, because
/// each successful read shrinks the remaining window instead of
/// resetting the 10 s idle timeout. Expiry counts as an eviction and
/// closes the connection.
fn read_request(
    shared: &NodeShared,
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> Result<(Request, Instant), ParseError> {
    let head_budget = (shared.request_budget / 4)
        .min(READ_TIMEOUT)
        .max(Duration::from_millis(1));
    // Waiting for a request to *start* gets the full idle timeout (the
    // keep-alive case); the tighter head deadline arms at first byte.
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut chunk = [0u8; 1024];
    let mut first_byte: Option<Instant> = (!carry.is_empty()).then(Instant::now);
    loop {
        match parse_request(carry) {
            Ok((req, used)) => {
                carry.drain(..used);
                return Ok((req, first_byte.unwrap_or_else(Instant::now)));
            }
            Err(ParseError::Incomplete) => {}
            Err(e) => return Err(e),
        }
        if let Some(started) = first_byte {
            let elapsed = started.elapsed();
            if elapsed >= head_budget {
                shared.stats.evicted.inc();
                return Err(ParseError::Incomplete);
            }
            let _ = stream.set_read_timeout(Some(head_budget - elapsed));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ParseError::Incomplete),
            Ok(n) => {
                first_byte.get_or_insert_with(Instant::now);
                carry.extend_from_slice(&chunk[..n]);
            }
            Err(_) => {
                if first_byte.is_some() {
                    // Mid-head stall past the deadline: evicted, not idle.
                    shared.stats.evicted.inc();
                }
                return Err(ParseError::Incomplete);
            }
        }
    }
}

/// Largest accepted POST body.
const MAX_BODY_BYTES: u64 = 1 << 20;

/// Read the request body (`Content-Length` bytes) for methods that carry
/// one. `carry` may already hold a prefix of it from head reads.
fn read_body(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    req: &Request,
) -> Result<Vec<u8>, ()> {
    if req.method != Method::Post {
        return Ok(Vec::new());
    }
    let len = req.headers.content_length().ok_or(())?;
    if len > MAX_BODY_BYTES {
        return Err(());
    }
    let len = len as usize;
    let mut chunk = [0u8; 4096];
    while carry.len() < len {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(()),
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(()),
        }
    }
    let body = carry[..len].to_vec();
    carry.drain(..len);
    Ok(body)
}

/// CLF method tag for a parsed request.
pub(crate) fn method_str(method: Method) -> &'static str {
    match method {
        Method::Get => "GET",
        Method::Head => "HEAD",
        Method::Post => "POST",
        Method::Other => "OTHER",
    }
}

/// The one load-derived `Retry-After` value every 503 path stamps: the
/// admission controller scales it with how far the last closed window's
/// queue delay stood above target, so a client backs off longer the
/// deeper the overload.
pub(crate) fn retry_after_secs(shared: &NodeShared) -> u64 {
    shared.admission.retry_after_secs()
}

/// The load-shedding answer for a request that blew its budget or was
/// refused admission: `503` with a load-derived `Retry-After`, on a
/// connection we are about to close. A definite refusal the client can
/// act on beats an open socket that never answers.
pub(crate) fn overloaded(shared: &NodeShared) -> Response {
    let mut resp = Response::error(StatusCode::ServiceUnavailable);
    resp.headers.set("Retry-After", retry_after_secs(shared).to_string());
    resp.headers.set("Connection", "close");
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    resp
}

/// §3.2 steps 1–4 over a real request, materialized: any streamable file
/// body is read into memory. The thread-per-conn engine (whose write path
/// is a single contiguous buffer) funnels requests through here, running
/// the front half and the blocking remainder back to back.
pub(crate) fn respond(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    deadline: Option<&RequestDeadline>,
) -> Response {
    let (mut resp, file) = match respond_front(shared, req, body, deadline) {
        Front::Done(parts) => parts,
        Front::Blocked(rest) => rest.run(shared, req, body, deadline),
    };
    if let Some((mut f, len)) = file {
        let mut buf = Vec::with_capacity(len as usize);
        match Read::by_ref(&mut f).take(len).read_to_end(&mut buf) {
            Ok(n) if n as u64 == len => resp.body = buf.into(),
            _ => return Response::error(StatusCode::InternalServerError),
        }
    }
    resp
}

/// One answer: the response, plus — for large uncacheable documents — the
/// open file to stream (`sendfile`) as its body, with its length.
pub(crate) type Parts = (Response, Option<(std::fs::File, u64)>);

/// How far [`respond_front`] got.
pub(crate) enum Front {
    /// Answered without blocking.
    Done(Parts),
    /// The next step may block: finish with [`Remainder::run`], on a
    /// thread that may block.
    Blocked(Remainder),
}

/// The blocking remainder of one request's pipeline. It carries every
/// decision the front half took — admission, the scheduler's choice, a
/// response-cache miss — so running it never takes one twice (a second
/// `Broker::choose` would double the load bump and the feedback sample).
pub(crate) struct Remainder {
    trace: String,
    stage: Stage,
}

impl Remainder {
    /// Finish the pipeline, blocking where it must.
    pub(crate) fn run(
        self,
        shared: &NodeShared,
        req: &Request,
        body: &[u8],
        deadline: Option<&RequestDeadline>,
    ) -> Parts {
        let parts = match advance(shared, req, body, &self.trace, deadline, self.stage, true) {
            Ok(parts) | Err(Stop::Answered(parts)) => parts,
            Err(Stop::Blocked(_)) => unreachable!("a pass that may block never stops short"),
        };
        stamp_trace(parts, self.trace)
    }
}

/// Where a deferred pipeline resumes.
enum Stage {
    /// Nothing decided yet: the whole pipeline runs on the worker.
    Start,
    /// Admitted, but the document is not resident: its existence stat and
    /// everything after it.
    Resolve(Admitted),
    /// Scheduled: the peer pull or local fulfillment.
    Fetch(Scheduled),
}

/// Why [`advance`] stopped before producing the answer itself.
enum Stop {
    /// An early answer (4xx, 5xx, 304, 302).
    Answered(Parts),
    /// The next step may block; resume here.
    Blocked(Box<Stage>),
}

fn answered(resp: Response) -> Stop {
    Stop::Answered((resp, None))
}

/// A request past admission.
struct Admitted {
    path: String,
    is_dynamic: bool,
    /// The one residency probe: it picks the admission class, decides
    /// whether the loop may stat the document, and feeds the scheduler's
    /// `cached_at_origin`.
    resident: bool,
}

/// A request the scheduler kept (or pulls from a peer): what the fetch
/// needs.
struct Scheduled {
    path: String,
    size: u64,
    file: FileId,
    redirected: bool,
    decision: Decision,
    target: Target,
}

enum Target {
    /// A document, with the mtime its existence stat read — the file
    /// cache validates against it instead of stat-ing again.
    Document { full: PathBuf, mtime: SystemTime },
    /// A dynamic handler class, and its response-cache probe.
    Handler { class: &'static str, probe: CacheProbe },
}

/// A dynamic request's response-cache lookup, made at most once so the
/// cache's hit/miss counters see each request once.
#[derive(Default)]
enum CacheProbe {
    #[default]
    NotYet,
    /// Looked up under this key (`None`: the handler doesn't cache) and
    /// missed.
    Missed(Option<String>),
}

/// The front half of §3.2 steps 1–4, for the reactor's loop thread: it
/// answers from memory — resident documents (200, 304, HEAD), dynamic
/// response-cache hits, redirects, early 4xx/5xx — and stops before the
/// first step that may block: a stat of a document the file cache does
/// not hold, a disk read, a peer pull, a handler invocation, an injected
/// stall. Its only system call is the stat that validates a resident
/// document's mtime.
///
/// Every response carries an `X-SWEB-Trace` header: the id the request
/// arrived with (carried through a 302 hop as a `sweb-trace` query
/// parameter) or a freshly minted one, so one logical request is joinable
/// across nodes in the access logs.
pub(crate) fn respond_front(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    deadline: Option<&RequestDeadline>,
) -> Front {
    let trace = sweb_http::trace_of(&req.target)
        .map(str::to_owned)
        .unwrap_or_else(|| shared.stats.new_trace_id(shared.id));
    match advance(shared, req, body, &trace, deadline, Stage::Start, false) {
        Ok(parts) | Err(Stop::Answered(parts)) => Front::Done(stamp_trace(parts, trace)),
        Err(Stop::Blocked(stage)) => Front::Blocked(Remainder { trace, stage: *stage }),
    }
}

fn stamp_trace(mut parts: Parts, trace: String) -> Parts {
    parts.0.headers.set("X-SWEB-Trace", trace);
    parts
}

/// The routed pipeline from `stage` on: preprocess, admit, analyze,
/// schedule, and either redirect (carrying `trace` in the Location URL)
/// or fulfill locally. Unless `may_block`, it stops at the first step
/// that may block and returns the stage to resume at. Phase budgets are
/// checked after scheduling and after fulfillment; an overrun yields the
/// [`overloaded`] refusal instead of the (possibly half-built) answer.
fn advance(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    trace: &str,
    deadline: Option<&RequestDeadline>,
    stage: Stage,
    may_block: bool,
) -> Result<Parts, Stop> {
    let sched = match stage {
        Stage::Start => {
            let admitted = admit(shared, req, may_block)?;
            schedule(shared, req, trace, deadline, admitted, may_block)?
        }
        Stage::Resolve(admitted) => schedule(shared, req, trace, deadline, admitted, may_block)?,
        Stage::Fetch(sched) => sched,
    };
    fetch(shared, req, body, trace, deadline, sched, may_block)
}

/// Step 1, preprocess (method check, path completion), and admission.
fn admit(shared: &NodeShared, req: &Request, may_block: bool) -> Result<Admitted, Stop> {
    if !req.method.is_supported() {
        return Err(answered(Response::error(StatusCode::NotImplemented)));
    }
    let Some(path) = req.path() else {
        return Err(answered(Response::error(StatusCode::Forbidden))); // traversal attempt
    };
    let admin = path == crate::status::STATUS_PATH || path == crate::status::METRICS_PATH;
    // The loop leaves to the worker path, undecided: the admin pages
    // (rendering is not a lookup); every request while the admission
    // controller sheds, since its recovery feeds on the queue sojourn of
    // requests it sees; and every request while an injected fault slows
    // the whole node (brownout, overload), which applies on that path.
    if !may_block
        && (admin
            || (shared.overload_control && shared.admission.level() > 0)
            || shared.chaos.slows_every_request(shared.id.0))
    {
        return Err(Stop::Blocked(Box::new(Stage::Start)));
    }
    // Administrative endpoints: always answered by the node they reached.
    if path == crate::status::STATUS_PATH {
        return Err(answered(crate::status::render(shared, req.query())));
    }
    if path == crate::status::METRICS_PATH {
        return Err(answered(crate::status::render_metrics(shared)));
    }
    let is_dynamic = req.is_cgi();
    if req.method == Method::Post && !is_dynamic {
        // POST targets programs, not documents.
        return Err(answered(Response::error(StatusCode::MethodNotAllowed)));
    }
    if path.trim_start_matches('/').is_empty() {
        return Err(answered(Response::error(StatusCode::NotFound)));
    }
    let resident = !is_dynamic && shared.file_cache.resident(&path);
    // Adaptive admission (both engines funnel through here): classify the
    // request by what it would cost us and shed the expensive classes
    // first as the controller's level rises. Admin endpoints never reach
    // this point — an operator must be able to see an overloaded node.
    if shared.overload_control {
        let class = if is_dynamic {
            AdmitClass::Dynamic
        } else if resident {
            AdmitClass::StaticHit
        } else {
            AdmitClass::StaticMiss
        };
        if !shared.admission.admit(class) {
            shared.admission.shed();
            shared.stats.shed.inc();
            shared.stats.admission_shed_counter(class).inc();
            return Err(answered(overloaded(shared)));
        }
    }
    Ok(Admitted { path, is_dynamic, resident })
}

/// Existence, conditional GET, step 2 (analyze) and the scheduling
/// decision, which a redirect (step 3) answers directly.
fn schedule(
    shared: &NodeShared,
    req: &Request,
    trace: &str,
    deadline: Option<&RequestDeadline>,
    admitted: Admitted,
    may_block: bool,
) -> Result<Scheduled, Stop> {
    let Admitted { path, is_dynamic, resident } = admitted;
    // The loop stats only documents the cache holds: that stat validates
    // the cached copy, and the rest of a hit is memory work.
    if !may_block && !is_dynamic && !resident {
        let admitted = Admitted { path, is_dynamic, resident };
        return Err(Stop::Blocked(Box::new(Stage::Resolve(admitted))));
    }
    // Existence + size: a filesystem stat for documents, a registry lookup
    // (with the handler's own size hint) for dynamic requests. The
    // handler class rides into the scheduler so the oracle prices the
    // class, not just "CGI".
    let (size, target) = if is_dynamic {
        match shared.dynamic.registry().lookup(&path) {
            Some(handler) => (
                handler.size_hint(),
                Target::Handler { class: handler.class(), probe: CacheProbe::NotYet },
            ),
            None => {
                shared.stats.served.inc();
                return Err(answered(Response::error(StatusCode::NotFound)));
            }
        }
    } else {
        let full = shared.docroot.join(path.trim_start_matches('/'));
        let Ok(meta) = std::fs::metadata(&full) else {
            shared.stats.served.inc();
            return Err(answered(Response::error(StatusCode::NotFound)));
        };
        if !meta.is_file() {
            return Err(answered(Response::error(StatusCode::Forbidden)));
        }
        // Without an mtime no cached copy can be validated.
        let Ok(mtime) = meta.modified() else {
            return Err(answered(Response::error(StatusCode::InternalServerError)));
        };
        // Conditional GET: a fresh client copy costs us only the stat —
        // answer 304 here, before any scheduling.
        if let (Some(secs), Some(ims)) = (
            unix_secs(mtime),
            req.headers.get("if-modified-since").and_then(sweb_http::parse_http_date),
        ) {
            if secs <= ims {
                shared.stats.served.inc();
                let mut resp = Response {
                    status: StatusCode::NotModified,
                    headers: Default::default(),
                    body: Default::default(),
                };
                resp.headers.set("Last-Modified", sweb_http::format_http_date(secs));
                resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                return Err(answered(resp));
            }
        }
        (meta.len(), Target::Document { full, mtime })
    };

    // Step 2: analyze — build the scheduler's view of the request.
    let nodes = shared.cluster.len();
    let redirected = req.already_redirected();
    if redirected {
        shared.stats.received_redirects.inc();
    }
    let class = match &target {
        Target::Handler { class, .. } => Some(*class),
        Target::Document { .. } => None,
    };
    let file = crate::file_cache::key_of(&path);
    let info = RequestInfo {
        // Real identity: the same FileId the cache digests advertise, so
        // the broker can match this request against peers' digests.
        file,
        size,
        home: home_of(&path, nodes),
        // Dynamic classes are priced from the oracle's measured-feedback
        // table once it has samples; static paths from the rule table.
        cpu_ops: match class {
            Some(c) => shared.oracle.characterize_dynamic(c, &path, size),
            None => shared.oracle.characterize(&path, size),
        },
        redirected,
        // POST is non-idempotent: never reassign it (§3.2 step 2's
        // "always completed at x" class).
        pinned_local: !req.method.is_redirectable(),
        // Residency feeds both the cache-aware cost terms and the
        // peer-transfer pull gate (a resident document is never pulled).
        cached_at_origin: resident && (shared.sweb.cache_aware_cost || shared.sweb.peer_transfer),
        class: class.map_or(RequestClass::Static, RequestClass::Dynamic),
    };
    let decide_started = Instant::now();
    // Refresh our own entry so local load is never stale, and decide,
    // under one hold of the load-table lock.
    let load = crate::loadd::sample_load(shared);
    let decision = {
        let mut loads = shared.loads.write();
        loads.update(shared.id, load, shared.now());
        shared.broker.choose(&info, shared.id, &shared.cluster, &mut loads)
    };
    shared.stats.phases.record(Phase::Decide, decide_started.elapsed().as_micros() as u64);

    // Step 3: redirection — the trace id rides the Location URL, because
    // clients do not forward response headers across a 302.
    if let Some(target) = decision.redirect_target() {
        shared.stats.redirected.inc();
        return Err(answered(redirect(shared, target, req, trace)));
    }

    // A request that used most of its budget before fetching even starts
    // will not finish in time — refuse now, before paying for the I/O.
    if deadline.is_some_and(|d| d.overrun(Phase::Decide)) {
        shared.stats.deadline_overruns.inc();
        return Err(answered(overloaded(shared)));
    }
    Ok(Scheduled { path, size, file, redirected, decision, target })
}

/// A 302 to `target`'s copy of the request, the trace id riding along.
fn redirect(shared: &NodeShared, target: NodeId, req: &Request, trace: &str) -> Response {
    let base = &shared.peer_http[target.index()];
    let marked = sweb_http::mark_trace(&req.target, trace);
    let mut resp = Response::redirect_to_peer(base, &marked);
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    resp
}

/// Step 3½ (peer pull) and step 4 (local fulfillment).
fn fetch(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    trace: &str,
    deadline: Option<&RequestDeadline>,
    mut sched: Scheduled,
    may_block: bool,
) -> Result<Parts, Stop> {
    // Step 3½: peer pull — the comparison picked a peer that holds the
    // document in RAM, close enough to a tie that bouncing the client
    // (302) would cost more than it saves. Pull the body over the
    // cluster-internal peer channel instead: the client is answered by
    // the node it reached (no extra round trip, no Location chase), and
    // the pulled body seeds the local striped cache so repeats become
    // plain local hits. Dynamic requests never forward — the broker
    // doesn't propose it, and a Bloom false positive on a handler path
    // must not turn into a FETCH for a file that isn't one.
    if let (Some(source), Target::Document { .. }) = (sched.decision.peer_source(), &sched.target)
    {
        if !may_block {
            return Err(Stop::Blocked(Box::new(Stage::Fetch(sched))));
        }
        let path = &sched.path;
        let budget = deadline
            .map(|d| d.remaining())
            .filter(|d| !d.is_zero())
            .unwrap_or(FORWARD_BUDGET)
            .min(FORWARD_BUDGET);
        let forward_started = Instant::now();
        match crate::peer_transfer::fetch_via_peer(shared, source, sched.file, path, trace, budget)
        {
            Ok(doc) => {
                let forward_us = forward_started.elapsed().as_micros() as u64;
                shared.stats.phases.record(Phase::Forward, forward_us);
                shared.stats.peer_fetches.inc();
                shared.popularity.record(sched.file, path);
                let body = bytes::Bytes::from(doc.body);
                shared.file_cache.insert(path, body.clone(), doc.mtime);
                let cost = sched.decision.cost;
                shared.stats.feedback.record(cost.t_redirection, cost.t_data, cost.t_cpu, forward_us);
                if deadline.is_some_and(|d| d.overrun(Phase::Forward)) {
                    shared.stats.deadline_overruns.inc();
                    return Ok((overloaded(shared), None));
                }
                return Ok((document(shared, path, body, doc.mtime), None));
            }
            Err(_) => {
                // Degrade, never hang: bounce the client to the source
                // with a classic 302 when it can still be bounced (not
                // already redirected, source not known dead); otherwise
                // fall through and serve from the shared docroot.
                shared.stats.forward_failures.inc();
                let source_up = shared.loads.read().is_alive(source);
                if !sched.redirected && source_up {
                    shared.stats.redirected.inc();
                    return Ok((redirect(shared, source, req, trace), None));
                }
            }
        }
    }

    // Step 4: fulfillment, timed against the broker's prediction: the
    // chosen candidate's per-term estimate is what this very fetch was
    // scheduled on, so the pair feeds the prediction-error histograms.
    let fetch_started = Instant::now();
    let Some(result) = fulfill(shared, req, body, &mut sched, deadline, may_block) else {
        return Err(Stop::Blocked(Box::new(Stage::Fetch(sched))));
    };
    if let Target::Document { .. } = sched.target {
        // Count the serve toward this node's popularity table: these
        // counts feed loadd's hot-list piggyback and the replicator.
        shared.popularity.record(sched.file, &sched.path);
    }
    let fetch_us = fetch_started.elapsed().as_micros() as u64;
    shared.stats.phases.record(Phase::Fetch, fetch_us);
    let cost = sched.decision.cost;
    shared.stats.feedback.record(cost.t_redirection, cost.t_data, cost.t_cpu, fetch_us);
    if deadline.is_some_and(|d| d.overrun(Phase::Fetch)) {
        shared.stats.deadline_overruns.inc();
        return Ok((overloaded(shared), None));
    }
    Ok(result)
}

/// Run a filesystem read, retrying transient failures with bounded
/// backoff (two retries, 1 ms then 2 ms). `NotFound` is definitive — the
/// file will not appear because we waited — so it returns immediately;
/// anything else (EMFILE under fd pressure, EINTR, a flaky NFS mount)
/// gets a second and third chance before becoming a 500.
///
/// Each retry spends a token from the node's fetch retry budget (each
/// success deposits a fraction of one back): when most fetches are
/// failing, the budget drains and the node fails fast instead of
/// tripling the load on an already-struggling disk.
fn read_with_retry<T>(
    shared: &NodeShared,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut backoff = Duration::from_millis(1);
    for attempt in 0..3 {
        match op() {
            Ok(v) => {
                if shared.overload_control {
                    shared.fetch_retry_budget.on_success();
                }
                return Ok(v);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(e),
            Err(e) if attempt == 2 => return Err(e),
            Err(e) => {
                if shared.overload_control && !shared.fetch_retry_budget.try_retry() {
                    shared.stats.retry_budget_exhausted.inc();
                    return Err(e);
                }
                shared.stats.fetch_retries.inc();
                std::thread::sleep(backoff);
                backoff *= 2;
            }
        }
    }
    unreachable!("loop returns on attempt == 2")
}

/// Local fulfillment: answer from the file or response cache, else — when
/// `may_block` — invoke the dynamic handler or read the document; `None`
/// when only a blocking step could answer.
fn fulfill(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    sched: &mut Scheduled,
    deadline: Option<&RequestDeadline>,
    may_block: bool,
) -> Option<Parts> {
    // Fault injection: a browned-out node serves *everything* late —
    // dynamic and static alike — unlike SlowDisk, which models one slow
    // device. The stall sits in the fetch phase, where the deadline
    // check after fulfillment sees it. (While it applies, the front half
    // leaves every request to the worker path: the loop never sleeps.)
    if may_block && shared.chaos.is_active() {
        if let Some(extra) = shared.chaos.brownout_delay(shared.id.0) {
            std::thread::sleep(extra);
        }
    }
    let path = sched.path.as_str();
    let (full, mtime) = match &mut sched.target {
        Target::Handler { probe, .. } => {
            let resp = fulfill_dynamic(shared, req, body, path, probe, deadline, may_block)?;
            return Some((resp, None));
        }
        Target::Document { full, mtime } => (full.as_path(), *mtime),
    };
    if let Some(body) = shared.file_cache.hit(path, mtime) {
        return Some((document(shared, path, body, mtime), None));
    }
    if !may_block {
        return None;
    }
    // A degraded disk/NFS mount serves reads late, not wrong. Documents
    // answered from RAM above never touch it.
    if shared.chaos.is_active() {
        if let Some(extra) = shared.chaos.disk_delay(shared.id.0) {
            std::thread::sleep(extra);
        }
    }
    // Documents too big to ever fit the cache stream straight from the fd
    // (`sendfile`): buffering them would evict the whole hot set for one
    // request and still pay a copy. Everything cacheable goes through the
    // FileCache so repeat requests share one in-memory body.
    if sched.size >= SENDFILE_MIN && sched.size > shared.file_cache.capacity() {
        return Some(match read_with_retry(shared, || std::fs::File::open(full)) {
            Ok(f) => (document(shared, path, Bytes::new(), mtime), Some((f, sched.size))),
            Err(_) => (Response::error(StatusCode::InternalServerError), None),
        });
    }
    Some(match read_with_retry(shared, || shared.file_cache.read_validated(path, full, mtime)) {
        Ok(body) => (document(shared, path, body, mtime), None),
        Err(_) => (Response::error(StatusCode::InternalServerError), None),
    })
}

/// A served document: 200 with its type, `Last-Modified` and our node id.
fn document(shared: &NodeShared, path: &str, body: Bytes, mtime: SystemTime) -> Response {
    shared.stats.served.inc();
    let mut resp = Response::ok(body, mime_for_path(path));
    if let Some(secs) = unix_secs(mtime) {
        resp.headers.set("Last-Modified", sweb_http::format_http_date(secs));
    }
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    resp
}

fn unix_secs(t: SystemTime) -> Option<u64> {
    t.duration_since(std::time::UNIX_EPOCH).ok().map(|d| d.as_secs())
}

/// Dynamic fulfillment: response-cache lookup, then (when `may_block`)
/// handler invocation, timed — the measurement feeds the per-class
/// `t_cpu` histogram *and* the oracle's tuned table (converted to ops at
/// this node's clock), closing the predicted-vs-measured loop per handler
/// class. Only real invocations feed the oracle: a cache hit measures the
/// cache, not the handler.
fn fulfill_dynamic(
    shared: &NodeShared,
    req: &Request,
    body: &[u8],
    path: &str,
    probe: &mut CacheProbe,
    deadline: Option<&RequestDeadline>,
    may_block: bool,
) -> Option<Response> {
    let handler = shared.dynamic.registry().lookup(path).expect("existence checked above");
    let class = handler.class();
    let class_stats = shared.dynamic.class_stats(class);
    let key = match std::mem::take(probe) {
        CacheProbe::Missed(key) => key,
        CacheProbe::NotYet => {
            let key = handler.cache_key(req, body);
            let hit = key.as_deref().and_then(|k| shared.dynamic.cache.get(class, k));
            if let Some(mut resp) = hit {
                if let Some(s) = class_stats {
                    s.cache_hits.inc();
                }
                shared.stats.served.inc();
                resp.headers.set("X-SWEB-Dynamic-Cache", "hit");
                resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
                return Some(resp);
            }
            key
        }
    };
    if !may_block {
        *probe = CacheProbe::Missed(key);
        return None;
    }
    let ctx = crate::dynamic::HandlerCtx { shared, deadline };
    let invoke_started = Instant::now();
    let mut resp = handler.handle(&ctx, req, body);
    let invoke_us = invoke_started.elapsed().as_micros() as u64;
    if let Some(s) = class_stats {
        s.invocations.inc();
        s.tcpu_us.record(invoke_us);
    }
    // Convert wall time to load-independent work: the invocation ran at
    // the *effective* (load-degraded) rate, so that is the rate that maps
    // its duration back to operations. The cost model re-divides by the
    // same `1 + cpu_load` factor at prediction time (§3.2 t_cpu); feeding
    // the idle rate here would double-count the load.
    let ops_per_sec = shared.cluster.nodes[shared.id.index()].cpu_ops_per_sec;
    let cpu_load = shared.loads.read().load(shared.id).cpu;
    let effective = ops_per_sec / (1.0 + cpu_load);
    shared.oracle.observe(class, invoke_us as f64 * 1e-6 * effective);
    if resp.status == StatusCode::Ok {
        if let Some(k) = key.as_deref() {
            // Cache the reply *before* the per-request headers go on: a
            // future hit stamps its own node and cache markers.
            shared.dynamic.cache.insert(class, k, resp.clone(), handler.ttl());
            resp.headers.set("X-SWEB-Dynamic-Cache", "miss");
        }
    }
    shared.stats.served.inc();
    resp.headers.set("X-SWEB-Node", shared.id.0.to_string());
    Some(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_assignment_is_stable_and_in_range() {
        for nodes in 1..8 {
            for path in ["/a.html", "/maps/goleta.gif", "/x/y/z"] {
                let a = home_of(path, nodes);
                let b = home_of(path, nodes);
                assert_eq!(a, b);
                assert!((a.0 as usize) < nodes);
            }
        }
    }

    #[test]
    fn distinct_paths_spread_over_nodes() {
        let nodes = 4;
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(home_of(&format!("/doc{i}.html"), nodes));
        }
        assert!(seen.len() >= 3, "hash placement too clumpy: {seen:?}");
    }
}
