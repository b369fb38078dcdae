//! The host-speed reference: a bare HTTP/1.0 responder.
//!
//! A shared VM's speed drifts by tens of percent over minutes while
//! neighbours come and go, and CPU time per request drifts with it, so
//! neither wall-clock nor CPU-time throughput compares runs made at
//! different moments. The closed loop therefore alternates its windows
//! with short bursts against this responder — accept, read the request
//! head, write a fixed 4 KiB response, close: the kernel's share of an
//! HTTP/1.0 exchange and nothing of the server under test — through the
//! same client, on the same core. The server's rate over the responder's
//! rate in adjacent windows cancels the host's speed at that moment.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::client::{self, TIMEOUT};

/// Body bytes of every bare response: about the mean small document.
pub const BODY: usize = 4096;

/// The bare responder's exchange rate on the reference host (2-vCPU
/// x86-64 VM, kernel 6.18, the benchmark pinned to one core), 1/s.
/// Normalised rates are quoted at this host speed.
pub const REFERENCE_RPS: f64 = 18_000.0;

const REQUEST: &[u8] = b"GET /bare HTTP/1.0\r\n\r\n";

/// A running responder; dropping it stops the thread and waits for it.
pub struct Bare {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Bare {
    /// Bind a loopback port and start serving.
    pub fn start() -> std::io::Result<Bare> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut reply = format!("HTTP/1.0 200 OK\r\nContent-Length: {BODY}\r\n\r\n").into_bytes();
        reply.resize(reply.len() + BODY, b'b');
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("perfbench-bare".into())
            .spawn(move || {
                let mut head = Vec::new();
                for conn in listener.incoming() {
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(c) = conn {
                        let _ = respond(c, &mut head, &reply);
                    }
                }
            })?;
        Ok(Bare {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// One exchange, checked: status 200 and the fixed body length.
    pub fn exchange(&self, buf: &mut Vec<u8>) -> Result<(), String> {
        let (reply, _) = client::exchange(self.addr, REQUEST, buf)?;
        if reply.status != 200 || reply.body.len() != BODY {
            return Err(format!(
                "bare responder: status {} with {} bytes",
                reply.status,
                reply.body.len()
            ));
        }
        Ok(())
    }
}

/// Read one request head, write the reply, close.
fn respond(mut c: TcpStream, head: &mut Vec<u8>, reply: &[u8]) -> std::io::Result<()> {
    c.set_read_timeout(Some(TIMEOUT))?;
    head.clear();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = c.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        head.extend_from_slice(&chunk[..n]);
    }
    c.write_all(reply)
}

impl Drop for Bare {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocked accept so the thread sees the flag.
        let _ = TcpStream::connect_timeout(&self.addr, TIMEOUT);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
