//! The benchmark's own HTTP/1.0 client: one connection per request, at
//! most one 302 followed, and a response parser that shares no code with
//! the server under test (so a server-side framing bug cannot hide behind
//! a matching client-side one).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one exchange may take before it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed response.
#[derive(Debug, Default)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Header lines, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `Content-Length`).
    pub body: Vec<u8>,
}

impl Reply {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Send `request` to `addr` on a fresh connection and read the response.
/// Returns it with the instant its last body byte arrived. The connection
/// is then read to EOF, so the server (HTTP/1.0: it closes after one
/// response) closes first and keeps the TIME_WAIT state.
pub fn exchange(
    addr: SocketAddr,
    request: &[u8],
    buf: &mut Vec<u8>,
) -> Result<(Reply, Instant), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .set_write_timeout(Some(TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    buf.clear();
    let mut head_end = None;
    let mut want = usize::MAX;
    let mut chunk = [0u8; 64 << 10];
    let done_at = loop {
        if buf.len() >= want {
            break Instant::now();
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err(format!("connection closed after {} bytes", buf.len()));
        }
        buf.extend_from_slice(&chunk[..n]);
        if head_end.is_none() {
            if let Some(end) = find(buf, b"\r\n\r\n") {
                head_end = Some(end + 4);
                let len = content_length(&buf[..end]).ok_or("response without Content-Length")?;
                want = end + 4 + len;
                buf.reserve(want.saturating_sub(buf.len()));
            }
        }
    };
    // The server closes next; anything beyond Content-Length is a
    // framing error.
    match stream.read(&mut chunk) {
        Ok(0) => {}
        Ok(_) => return Err("bytes beyond Content-Length".into()),
        Err(e) => return Err(format!("read to EOF: {e}")),
    }
    if buf.len() != want {
        return Err(format!(
            "body length {} != Content-Length {}",
            buf.len(),
            want
        ));
    }
    let head_end = head_end.expect("set before want");
    let mut reply = parse_head(&buf[..head_end - 4])?;
    reply.body = buf[head_end..].to_vec();
    Ok((reply, done_at))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &[u8]) -> Option<usize> {
    let head = std::str::from_utf8(head).ok()?;
    head.split("\r\n").skip(1).find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse().ok())?
    })
}

fn parse_head(head: &[u8]) -> Result<Reply, String> {
    let head = std::str::from_utf8(head).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Reply {
        status,
        headers,
        body: Vec::new(),
    })
}

/// Split an absolute `http://host:port/target` Location into the socket
/// address and the request target.
pub fn split_location(location: &str) -> Option<(SocketAddr, &str)> {
    let rest = location.strip_prefix("http://")?;
    let slash = rest.find('/')?;
    let addr = rest[..slash].parse().ok()?;
    Some((addr, &rest[slash..]))
}
