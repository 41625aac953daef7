//! A minimal HTTP/1.1 client for the daemon's one-request-per-connection
//! front end, with the connect timed apart from the exchange.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// When the connect began.
    pub sent: Instant,
    /// Time to establish the connection.
    pub connect: Duration,
    /// Time from the first byte written to the last byte read.
    pub exchange: Duration,
}

/// Sends `method path` with `body` and reads the whole response.
///
/// # Errors
///
/// Any I/O failure, or a response that is not HTTP.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connect = t0.elapsed();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let t1 = Instant::now();
    let wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(wire.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let exchange = t1.elapsed();
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let text = String::from_utf8(raw).map_err(|_| bad("response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
        sent: t0,
        connect,
        exchange,
    })
}
