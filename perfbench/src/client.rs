//! A minimal blocking HTTP/1.1 keep-alive client: one request in flight
//! per connection, `Content-Length` framing only, `TCP_NODELAY` on.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Renders one request with a JSON body, keep-alive.
pub fn render_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body.as_bytes());
    wire
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The server announced `Connection: close` on the last response.
    closed: bool,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            closed: false,
        })
    }

    /// Whether the connection can carry another request.
    pub fn is_open(&self) -> bool {
        !self.closed
    }

    /// Sends pre-rendered request bytes and reads one response:
    /// `(status, body)`.
    pub fn request(&mut self, wire: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                self.closed = true;
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        Ok((status, self.buf[head_end..head_end + length].to_vec()))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            self.closed = true;
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}
