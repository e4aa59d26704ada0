//! The load generator's own HTTP/1.1 client.
//!
//! `emblookup_serve::client` is not used: its response reader issues one
//! `read` per header byte, which would tax every served number, and any
//! change to `serve` would change the generator with it. This client
//! keeps one `TCP_NODELAY` keep-alive socket behind a `BufReader`, frames
//! responses by `content-length`, and captures the two headers the
//! checker needs. Sending, waiting for the first byte and reading the
//! rest are separate calls so the traced pass can put a span around each.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a response body the generator will buffer.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One keep-alive connection and the last response read from it.
pub struct Conn {
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    /// Status code of the last response.
    pub status: u16,
    /// Body of the last response.
    pub body: Vec<u8>,
    /// `x-emblookup-trace-id` of the last response, as sent.
    pub trace_id: String,
    /// `x-emblookup-shards` of the last response (`answered/total`).
    pub shards: String,
}

/// A complete request, ready to be written in one call.
pub fn build_request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nhost: emblookup\r\ncontent-length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

fn bad(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a 30 s read timeout.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: Vec::with_capacity(128),
            status: 0,
            body: Vec::with_capacity(4096),
            trace_id: String::new(),
            shards: String::new(),
        })
    }

    /// Writes one request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(request)?;
        stream.flush()
    }

    /// Blocks until the first byte of the response is available.
    pub fn wait(&mut self) -> io::Result<()> {
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// Reads the response head and its `content-length` bytes of body.
    pub fn read_response(&mut self) -> io::Result<()> {
        self.trace_id.clear();
        self.shards.clear();
        let mut content_length = 0usize;
        let mut first = true;
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated response head",
                ));
            }
            let line = std::str::from_utf8(&self.line)
                .map_err(|_| bad("response head is not UTF-8"))?
                .trim_end();
            if first {
                // "HTTP/1.1 200 OK"
                self.status = line
                    .split_ascii_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("malformed status line"))?;
                first = false;
            } else if line.is_empty() {
                break;
            } else if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("x-emblookup-trace-id") {
                    self.trace_id.push_str(value);
                } else if name.eq_ignore_ascii_case("x-emblookup-shards") {
                    self.shards.push_str(value);
                }
            } else {
                return Err(bad("malformed header line"));
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(bad("response body too large"));
        }
        self.body.resize(content_length, 0);
        self.reader.read_exact(&mut self.body)
    }

    /// One full exchange.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<()> {
        self.send(request)?;
        self.wait()?;
        self.read_response()
    }

    /// The last body as text (empty when it is not UTF-8).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server that reads `requests` framed requests and
    /// answers each with the next canned response.
    fn canned_server(
        responses: Vec<Vec<u8>>,
    ) -> (SocketAddr, std::thread::JoinHandle<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            for resp in responses {
                // requests in these tests are small and arrive whole
                let mut buf = vec![0u8; 4096];
                let n = stream.read(&mut buf).unwrap();
                buf.truncate(n);
                seen.push(buf);
                // dribble the response out to exercise partial reads
                for chunk in resp.chunks(7) {
                    stream.write_all(chunk).unwrap();
                    stream.flush().unwrap();
                }
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn frames_by_content_length_and_captures_headers() {
        let first = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 13\r\n\
                      X-EmbLookup-Shards: 2/2\r\nx-emblookup-trace-id: 00000000000000ab\r\n\
                      connection: keep-alive\r\n\r\n{\"rung\":\"ok\"}"
            .to_vec();
        let second = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n".to_vec();
        let (addr, server) = canned_server(vec![first, second]);
        let mut conn = Conn::open(addr).unwrap();
        let req = build_request(
            "POST",
            "/lookup",
            &[("x-emblookup-deadline-ms", "9")],
            "{\"q\":\"a\"}",
        );
        conn.roundtrip(&req).unwrap();
        assert_eq!(conn.status, 200);
        assert_eq!(conn.body_str(), "{\"rung\":\"ok\"}");
        assert_eq!(conn.shards, "2/2");
        assert_eq!(conn.trace_id, "00000000000000ab");
        // the keep-alive socket is reused and stale headers do not leak
        conn.send(&build_request("GET", "/healthz", &[], ""))
            .unwrap();
        conn.wait().unwrap();
        conn.read_response().unwrap();
        assert_eq!(conn.status, 429);
        assert!(conn.body.is_empty() && conn.shards.is_empty() && conn.trace_id.is_empty());
        let seen = server.join().unwrap();
        assert_eq!(
            seen[0],
            b"POST /lookup HTTP/1.1\r\nhost: emblookup\r\ncontent-length: 9\r\n\
              x-emblookup-deadline-ms: 9\r\n\r\n{\"q\":\"a\"}"
        );
        assert!(seen[1].starts_with(b"GET /healthz HTTP/1.1\r\n"));
    }

    #[test]
    fn a_closed_or_garbled_peer_is_an_error_not_a_hang() {
        let (addr, server) = canned_server(vec![
            b"HTTP/1.1 200 OK\r\ncontent-length: 50\r\n\r\nshort".to_vec(),
        ]);
        let mut conn = Conn::open(addr).unwrap();
        assert!(conn
            .roundtrip(&build_request("GET", "/x", &[], ""))
            .is_err());
        server.join().unwrap();
        let (addr, server) = canned_server(vec![b"garbage\r\n\r\n".to_vec()]);
        let mut conn = Conn::open(addr).unwrap();
        assert!(conn
            .roundtrip(&build_request("GET", "/x", &[], ""))
            .is_err());
        server.join().unwrap();
    }
}
