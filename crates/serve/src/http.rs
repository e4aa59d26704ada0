//! Minimal HTTP/1.1 framing over any `std::io::BufRead`.
//!
//! The server speaks HTTP/1.1 keep-alive: a connection carries a
//! sequence of requests, each framed by `content-length`, answered in
//! order. Every connection owns **one** buffered reader for its whole
//! life and [`read_request`] takes the head and the body from that same
//! reader, so a client may *pipeline* — write several requests
//! back-to-back before reading — and the framing stays unambiguous:
//! bytes the buffer picked up beyond one request's body are not lost,
//! they wait in the connection's buffer and are the start of the next
//! request. (Reading through a buffer is also what makes a request cost
//! one `read` syscall instead of one per head byte.) A request carrying
//! `Connection: close` (or a response serialized with
//! `keep_alive = false`) ends the connection after that exchange. Header
//! and body sizes are capped so a malformed or hostile peer cannot grow
//! buffers without bound. `content-length` is the only framing: a
//! request that names a `transfer-encoding`, or two lengths that
//! disagree, is refused before its body is touched — read either way it
//! would leave bytes behind to be parsed as a request nobody sent.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// `GET`, `POST`, ... (upper-case as sent).
    pub(crate) method: String,
    /// The request target, e.g. `/lookup`.
    pub(crate) path: String,
    /// Header `(name, value)` pairs with names lower-cased.
    pub(crate) headers: Vec<(String, String)>,
    /// Raw body bytes (`content-length` framed).
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`read_head`] stopped before the blank line that ends a head.
#[derive(Debug)]
pub(crate) enum HeadError {
    /// The peer closed the stream first.
    Closed,
    /// More than the cap arrived without a blank line.
    TooLarge,
    /// The underlying read failed or timed out; whatever arrived before
    /// it is in `head`.
    Io(io::Error),
}

/// Reads one message head into the empty `head`: every byte up to and
/// including the first `CRLFCRLF`, and not one byte of what follows it. Both ends
/// of a connection frame with this — the server a request head, the
/// client a response head, each under its own `cap`. At most `cap + 1`
/// bytes are ever taken from `reader` or held in `head`.
pub(crate) fn read_head(
    reader: &mut impl BufRead,
    cap: usize,
    head: &mut Vec<u8>,
) -> Result<(), HeadError> {
    let mut capped = reader.by_ref().take(cap as u64 + 1);
    loop {
        // A line at a time: the terminator ends in `\n`, so checking
        // after every line finds its first occurrence.
        let n = capped.read_until(b'\n', head).map_err(HeadError::Io)?;
        if head.len() > cap {
            return Err(HeadError::TooLarge);
        }
        if n == 0 {
            return Err(HeadError::Closed);
        }
        if head.ends_with(b"\r\n\r\n") {
            return Ok(());
        }
    }
}

/// Reads one request from `reader`, which must be the connection's one
/// buffered reader (see the module docs): exactly the head and the
/// `content-length` body are consumed, and anything the buffer holds
/// beyond them stays there for the next call.
///
/// # Errors
/// A static description of the framing problem (oversized head, missing
/// terminator, bad or conflicting content length, a transfer encoding,
/// body larger than `max_body`). After an `Err` the reader's position
/// is not a request boundary: the caller must close the connection.
pub(crate) fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, &'static str> {
    let mut head = Vec::with_capacity(512);
    match read_head(reader, MAX_HEAD_BYTES, &mut head) {
        Ok(()) => {}
        Err(HeadError::TooLarge) => return Err("request head too large"),
        // A timeout with nothing read yet is an idle keep-alive
        // connection going away, not a framing error.
        Err(HeadError::Io(_)) if !head.is_empty() => return Err("read failed or timed out"),
        Err(HeadError::Closed | HeadError::Io(_)) => {
            return Err("connection closed before request head")
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| "request head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or("malformed header line")?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err("transfer-encoding is not supported");
    }
    let mut lengths = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| "bad content-length"));
    let content_length = lengths.next().transpose()?.unwrap_or(0);
    for repeated in lengths {
        if repeated? != content_length {
            return Err("conflicting content-length");
        }
    }
    if content_length > max_body {
        return Err("request body too large");
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| "truncated request body")?;
    Ok(Request { method, path, headers, body })
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    /// HTTP status code.
    pub(crate) status: u16,
    /// `Content-Type` value.
    pub(crate) content_type: &'static str,
    /// Additional headers (e.g. `Retry-After`).
    pub(crate) extra_headers: Vec<(String, String)>,
    /// Response body.
    pub(crate) body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub(crate) fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response with the given status.
    pub(crate) fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// Adds one extra header.
    pub(crate) fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.to_string(), value.to_string()));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes `resp` onto `stream` and flushes, advertising
/// `connection: keep-alive` or `close` per `keep_alive`. Write errors
/// are swallowed: the peer may have hung up, and the connection's fate
/// is already decided either way.
pub(crate) fn write_response(stream: &mut TcpStream, resp: &Response, keep_alive: bool) {
    let mut out = String::with_capacity(resp.body.len() + 128);
    out.push_str("HTTP/1.1 ");
    out.push_str(&resp.status.to_string());
    out.push(' ');
    out.push_str(reason(resp.status));
    out.push_str("\r\ncontent-type: ");
    out.push_str(resp.content_type);
    out.push_str("\r\ncontent-length: ");
    out.push_str(&resp.body.len().to_string());
    for (name, value) in &resp.extra_headers {
        out.push_str("\r\n");
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
    }
    out.push_str(if keep_alive {
        "\r\nconnection: keep-alive\r\n\r\n"
    } else {
        "\r\nconnection: close\r\n\r\n"
    });
    out.push_str(&resp.body);
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::BufReader;

    const POST: &[u8] =
        b"POST /lookup HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"q\":\"a\"}";
    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";
    const METRICS: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";

    /// A reader that hands out `chunk` bytes per `read` and counts the
    /// calls: the worst-case socket (`chunk` 1) and the syscall counter.
    struct Dribble<'a> {
        rest: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = self.chunk.min(buf.len()).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    fn parse(mut raw: &[u8], max_body: usize) -> Result<Request, &'static str> {
        read_request(&mut raw, max_body)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(POST, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/lookup");
        assert_eq!(req.header("content-length"), Some("9"));
        assert_eq!(req.body, b"{\"q\":\"a\"}");
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = b"POST /lookup HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        assert_eq!(parse(raw, 10).err(), Some("request body too large"));
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(HEALTHZ, 0).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn pipelined_requests_come_back_one_per_call() {
        let wire = [POST, HEALTHZ, METRICS].concat();
        let mut reader: &[u8] = &wire;
        let first = read_request(&mut reader, 1024).unwrap();
        assert_eq!(first.path, "/lookup");
        assert_eq!(first.body, b"{\"q\":\"a\"}");
        assert_eq!(reader, &wire[POST.len()..], "reader must sit exactly at the next request");
        assert_eq!(read_request(&mut reader, 1024).unwrap().path, "/healthz");
        assert_eq!(reader, METRICS);
        assert_eq!(read_request(&mut reader, 1024).unwrap().path, "/metrics");
        assert!(reader.is_empty());
        assert_eq!(
            read_request(&mut reader, 1024).err(),
            Some("connection closed before request head")
        );
    }

    #[test]
    fn one_byte_reads_parse_identically_and_a_buffer_costs_one_read() {
        let wire = [POST, HEALTHZ, METRICS].concat();
        let run = |chunk: usize| {
            let mut reader = BufReader::new(Dribble { rest: &wire, chunk, reads: 0 });
            let got: Vec<String> = (0..3)
                .map(|_| format!("{:?}", read_request(&mut reader, 1024).unwrap()))
                .collect();
            (got, reader.into_inner().reads)
        };
        let (dribbled, _) = run(1);
        let (whole, reads) = run(usize::MAX);
        assert_eq!(dribbled, whole);
        assert!(dribbled[0].contains("path: \"/lookup\"") && dribbled[2].contains("/metrics"));
        assert_eq!(reads, 1, "three requests that arrived together are one read, not one per byte");
    }

    #[test]
    fn unterminated_head_is_refused_at_the_cap() {
        let flood = vec![b'a'; 4 * MAX_HEAD_BYTES];
        let mut reader: &[u8] = &flood;
        assert_eq!(read_request(&mut reader, 1024).err(), Some("request head too large"));
        assert_eq!(flood.len() - reader.len(), MAX_HEAD_BYTES + 1, "nothing is taken past the cap");
        // The same with line ends, so no single line is long.
        let lines = b"x: y\r\n".repeat(MAX_HEAD_BYTES);
        assert_eq!(parse(&lines, 1024).err(), Some("request head too large"));
        // A terminated head of exactly the cap still parses.
        let mut fits = b"GET / HTTP/1.1\r\nx: ".to_vec();
        fits.resize(MAX_HEAD_BYTES - 4, b'a');
        fits.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse(&fits, 0).unwrap().path, "/");
        fits.insert(20, b'a');
        assert_eq!(parse(&fits, 0).err(), Some("request head too large"));
    }

    #[test]
    fn framing_errors_keep_their_strings() {
        for (raw, why) in [
            (&b""[..], "connection closed before request head"),
            (b"POST /lookup HTTP/1.1\r\nHost", "connection closed before request head"),
            (b"POST /lookup HTTP/1.1\r\ncontent-length: 11\r\n\r\n", "request body too large"),
            (b"POST /lookup HTTP/1.1\r\ncontent-length: ten\r\n\r\n", "bad content-length"),
            (b"POST /lookup HTTP/1.1\r\ncontent-length: -1\r\n\r\n", "bad content-length"),
            (b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"q\":", "truncated request body"),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nx\r\n0\r\n\r\n",
                "transfer-encoding is not supported",
            ),
            (
                b"POST / HTTP/1.1\r\ncontent-length: 2\r\ntransfer-encoding: identity\r\n\r\n{}",
                "transfer-encoding is not supported",
            ),
            (
                b"POST / HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 0\r\n\r\n{}",
                "conflicting content-length",
            ),
            (
                b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: x\r\n\r\n{}",
                "bad content-length",
            ),
            (b"POST /lookup HTTP/1.1\r\nno colon here\r\n\r\n", "malformed header line"),
            (b"\r\n\r\n", "missing method"),
            (b"GET\r\n\r\n", "missing path"),
            (b"GET /\xff HTTP/1.1\r\n\r\n", "request head is not UTF-8"),
        ] {
            assert_eq!(parse(raw, 10).err(), Some(why), "{:?}", String::from_utf8_lossy(raw));
        }
    }

    /// The desync a chunked body used to cause: framed by the (absent)
    /// `content-length` it was a bodiless request, answered, and then its
    /// chunks were parsed as a second request. Refused, the reader has
    /// taken the head and not one byte of what follows; the connection
    /// loop answers one `400` and closes, so the rest is never parsed.
    #[test]
    fn a_chunked_request_is_refused_with_its_body_unread() {
        let head = b"POST /lookup HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        let chunks = b"f\r\n{\"q\":\"x\",\"k\":2}\r\n0\r\n\r\n";
        let wire = [&head[..], chunks].concat();
        let mut reader: &[u8] = &wire;
        assert_eq!(
            read_request(&mut reader, 1024).err(),
            Some("transfer-encoding is not supported")
        );
        assert_eq!(reader, chunks);

        // Lengths that disagree are refused the same way; repeated, they
        // are one length.
        let head = b"POST / HTTP/1.1\r\ncontent-length: 15\r\ncontent-length: 0\r\n\r\n";
        let wire = [&head[..], b"{\"q\":\"x\",\"k\":2}"].concat();
        let mut reader: &[u8] = &wire;
        assert_eq!(read_request(&mut reader, 1024).err(), Some("conflicting content-length"));
        assert_eq!(reader.len(), 15);
        let twice = b"POST / HTTP/1.1\r\ncontent-length: 2\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse(twice, 10).unwrap().body, b"{}");
    }

    /// A reader whose data runs out into a timeout instead of EOF, as a
    /// socket with a read timeout does.
    struct ThenTimeout<'a>(&'a [u8]);

    impl Read for ThenTimeout<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn idle_timeout_is_a_close_and_a_mid_head_timeout_is_an_error() {
        let read = |raw| read_request(&mut BufReader::new(ThenTimeout(raw)), 10).err();
        assert_eq!(read(b""), Some("connection closed before request head"));
        assert_eq!(read(b"GET /healthz HT"), Some("read failed or timed out"));
        assert_eq!(
            read(b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nab"),
            Some("truncated request body")
        );
    }

    /// What an independent reading of the wire says a request may take:
    /// its head (through the first blank line, or the cap) and, when the
    /// head declares one that fits — and no transfer encoding — its body.
    fn allowance(wire: &[u8], max_body: usize) -> usize {
        let head_end = wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(wire.len(), |at| at + 4)
            .min(MAX_HEAD_BYTES + 1);
        let head = String::from_utf8_lossy(&wire[..head_end]);
        let named = |header: &'static str| {
            head.split("\r\n")
                .skip(1)
                .filter_map(|line| line.split_once(':'))
                .filter(move |(name, _)| name.trim().eq_ignore_ascii_case(header))
        };
        if named("transfer-encoding").next().is_some() {
            return head_end;
        }
        let declared = named("content-length")
            .next()
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .filter(|&n| n <= max_body)
            .unwrap_or(0);
        head_end + declared
    }

    /// Seeded mutations of valid requests (byte flips, truncations,
    /// doubled CRLFs, giant and negative lengths, a pipelined tail, a
    /// second length, a transfer encoding):
    /// `read_request` always returns, and never takes more from the
    /// reader than the head plus the body that head declares.
    #[test]
    fn mutated_requests_never_panic_or_over_consume() {
        const MAX_BODY: usize = 64;
        let lengths: [&[u8]; 6] =
            [b"-1", b"18446744073709551616", b"99999999999", b"0x10", b"", b"65"];
        let mut rng = StdRng::seed_from_u64(0x4854_5450);
        let (mut parsed, mut refused, mut encoded) = (0u32, 0u32, 0u32);
        for case in 0..12_000u32 {
            let mut wire = [POST, HEALTHZ, METRICS][case as usize % 3].to_vec();
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..=wire.len());
                match rng.gen_range(0..7u32) {
                    0 if at < wire.len() => wire[at] ^= 1 << rng.gen_range(0..8u32),
                    1 => wire.truncate(at),
                    2 => drop(wire.splice(at..at, *b"\r\n")),
                    3 => {
                        // Swap the declared length for a hostile one.
                        if let Some(p) = wire.windows(2).position(|w| w == b": ") {
                            let line_end = wire[p..].iter().position(|&b| b == b'\r');
                            let end = line_end.map_or(wire.len(), |e| p + e);
                            let hostile = lengths[rng.gen_range(0..lengths.len())];
                            drop(wire.splice(p + 2..end, hostile.iter().copied()));
                        }
                    }
                    4 => wire.extend_from_slice(HEALTHZ),
                    5 => drop(wire.splice(at..at, b"Content-Length: 7\r\n".iter().copied())),
                    _ => {
                        // A transfer encoding, as a header line of its
                        // own wherever the wire has a line end.
                        let ends: Vec<usize> =
                            (2..=wire.len()).filter(|&e| wire[..e].ends_with(b"\r\n")).collect();
                        let at = ends.get(rng.gen_range(0..=ends.len())).copied().unwrap_or(at);
                        drop(wire.splice(at..at, b"Transfer-Encoding: chunked\r\n".iter().copied()));
                    }
                }
            }
            let mut reader: &[u8] = &wire;
            let outcome = read_request(&mut reader, MAX_BODY);
            let consumed = wire.len() - reader.len();
            let allowed = allowance(&wire, MAX_BODY);
            match outcome {
                Ok(req) => {
                    parsed += 1;
                    assert_eq!(consumed, allowed, "case {case}: took {consumed}");
                    assert!(req.body.len() <= MAX_BODY);
                }
                Err(why) => {
                    refused += 1;
                    encoded += u32::from(why == "transfer-encoding is not supported");
                    assert!(consumed <= allowed, "case {case}: took {consumed} of {allowed}");
                }
            }
        }
        assert!(parsed > 1_000 && refused > 1_000, "one-sided corpus: {parsed} / {refused}");
        assert!(encoded > 300, "only {encoded} cases reached the transfer-encoding refusal");
    }
}
