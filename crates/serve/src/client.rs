//! A tiny blocking HTTP/1.1 client on `std::net::TcpStream`.
//!
//! Exists so the integration tests, the load generator, and the
//! `emblookup-cli query` subcommand can exercise the server without
//! pulling in an external HTTP dependency. [`Connection`] holds one
//! keep-alive socket and frames responses by `content-length`, so a
//! bulk loop pays TCP setup once; the one-shot [`request`] helper is a
//! connection opened for a single `Connection: close` exchange.

use crate::http::{read_head, HeadError};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status, lower-cased headers, body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs with names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body as text.
    pub body: String,
}

impl HttpResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request on a connection of its own, asking the server to
/// close it after the response.
///
/// # Errors
/// Propagates connect/read/write failures and malformed response
/// framing as `io::Error`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<HttpResponse> {
    Connection::open(addr)?.exchange(method, path, headers, body, "close")
}

/// `GET path`.
///
/// # Errors
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, &[], "")
}

/// `POST path` with a JSON body.
///
/// # Errors
/// See [`request`].
pub fn post_json(
    addr: SocketAddr,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> std::io::Result<HttpResponse> {
    let mut all = vec![("content-type", "application/json")];
    all.extend_from_slice(headers);
    request(addr, "POST", path, &all, body)
}

/// One keep-alive connection to a server; requests reuse the socket.
#[derive(Debug)]
pub struct Connection {
    /// Reads go through the buffer; writes go to the socket under it.
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects with a 30 s read timeout.
    ///
    /// # Errors
    /// Propagates connect/configure failures.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection { reader: BufReader::new(stream) })
    }

    /// Sends one request on the kept-alive socket and reads one
    /// `content-length`-framed response.
    ///
    /// # Errors
    /// Propagates read/write failures and malformed framing as
    /// `io::Error`; the connection should be dropped after an error.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<HttpResponse> {
        self.exchange(method, path, headers, body, "keep-alive")
    }

    /// Writes one request carrying `connection: <connection>` and reads
    /// its response.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        connection: &str,
    ) -> std::io::Result<HttpResponse> {
        let mut out = String::with_capacity(body.len() + 128);
        out.push_str(method);
        out.push(' ');
        out.push_str(path);
        out.push_str(" HTTP/1.1\r\nhost: emblookup\r\ncontent-length: ");
        out.push_str(&body.len().to_string());
        for (name, value) in headers {
            out.push_str("\r\n");
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
        }
        out.push_str("\r\nconnection: ");
        out.push_str(connection);
        out.push_str("\r\n\r\n");
        out.push_str(body);
        let stream = self.reader.get_mut();
        stream.write_all(out.as_bytes())?;
        stream.flush()?;
        read_framed_response(&mut self.reader)
    }

    /// `GET path` on the kept-alive socket.
    ///
    /// # Errors
    /// See [`Connection::request`].
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path, &[], "")
    }

    /// `POST path` with a JSON body on the kept-alive socket.
    ///
    /// # Errors
    /// See [`Connection::request`].
    pub fn post_json(
        &mut self,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<HttpResponse> {
        let mut all = vec![("content-type", "application/json")];
        all.extend_from_slice(headers);
        self.request("POST", path, &all, body)
    }
}

/// Upper bound on a response head.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Reads one response head (framed exactly as the server frames a
/// request head) plus its `content-length` body.
fn read_framed_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<HttpResponse> {
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let mut head = Vec::with_capacity(256);
    read_head(reader, MAX_HEAD_BYTES, &mut head).map_err(|why| match why {
        HeadError::Closed => {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed")
        }
        HeadError::TooLarge => bad(),
        HeadError::Io(e) => e,
    })?;
    let mut resp = parse_response(&head).ok_or_else(bad)?;
    let content_length: usize = resp
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(bad)?;
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    resp.body = String::from_utf8_lossy(&body).into_owned();
    Ok(resp)
}

fn parse_response(raw: &[u8]) -> Option<HttpResponse> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let status: u16 = status_line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Some(HttpResponse {
        status,
        headers,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_framing() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"error\":\"shed\"}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, "{\"error\":\"shed\"}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_none());
    }
}
