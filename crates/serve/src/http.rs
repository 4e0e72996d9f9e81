//! A minimal HTTP/1.1 server-side implementation: request parsing with hard
//! header/body limits, keep-alive, and plain or chunked JSON responses.
//!
//! Hand-rolled because the build environment is fully offline (no crates.io
//! access); the surface is exactly what the daemon's API needs and nothing
//! more — no TLS, no compression, no multipart.

use std::io::{self, BufWriter, Read, Write};

/// Hard cap on the request line + headers. A well-formed request to this
/// API fits in a few hundred bytes; anything larger is hostile or lost.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Hard cap on a request body. Inline METIS uploads are the largest
/// legitimate payload; 64 MiB covers every corpus graph the benchmarks use.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Stream chunk size for chunked responses: large partition arrays go out
/// in pieces instead of one giant write.
const CHUNK_BYTES: usize = 32 * 1024;

/// A parsed request. Header names are lowercased at parse time.
pub struct Request {
    /// `GET`, `POST`, `PUT`, `DELETE`, …
    pub method: String,
    /// The request target, without query-string splitting (the API uses
    /// none).
    pub path: String,
    headers: Vec<(String, String)>,
    /// The request body, already bounded by [`MAX_BODY_BYTES`].
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
pub enum ReadError {
    /// The peer closed before sending a (complete) request; nothing to
    /// answer.
    Closed,
    /// Transport failure mid-request.
    Io(io::Error),
    /// A protocol violation to answer with this status and message, then
    /// close.
    Bad(u16, String),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// A buffered request reader that survives pipelining: bytes read past the
/// end of one request are kept for the next.
pub struct RequestReader {
    buf: Vec<u8>,
}

impl Default for RequestReader {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Reads one full request (head + body) from `conn`. `Err(Closed)` is
    /// the clean end of a keep-alive connection.
    pub fn read_request(&mut self, conn: &mut dyn Read) -> Result<Request, ReadError> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::Bad(
                    431,
                    format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                ));
            }
            if self.fill(conn)? == 0 {
                return Err(ReadError::Closed);
            }
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(ReadError::Bad(
                431,
                format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            ));
        }
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| ReadError::Bad(400, "request head is not UTF-8".into()))?;
        let (method, path, headers) = parse_head(head)?;

        let body_len = match headers.iter().find(|(k, _)| k == "content-length") {
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| ReadError::Bad(400, format!("bad content-length `{v}`")))?,
            None => 0,
        };
        if body_len > MAX_BODY_BYTES {
            return Err(ReadError::Bad(
                413,
                format!("request body of {body_len} bytes exceeds {MAX_BODY_BYTES}"),
            ));
        }
        if headers.iter().any(|(k, _)| k == "transfer-encoding") {
            return Err(ReadError::Bad(
                400,
                "chunked request bodies are not supported; send content-length".into(),
            ));
        }

        let body_start = head_end + 4;
        while self.buf.len() < body_start + body_len {
            if self.fill(conn)? == 0 {
                return Err(ReadError::Bad(400, "connection closed mid-body".into()));
            }
        }
        let body = self.buf[body_start..body_start + body_len].to_vec();
        self.buf.drain(..body_start + body_len);
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }

    fn fill(&mut self, conn: &mut dyn Read) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = conn.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

type Head = (String, String, Vec<(String, String)>);

fn parse_head(head: &str) -> Result<Head, ReadError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(ReadError::Bad(
                400,
                format!("malformed request line `{request_line}`"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Bad(
            400,
            format!("unsupported version `{version}`"),
        ));
    }
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(400, format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), path.to_string(), headers))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Shed responses (`429` overload, `503` not-ready/draining) carry a
/// `Retry-After` so well-behaved clients back off instead of hammering.
fn retry_after(status: u16) -> &'static str {
    match status {
        429 | 503 => "Retry-After: 1\r\n",
        _ => "",
    }
}

/// Writes a complete JSON response with `Content-Length`.
pub fn respond_json(
    w: &mut dyn Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
        status_text(status),
        body.len(),
        retry_after(status),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Writes a JSON response with `Transfer-Encoding: chunked`, streaming the
/// body in [`CHUNK_BYTES`] pieces — the response path of `/detect`, whose
/// reports and partition arrays can run to many megabytes. A buffer of one
/// frame (size line, piece, CRLF) sits in front of `w`, so each piece goes
/// out in one write with its framing instead of four, and the head rides
/// along with the first. The reply announces a kept-alive connection.
pub fn respond_chunked_json(w: &mut dyn Write, status: u16, body: &str) -> io::Result<()> {
    write_chunked_json(w, status, body, true)
}

/// [`respond_chunked_json`] with the `Connection` header of the caller's
/// choice, as [`respond_json`] takes it.
pub(crate) fn write_chunked_json(
    w: &mut dyn Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(CHUNK_BYTES + 16, w);
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n{}Connection: {}\r\n\r\n",
        status_text(status),
        retry_after(status),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for chunk in body.as_bytes().chunks(CHUNK_BYTES) {
        write!(w, "{:x}\r\n", chunk.len())?;
        w.write_all(chunk)?;
        w.write_all(b"\r\n")?;
    }
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// The canonical error body: `{"error":"…"}`.
pub fn error_body(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 12);
    out.push_str("{\"error\":");
    parcom_obs::json::write_str(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(bytes: &[u8]) -> Result<Request, ReadError> {
        let mut cursor = io::Cursor::new(bytes.to_vec());
        RequestReader::new().read_request(&mut cursor)
    }

    #[test]
    fn parses_request_with_body() {
        let req = read_one(b"POST /detect HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .ok()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/detect");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn keeps_pipelined_requests_apart() {
        let bytes = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec();
        let mut cursor = io::Cursor::new(bytes);
        let mut reader = RequestReader::new();
        let a = reader.read_request(&mut cursor).ok().unwrap();
        let b = reader.read_request(&mut cursor).ok().unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert!(b.wants_close());
        assert!(matches!(
            reader.read_request(&mut cursor),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert!(matches!(
            read_one(b"NONSENSE\r\n\r\n"),
            Err(ReadError::Bad(400, _))
        ));
        assert!(matches!(
            read_one(b"GET /x HTTP/2\r\n\r\n"),
            Err(ReadError::Bad(400, _))
        ));
        let huge = format!("GET /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(
            read_one(huge.as_bytes()),
            Err(ReadError::Bad(413, _)) | Err(ReadError::Bad(400, _))
        ));
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES + 8));
        assert!(matches!(
            read_one(long_head.as_bytes()),
            Err(ReadError::Bad(431, _))
        ));
    }

    #[test]
    fn chunked_response_round_trips() {
        let mut out = Vec::new();
        let body = "z".repeat(100_000);
        respond_chunked_json(&mut out, 200, &body).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        // de-chunk and compare
        let payload = text.split("\r\n\r\n").nth(1).unwrap();
        let mut rest = payload;
        let mut decoded = String::new();
        while let Some((size_line, tail)) = rest.split_once("\r\n") {
            let size = usize::from_str_radix(size_line, 16).unwrap();
            if size == 0 {
                break;
            }
            decoded.push_str(&tail[..size]);
            rest = &tail[size + 2..];
        }
        assert_eq!(decoded, body);
    }

    /// Records every `write` call it gets.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_chunked_reply_takes_one_write_per_chunk() {
        for len in [0, 10, CHUNK_BYTES, 542 * 1024 + 7] {
            let body = "z".repeat(len);
            let mut counted = CountingWriter::default();
            respond_chunked_json(&mut counted, 200, &body).unwrap();
            let chunks = len.div_ceil(CHUNK_BYTES);
            assert!(
                counted.writes <= chunks + 2,
                "{len} bytes: {} writes for {chunks} chunks",
                counted.writes
            );
            // byte for byte what the piece-by-piece writes produced
            let mut want = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n".to_vec();
            for chunk in body.as_bytes().chunks(CHUNK_BYTES) {
                want.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                want.extend_from_slice(chunk);
                want.extend_from_slice(b"\r\n");
            }
            want.extend_from_slice(b"0\r\n\r\n");
            assert_eq!(counted.bytes, want, "{len} bytes");
        }
    }
}
