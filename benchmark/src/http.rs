//! A minimal HTTP/1.1 client over a Unix socket: one keep-alive
//! connection, one request in flight — the closed-loop client the serve
//! workloads model. Decodes both framings the daemon uses
//! (`Content-Length` for small replies, chunked for `/detect`).

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub struct Client {
    conn: BufReader<UnixStream>,
}

impl Client {
    pub fn connect(socket: &Path) -> io::Result<Self> {
        Ok(Self {
            conn: BufReader::new(UnixStream::connect(socket)?),
        })
    }

    /// Sends one request and reads the reply to its last byte.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: parcom\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = self.conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_response(&mut self.conn)
    }
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end().to_string())
}

/// Reads one response: status line, headers, then a `Content-Length` or
/// chunked body.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let status_line = read_line(r)?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = None;
    let mut chunked = false;
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(r)?;
            let size = usize::from_str_radix(size_line.split(';').next().unwrap_or(""), 16)
                .map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                // no trailers are sent; consume the blank line that ends the body
                read_line(r)?;
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            r.read_exact(&mut body[at..])?;
            read_line(r)?;
        }
    } else {
        body.resize(content_length.ok_or_else(|| bad("no body framing"))?, 0);
        r.read_exact(&mut body)?;
    }
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_serve::http::{respond_chunked_json, respond_json};

    /// Serves canned replies with the daemon's own writers over a real
    /// Unix socket pair, and decodes them back to back on one connection.
    #[test]
    fn decodes_both_framings_over_a_unix_socket() {
        let (mut server, client) = UnixStream::pair().unwrap();
        let big = format!("{{\"partition\":[{}]}}", "7,".repeat(200_000) + "7");
        let expected = big.clone();
        let writer = std::thread::spawn(move || {
            respond_json(&mut server, 201, "{\"nodes\":3}", true).unwrap();
            respond_chunked_json(&mut server, 200, &big).unwrap();
            respond_json(&mut server, 429, "{\"error\":\"busy\"}", true).unwrap();
        });
        let mut reader = BufReader::new(client);
        let a = read_response(&mut reader).unwrap();
        assert_eq!((a.status, a.text()), (201, "{\"nodes\":3}"));
        let b = read_response(&mut reader).unwrap();
        assert_eq!(b.status, 200);
        assert!(b.body.len() > 256 * 1024, "spans several chunks");
        assert_eq!(b.text(), expected);
        let c = read_response(&mut reader).unwrap();
        assert_eq!((c.status, c.text()), (429, "{\"error\":\"busy\"}"));
        writer.join().unwrap();
        assert!(read_response(&mut reader).is_err(), "EOF is an error");
    }
}
