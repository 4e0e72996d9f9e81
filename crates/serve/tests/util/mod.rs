//! Shared test harness bits: a minimal HTTP/1.1 client over a Unix
//! socket (Content-Length and chunked framing), JSON accessors,
//! daemon-readiness polling, and the `crash_harness` daemon as a real OS
//! process that can be `kill -9`ed. Used by every integration test and by
//! the crash-recovery kill matrix, where requests must be *fallible* — the
//! server is expected to die mid-exchange.

#![allow(dead_code)]

use parcom_obs::json::{self, Value};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A minimal HTTP/1.1 client over one keep-alive connection.
pub struct Client {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects, retrying while the daemon boots.
    pub fn connect(socket: &Path) -> Self {
        Self::try_connect(socket, 100).expect("daemon never came up")
    }

    /// Connects with a bounded retry count.
    pub fn try_connect(socket: &Path, attempts: u32) -> io::Result<Self> {
        let mut last_err = None;
        for _ in 0..attempts {
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    return Ok(Self {
                        stream,
                        buf: Vec::new(),
                    })
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no attempts")))
    }

    /// One request/response exchange; panics on transport failure.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Value) {
        self.try_request(method, path, body)
            .unwrap_or_else(|e| panic!("{method} {path} failed: {e}"))
    }

    /// One request/response exchange, surfacing transport failures — the
    /// kill matrix sends requests that are *expected* to die mid-flight.
    pub fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, Value)> {
        self.send(&[(method, path, body)])?;
        self.read_response()
    }

    /// Writes the given requests back to back in a single `write` (so the
    /// later ones are pipelined behind the first) without reading anything.
    pub fn send(&mut self, requests: &[(&str, &str, &str)]) -> io::Result<()> {
        let mut bytes = String::new();
        for (method, path, body) in requests {
            bytes.push_str(&format!(
                "{method} {path} HTTP/1.1\r\nHost: parcom\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        self.stream.write_all(bytes.as_bytes())?;
        self.stream.flush()
    }

    /// Closes the sending half: the server reads EOF, the client can still
    /// read whatever the server writes.
    pub fn half_close(&self) {
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    fn take_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(pos) = self.buf.windows(2).position(|w| w == b"\r\n") {
                let line = String::from_utf8(self.buf.drain(..pos + 2).collect())
                    .map_err(|_| io::Error::other("non-UTF-8 header line"))?;
                return Ok(line.trim_end().to_string());
            }
            self.fill()?;
        }
    }

    /// Reads the next response off the connection.
    pub fn read_response(&mut self) -> io::Result<(u16, Value)> {
        let status_line = self.take_line()?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line `{status_line}`")))?;
        let mut content_length = None;
        let mut chunked = false;
        let mut retry_after = false;
        loop {
            let line = self.take_line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| io::Error::other(format!("bad header `{line}`")))?;
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = Some(value.trim().parse::<usize>().map_err(io::Error::other)?)
                }
                "transfer-encoding" => chunked = value.trim().eq_ignore_ascii_case("chunked"),
                "retry-after" => retry_after = true,
                _ => {}
            }
        }
        // Every shed response must tell clients when to come back.
        if matches!(status, 429 | 503) {
            assert!(retry_after, "{status} response without Retry-After");
        }
        let body = if chunked {
            let mut body = Vec::new();
            loop {
                let size_line = self.take_line()?;
                let size = usize::from_str_radix(&size_line, 16).map_err(io::Error::other)?;
                if size == 0 {
                    self.take_line()?;
                    break;
                }
                body.extend(self.take(size)?);
                self.take_line()?;
            }
            body
        } else {
            let n = content_length.ok_or_else(|| io::Error::other("response without framing"))?;
            self.take(n)?
        };
        let text = String::from_utf8(body).map_err(|_| io::Error::other("non-UTF-8 body"))?;
        let value =
            json::parse(&text).map_err(|e| io::Error::other(format!("bad body `{text}`: {e}")))?;
        Ok((status, value))
    }
}

/// Numeric field accessor that panics with the key name.
pub fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing numeric `{key}` in {v:?}"))
}

/// String field accessor that panics with the key name.
pub fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {v:?}"))
}

/// Boolean field accessor that panics with the key name.
pub fn get_bool(v: &Value, key: &str) -> bool {
    v.get(key)
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("missing boolean `{key}` in {v:?}"))
}

/// Polls `GET /readyz` until it answers `200` (recovery finished) or the
/// deadline passes. Reconnects between attempts so a daemon that boots
/// slowly (or restarts) is tolerated.
pub fn wait_ready(socket: &Path, deadline: Duration) -> Client {
    let end = std::time::Instant::now() + deadline;
    loop {
        if let Ok(mut client) = Client::try_connect(socket, 1) {
            if let Ok((status, _)) = client.try_request("GET", "/readyz", "") {
                if status == 200 {
                    return client;
                }
            }
        }
        assert!(
            std::time::Instant::now() < end,
            "daemon at {} never became ready",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Serializes a graph as an inline-METIS `PUT /graphs/{name}` body.
pub fn metis_body(g: &parcom_graph::Graph) -> String {
    let mut metis = Vec::new();
    parcom_io::write_metis_to(g, &mut metis).unwrap();
    let mut body = String::from("{\"content\":");
    json::write_str(&mut body, std::str::from_utf8(&metis).unwrap());
    body.push('}');
    body
}

/// One spawned `crash_harness` daemon — a real process over a state
/// directory; killed on drop so a failing test never leaks one.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the harness on `socket` over `state_dir`, with `fault`
    /// (`site:k`) armed when given.
    pub fn spawn(state_dir: &Path, socket: &Path, fault: Option<&str>) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_crash_harness"));
        cmd.env("PARCOM_HARNESS_SOCKET", socket)
            .env("PARCOM_HARNESS_STATE_DIR", state_dir)
            .env("PARCOM_HARNESS_FSYNC", "always")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        match fault {
            Some(spec) => cmd.env("PARCOM_FAULT", spec),
            None => cmd.env_remove("PARCOM_FAULT"),
        };
        let child = cmd.spawn().expect("spawn crash_harness");
        Self {
            child,
            socket: socket.to_path_buf(),
        }
    }

    /// A client, once recovery has finished.
    pub fn wait_ready(&self) -> Client {
        wait_ready(&self.socket, Duration::from_secs(20))
    }

    /// SIGKILL — `Child::kill` is an unblockable kill on Unix.
    pub fn kill9(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }

    /// Waits for the daemon to die on its own (an armed fault aborted it).
    pub fn wait_dead(&mut self) {
        let status = self.child.wait().expect("wait on crash_harness");
        assert!(
            !status.success(),
            "harness should die by abort, got {status}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill9();
    }
}
