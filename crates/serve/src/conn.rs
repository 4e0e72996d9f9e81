//! Transport abstraction: one trait over TCP and Unix-domain streams, so
//! the connection loop and its detect compute threads are written once
//! (DESIGN.md §13).

use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A bidirectional client connection — [`TcpStream`] or [`UnixStream`] —
/// with the two extras the server needs beyond `Read + Write`: cloning
/// (a detect compute thread writes its response through its own handle
/// while the connection thread keeps reading) and read timeouts (so the
/// keep-alive loop never blocks forever).
pub trait Conn: Read + Write + Send {
    /// An independently owned handle to the same underlying socket.
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;

    /// Sets the socket read timeout. Note this is a property of the
    /// underlying socket, shared with every clone.
    fn set_read_timeout_conn(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout_conn(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn set_read_timeout_conn(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}
