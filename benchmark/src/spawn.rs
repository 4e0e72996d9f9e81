//! Spawning `parcom` the way a user does, and reaping it with `wait4` so
//! each operation comes back with its own CPU time and peak resident set.

use std::io::{self, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// One finished child process.
pub struct Finished {
    /// Exited normally with status 0.
    pub ok: bool,
    /// Spawn → exit.
    pub wall_ms: f64,
    /// User + system time of the child.
    pub cpu_ms: f64,
    pub max_rss_kb: u64,
    pub stdout: String,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn ms(&self) -> f64 {
        self.sec as f64 * 1e3 + self.usec as f64 / 1e3
    }
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// only the first (`ru_maxrss`, KiB) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `cmd` to completion with stdout captured, timing spawn → exit.
/// The child must write less than a pipe buffer (64 KiB) to stdout — every
/// `parcom` subcommand prints a line or two — because the pipe is drained
/// only after the exit, to keep the reader out of the timed interval.
pub fn run_timed(cmd: &mut Command) -> io::Result<Finished> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, exclusively borrowed and laid
    // out as wait4(2) documents for 64-bit Linux (checked by the cfg on the
    // declaration); the pid is this process's own unreaped child, and
    // `child.wait()` is never called afterwards, so it is reaped once.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) }; // audit:allow(unsafe-code) audit:allow(lossy-cast): pids fit i32
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if reaped < 0 {
        return Err(io::Error::last_os_error());
    }
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)?;
    }
    Ok(Finished {
        // WIFEXITED && WEXITSTATUS == 0
        ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        wall_ms,
        cpu_ms: usage.utime.ms() + usage.stime.ms(),
        max_rss_kb: usage.maxrss.max(0) as u64,
        stdout,
    })
}

/// Runs a set-up command (generate, convert) that must succeed.
pub fn run_checked(cmd: &mut Command) -> Result<(), String> {
    let done = run_timed(cmd).map_err(|e| format!("cannot run {cmd:?}: {e}"))?;
    if done.ok {
        Ok(())
    } else {
        Err(format!("{cmd:?} failed: {}", done.stdout.trim()))
    }
}
