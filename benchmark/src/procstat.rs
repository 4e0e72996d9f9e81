//! `/proc` readers: the steal counter behind the quiet-sample rule, and the
//! daemon's CPU time and peak resident set.

/// Clock ticks per second of `/proc` times. `USER_HZ` is 100 on every
/// Linux ABI; reading it properly needs `sysconf`, i.e. more FFI.
const TICK_MS: f64 = 10.0;

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal
    pub total: u64,
    /// Ticks the hypervisor ran someone else while this guest was
    /// runnable; `None` where the kernel has no steal column.
    pub steal: Option<u64>,
}

/// Parses the first line of `/proc/stat`
/// (`cpu user nice system idle iowait irq softirq steal guest guest_nice`).
/// Guest time is already contained in user time, so it is left out of the
/// total.
pub fn parse_cpu_line(line: &str) -> Option<CpuTicks> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields.map_while(|f| f.parse().ok()).collect();
    if ticks.len() < 4 {
        return None;
    }
    Some(CpuTicks {
        total: ticks.iter().take(8).sum(),
        steal: ticks.get(7).copied(),
    })
}

pub fn read_cpu() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

/// The steal counter now; `0` where there is none, which turns the
/// quiet-sample rule into a no-op.
pub fn steal_ticks() -> u64 {
    read_cpu().and_then(|c| c.steal).unwrap_or(0)
}

/// user + system time of a `/proc/<pid>/stat` line, in milliseconds. The
/// command name may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_pid_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // after the name: state(3) ... utime is field 14, stime field 15
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * TICK_MS)
}

pub fn pid_cpu_ms(pid: u32) -> Option<f64> {
    parse_pid_cpu_ms(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn pid_vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_line_with_and_without_steal() {
        let full = "cpu  71394 0 16798 248217 2215 0 619 60843 0 0";
        let c = parse_cpu_line(full).unwrap();
        assert_eq!(c.steal, Some(60843));
        assert_eq!(c.total, 71394 + 16798 + 248217 + 2215 + 619 + 60843);
        // pre-2.6.11 layout: seven columns, no steal
        let old = parse_cpu_line("cpu 10 1 5 100 2 0 3").unwrap();
        assert_eq!(old.steal, None);
        assert_eq!(old.total, 121);
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("intr 12345"), None);
        assert_eq!(parse_cpu_line("cpu 1 2"), None);
    }

    #[test]
    fn parses_pid_stat_past_a_hostile_command_name() {
        let stat =
            "4242 (par com) R) S 1 4242 4242 0 -1 4194304 1200 0 0 0 37 5 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_pid_cpu_ms(stat), Some(420.0));
        assert_eq!(parse_pid_cpu_ms("no parenthesis"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tparcom\nVmPeak:\t  9000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 400 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\n"), None);
    }
}
