//! CPU time and peak memory of a child process, read from `/proc`.
//!
//! The parent reads these for the child under test, so load-generator
//! CPU and the short-lived fixture builder's memory never count.

use std::fs;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which the
/// Linux ABI fixes at 100 on every architecture this repo builds for.
const TICKS_PER_SECOND: u64 = 100;

/// `utime + stime` in microseconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command come state (field 3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / TICKS_PER_SECOND))
}

/// The value in kB of one `Key:   N kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// CPU microseconds (`utime + stime`, every thread, exited ones
/// included) used so far by process `pid`.
pub fn cpu_us(pid: u32) -> Option<u64> {
    parse_stat_cpu_us(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set (`VmHWM`) of process `pid`, in megabytes.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let plain = "4242 (swim-perf) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                     157 43 0 0 20 0 3 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_us(plain), Some(2_000_000));
        // A command name with spaces and a closing parenthesis.
        let hostile = "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 10 5 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_us(hostile), Some(150_000));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2 3"), None);
        assert_eq!(
            parse_stat_cpu_us("1 (x) S 1 1 1 0 -1 0 0 0 0 0 ten 5"),
            None
        );
    }

    #[test]
    fn status_lines_parse_by_exact_key() {
        let status = "Name:\tswim-perf\nVmPeak:\t  300000 kB\nVmHWM:\t  123904 kB\n\
                      VmRSS:\t   99000 kB\nThreads:\t6\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_904));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(99_000));
        // `Vm` is a prefix of several keys but is not itself a key.
        assert_eq!(parse_status_kb(status, "Vm"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_us(pid).is_some());
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
    }
}
