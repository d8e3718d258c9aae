//! The child's own CPU time and peak resident set, from `/proc/self`.

use std::io;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Fixed at 100 by the Linux ABI on every
/// architecture Rust's tier-1 Linux targets cover.
const TICKS_PER_SECOND: f64 = 100.0;

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed {what}"))
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set, kB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

/// User + system CPU seconds this process has used so far, over all of
/// its threads, those already joined included.
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = parse_cpu_ticks(&stat).ok_or_else(|| malformed("/proc/self/stat"))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// This process's peak resident set so far, in kB.
pub fn peak_rss_kb() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    parse_vm_hwm_kb(&status).ok_or_else(|| malformed("/proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 5 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  154000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(154_000));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readings_parse_on_this_host() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_kb().unwrap() > 0);
    }
}
