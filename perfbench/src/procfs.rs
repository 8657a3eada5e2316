//! Process clocks and memory, read from `/proc/self` with `std::fs`.
//!
//! Only the parsers are pure; the two readers wrap them around the live
//! files so the benchmark reports its own process and nothing else.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`. Linux reports them in `USER_HZ`, which is 100 on every
/// architecture it exposes to user space.
pub const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in kB, from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// User plus system CPU time in clock ticks, from the text of
/// `/proc/self/stat`. The command name (field 2) is parenthesised and may
/// itself contain spaces or `)`, so fields are counted from the last `)`:
/// `utime` and `stime` are fields 14 and 15 of the whole line.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// This process's user plus system CPU time so far, in seconds (all
/// threads, live and exited).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("malformed /proc/self/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\tperfbench\nVmPeak:\t  812340 kB\nVmHWM:\t  693212 kB\nVmRSS:\t  12000 kB\n";

    #[test]
    fn vm_hwm_is_read_from_its_own_line() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(693_212));
    }

    #[test]
    fn missing_or_malformed_vm_hwm_is_none() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_sum_utime_and_stime() {
        // Fields 14 and 15 (utime 250, stime 17); the rest are filler.
        let stat = "4242 (perfbench) R 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0 3 0 99 1000 50";
        assert_eq!(parse_cpu_ticks(stat), Some(267));
    }

    #[test]
    fn cpu_ticks_survive_a_command_name_with_spaces_and_parens() {
        let stat = "7 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 31 9 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_cpu_ticks(stat), Some(40));
    }

    #[test]
    fn truncated_stat_is_none() {
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn live_readers_work_on_this_process() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().expect("cpu time") >= 0.0);
    }
}
