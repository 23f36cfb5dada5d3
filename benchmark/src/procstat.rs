//! Process CPU time and peak memory from `/proc`, std only.

use std::time::Instant;

/// `utime`/`stime` in `/proc/<pid>/stat` count `USER_HZ` ticks, which
/// Linux fixes at 100 for every architecture's userspace ABI.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// ticks. The command name (field 2) may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state): utime is the 12th field from there.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Vm*:  <n> kB` line of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set of a status file, MB: `VmHWM`, or the current
/// `VmRSS` where the kernel omits the high-water mark.
pub fn peak_rss_mb_of(status: &str) -> Option<f64> {
    parse_status_kb(status, "VmHWM")
        .or_else(|| parse_status_kb(status, "VmRSS"))
        .map(|kb| kb as f64 / 1024.0)
}

/// This process's CPU seconds so far (all threads, including exited
/// ones), or `None` where `/proc` is unreadable.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_S)
}

/// This process's peak resident set, MB.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_mb_of(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Wall and CPU seconds of `f`. Where `/proc` gives no CPU reading the
/// wall time stands in (exact for one busy thread, a floor otherwise)
/// and `cpu_is_wall` says so.
pub struct Timed<T> {
    pub value: T,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub cpu_is_wall: bool,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let value = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = cpu0.zip(cpu_s()).map(|(a, b)| b - a);
    Timed {
        value,
        wall_s,
        cpu_s: cpu.unwrap_or(wall_s),
        cpu_is_wall: cpu.is_none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        317 42 0 0 20 0 3 0 999 123456 789 18446744073709551615";

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(317 + 42));
    }

    #[test]
    fn truncated_or_garbled_stat_is_none() {
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
        assert_eq!(parse_stat_cpu_ticks(&STAT.replace("317", "abc")), None);
    }

    #[test]
    fn status_lines_parse_and_fall_back() {
        let full = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_status_kb(full, "VmHWM"), Some(2048));
        assert_eq!(peak_rss_mb_of(full), Some(2.0));
        let no_hwm = "Name:\tbench\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_status_kb(no_hwm, "VmHWM"), None);
        assert_eq!(peak_rss_mb_of(no_hwm), Some(1.0));
        assert_eq!(peak_rss_mb_of("Name:\tbench\n"), None);
        // A key that is only a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t 5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        if let (Some(cpu), Some(rss)) = (cpu_s(), peak_rss_mb()) {
            assert!(cpu >= 0.0);
            assert!(rss > 0.0);
        }
        let t = timed(|| std::hint::black_box((0..100_000u64).sum::<u64>()));
        assert!(t.wall_s > 0.0 && t.cpu_s >= 0.0);
        assert_eq!(t.value, 4_999_950_000);
    }
}
