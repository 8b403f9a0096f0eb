//! What the host and the process report about themselves (`/proc`).

use std::fs;

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// User plus system CPU ticks of the process from `/proc/<pid>/stat` text.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`: state is the 1st after it, `utime` and
/// `stime` the 12th and 13th.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_steal(proc_stat: &str) -> Option<(u64, u64)> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// The first `model name` of `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Kernel clock ticks per second. `USER_HZ` has been 100 on every Linux
/// architecture this repository builds for since 2.6.
const TICKS_PER_S: f64 = 100.0;

pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_S)
}

pub fn steal_jiffies() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or((0, 0))
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU time, wall time and host steal between two instants.
pub struct Snapshot {
    at: std::time::Instant,
    cpu_s: f64,
    steal: (u64, u64),
}

impl Snapshot {
    pub fn take() -> Self {
        Snapshot {
            at: std::time::Instant::now(),
            cpu_s: cpu_seconds(),
            steal: steal_jiffies(),
        }
    }

    /// `(wall seconds, process CPU seconds, share of host time stolen)`
    /// since the snapshot.
    pub fn since(&self) -> (f64, f64, f64) {
        let (steal, total) = steal_jiffies();
        let d_total = total.saturating_sub(self.steal.1);
        let steal_share = if d_total == 0 {
            0.0
        } else {
            steal.saturating_sub(self.steal.0) as f64 / d_total as f64
        };
        (
            self.at.elapsed().as_secs_f64(),
            cpu_seconds() - self.cpu_s,
            steal_share,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fixture() {
        let status = "Name:\tkamel-benchmark\nVmPeak:\t  901232 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn parses_stat_fixture_with_hostile_command_name() {
        let stat = "4242 (kamel (bench) 1) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    321 45 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(366));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_proc_stat_fixture() {
        let text = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\nintr 1\n";
        assert_eq!(parse_steal(text), Some((30, 1000)));
        assert_eq!(parse_steal("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn parses_cpuinfo_fixture() {
        let text = "processor\t: 0\nmodel name\t: Imaginary CPU @ 2.50GHz\nflags\t: fpu\n";
        assert_eq!(
            parse_cpu_model(text).as_deref(),
            Some("Imaginary CPU @ 2.50GHz")
        );
    }
}
