//! Process figures read from `/proc`: CPU time, peak RSS, load average.

use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`, fixed at
/// 100 by the Linux ABI on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// The process itself, all its threads, live and exited.
    pub own_s: f64,
    /// Its children that have exited and been waited for.
    pub children_s: f64,
}

/// CPU times of this process.
pub fn own_cpu() -> Result<Cpu, String> {
    parse_stat().ok_or_else(|| "cannot read /proc/self/stat".to_owned())
}

fn parse_stat() -> Option<Cpu> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let f: Vec<f64> = rest.split_whitespace().map(|x| x.parse().unwrap_or(0.0)).collect();
    // rest[0] is field 3 (state); utime..cstime are fields 14..17.
    Some(Cpu {
        own_s: (f.get(11)? + f.get(12)?) / TICKS_PER_S,
        children_s: (f.get(13)? + f.get(14)?) / TICKS_PER_S,
    })
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset this process's peak RSS to its current RSS, so a later
/// [`peak_rss_mib`] covers only what ran since. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_figures() {
        let c = own_cpu().expect("/proc/self/stat");
        assert!(c.own_s >= 0.0 && c.children_s >= 0.0);
        assert!(peak_rss_mib("self").expect("VmHWM") > 0.0);
        assert_eq!(loadavg().split_whitespace().count(), 3);
    }
}
