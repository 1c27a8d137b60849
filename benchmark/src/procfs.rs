//! The `/proc` readers behind `peak_rss_mb`, `cpu_s` and the host
//! fingerprint in `history.jsonl`. Parsers take the file text so they can
//! be tested without a `/proc`.

/// Kernel clock ticks per second (`USER_HZ`). Linux fixes this at 100 on
/// every architecture it exports `/proc/<pid>/stat` times for.
const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds of a process *and its reaped children*
/// (`utime + stime + cutime + cstime`, fields 14–17) from
/// `/proc/<pid>/stat` text. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let ticks: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 4).then(|| ticks.iter().sum::<u64>() as f64 / TICKS_PER_SECOND)
}

/// The first `model name` of `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The highest CPU of `Cpus_allowed_list` (`"0-1"`, `"0,2-3"`, `"5"`) in
/// `/proc/<pid>/status` text.
pub fn parse_last_allowed_cpu(status: &str) -> Option<usize> {
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    let list = line.split_once(':')?.1.trim();
    list.rsplit([',', '-']).next()?.parse().ok()
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread and process it starts
/// from now on — to the CPUs set in `mask` (the kernel intersects it with
/// what the process may use at all).
fn set_affinity(mask: u64) -> bool {
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`;
    // `mask` is a live `u64` and `cpusetsize` is its size. Pid 0 names the
    // calling thread, so no other process is touched.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Pins the calling thread, and what it starts from now on, to the
/// highest CPU it is allowed on.
///
/// Why: the engine hands every trial to its inference-server thread and
/// back. With both threads on one vCPU that costs a microsecond; when the
/// guest scheduler parks the second thread on the other, idle vCPU, each
/// hand-off can cost a wake-up through the hypervisor, and this box was
/// seen to stay in that mode for minutes (+38 us per trial: `study-hb`
/// 2.1 s -> 2.9 s, `study-sweep` 2.3 s -> 10 s). One CPU takes the choice
/// away.
pub fn pin_to_one_cpu() -> bool {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_last_allowed_cpu(&status))
        .filter(|cpu| *cpu < 64)
        .is_some_and(|cpu| set_affinity(1 << cpu))
}

/// Undoes [`pin_to_one_cpu`] for the calling thread and what it starts
/// from now on.
pub fn allow_all_cpus() -> bool {
    set_affinity(u64::MAX)
}

/// Peak resident set of this process in MB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU seconds of this process and its reaped children so far.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .unwrap_or(0.0)
}

/// CPU model of the host, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 999 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn stat_cpu_sums_self_and_reaped_children() {
        // utime=150 stime=50 cutime=30 cstime=20 → 250 ticks = 2.5 s.
        let stat = "4242 (edgetune bench) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    150 50 30 20 20 0 1 0 100 1000000 300 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(2.5));
    }

    #[test]
    fn stat_survives_parentheses_in_the_command_name() {
        let stat = "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 100 0 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_s(stat), Some(1.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn last_allowed_cpu_reads_ranges_and_lists() {
        let status =
            |list: &str| format!("Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t{list}\n");
        assert_eq!(parse_last_allowed_cpu(&status("0-1")), Some(1));
        assert_eq!(parse_last_allowed_cpu(&status("0,2-3")), Some(3));
        assert_eq!(parse_last_allowed_cpu(&status("0-3,7")), Some(7));
        assert_eq!(parse_last_allowed_cpu(&status("5")), Some(5));
        assert_eq!(parse_last_allowed_cpu("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.00GHz\nmodel name\t: other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.00GHz")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }
}
