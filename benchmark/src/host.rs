//! The host record printed with every run, and the guard that refuses
//! to time a workload the host cannot run undisturbed.

use std::fs;

/// What is known about the machine at the start of a run.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
    pub mem_available_mb: u64,
    pub load_1min: f64,
}

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The value of a `key:   value` line of a `/proc` file.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

fn cache_size(level: u32) -> String {
    (0..8)
        .find_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let is_level = read_trimmed(&format!("{dir}/level"))? == level.to_string();
            let is_data = read_trimmed(&format!("{dir}/type"))? != "Instruction";
            (is_level && is_data).then(|| read_trimmed(&format!("{dir}/size")))?
        })
        .unwrap_or_else(|| "unknown".into())
}

impl HostRecord {
    pub fn read() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: proc_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into()),
            l2: cache_size(2),
            l3: cache_size(3),
            mem_available_mb: proc_field(&meminfo, "MemAvailable")
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .map_or(0, |kb| kb / 1024),
            load_1min: read_trimmed("/proc/loadavg")
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0),
        }
    }

    pub fn print(&self) {
        println!(
            "host: nproc {}, cpu \"{}\", L2 {}, L3 {}, {} MiB available, load {:.2}",
            self.nproc, self.cpu_model, self.l2, self.l3, self.mem_available_mb, self.load_1min
        );
        if self.load_1min > 0.5 {
            println!(
                "warning: 1-minute load is {:.2} (> 0.5); timings will be noisier than the bounds assume",
                self.load_1min
            );
        }
    }

    /// A timed workload must leave one processor to the rest of the
    /// system, or the scheduler's choices become part of the measurement.
    /// (A single-processor host can still run single-threaded workloads;
    /// there is nothing to leave.)
    pub fn admits(&self, threads: usize) -> Result<(), String> {
        let limit = self.nproc.saturating_sub(1).max(1);
        if threads > limit {
            return Err(format!(
                "workload wants {threads} threads but this host has {} processors; \
                 at most {limit} can be timed",
                self.nproc
            ));
        }
        Ok(())
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = proc_field(&status, "VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_leaves_one_processor_free() {
        let mut host = HostRecord::read();
        host.nproc = 2;
        assert!(host.admits(1).is_ok());
        assert!(host.admits(2).is_err());
        host.nproc = 1;
        assert!(host.admits(1).is_ok());
        host.nproc = 8;
        assert!(host.admits(7).is_ok());
        assert!(host.admits(8).is_err());
    }

    #[test]
    fn proc_fields_parse() {
        let text = "Name:\tfmbench\nVmHWM:\t    1768 kB\nmodel name\t: Xeon\n";
        assert_eq!(proc_field(text, "VmHWM").as_deref(), Some("1768 kB"));
        assert_eq!(proc_field(text, "model name").as_deref(), Some("Xeon"));
        assert_eq!(proc_field(text, "VmRSS"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
