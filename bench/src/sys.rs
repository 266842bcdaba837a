//! What the host looked like when the numbers were taken.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set of this process, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub struct Header {
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
    pub loadavg_1m: f64,
}

impl Header {
    pub fn capture() -> Header {
        Header {
            // `git describe` needs a tag and this repository has none. In
            // the driver's checkout there is no repository at all.
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            nproc: crate::serve::nproc(),
            cpu: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
            loadavg_1m: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(f64::NAN),
        }
    }

    /// Another load on a 2-core box moves every timing here.
    pub fn busy(&self) -> bool {
        self.loadavg_1m > 0.5 * self.nproc as f64
    }
}
