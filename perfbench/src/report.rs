//! Sample statistics, the environment block, and the result line.

use std::fmt::Write as _;
use std::process::Command;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=1) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Peak resident set size of this process in MiB, less its file-backed
/// pages (the mapped binary and libraries), from `/proc/self/status`. How
/// many file pages a process maps depends on the page cache, and moved the
/// total by a quarter MiB from one process to the next.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    Some((kb("VmHWM:")? - kb("RssFile:")?) / 1024.0)
}

/// Makes every thread allocate from one malloc arena (glibc). With every
/// thread on one CPU more arenas gain nothing, and which arena a new server
/// thread took moved the peak resident set size by half a MiB from one
/// process to the next. Call it before any thread starts.
pub fn one_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: std::os::raw::c_int = -8;
        extern "C" {
            fn mallopt(
                param: std::os::raw::c_int,
                value: std::os::raw::c_int,
            ) -> std::os::raw::c_int;
        }
        // SAFETY: `mallopt` takes no pointer; it is called before any
        // other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Hands freed heap memory back to the system, then resets the peak
/// resident set size to the current one (Linux), so that [`peak_rss_mb`]
/// covers only what runs after this call, and not memory that an earlier
/// phase freed but the allocator kept.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Pins every thread of this process, and every thread it starts later,
/// to the highest-numbered CPU it may run on, so that the client and the
/// server of the loopback workload hand each round trip over on one CPU
/// instead of waking each other across CPUs (whose latency varies from
/// process to process). Returns the CPU, or `None` if pinning failed.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let cpu = list
        .split(',')
        .filter_map(|part| part.rsplit('-').next()?.trim().parse::<usize>().ok())
        .max()?;
    let pid = std::process::id().to_string();
    let cpu_arg = cpu.to_string();
    command_line("taskset", &["-a", "-p", "-c", &cpu_arg, &pid]).map(|_| cpu)
}

/// The environment a result was measured in.
#[derive(Debug, Clone)]
pub struct Env {
    pub cpus: usize,
    pub commit: String,
    pub rustc: String,
    pub seed: u64,
    pub data_seed: u64,
    pub workload: String,
    pub n: usize,
    pub cache_budget: Option<u64>,
    pub pinned_cpu: Option<usize>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Env {
    pub fn capture(
        workload: &str,
        seed: u64,
        data_seed: u64,
        n: usize,
        cache_budget: Option<u64>,
    ) -> Env {
        // Only ask git inside a checkout's own repository, never a parent's.
        let commit = std::path::Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"]))
            .flatten()
            .unwrap_or_else(|| "unknown".to_string());
        Env {
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
            commit,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            seed,
            data_seed,
            workload: workload.to_string(),
            n,
            cache_budget,
            pinned_cpu: None,
        }
    }

    pub fn to_json(&self) -> String {
        let budget = self
            .cache_budget
            .map_or("null".to_string(), |b| b.to_string());
        let pinned = self
            .pinned_cpu
            .map_or("null".to_string(), |c| c.to_string());
        format!(
            "{{\"available_parallelism\":{},\"commit\":{},\"rustc\":{},\"seed\":{},\"data_seed\":{},\"workload\":{},\"n\":{},\"cache_budget_bytes\":{budget},\"pinned_cpu\":{pinned}}}",
            self.cpus,
            json_str(&self.commit),
            json_str(&self.rustc),
            self.seed,
            self.data_seed,
            json_str(&self.workload),
            self.n,
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: correctness, attempt counts, and every metric
/// with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}
