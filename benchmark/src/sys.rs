//! What the benchmark reads from the operating system: the process's
//! CPU time, memory high-water mark and thread count, and the stamp
//! every output carries.

use std::process::Command;

/// `utime + stime` of this process, in microseconds. `/proc` counts in
/// clock ticks, and `USER_HZ` is 100 on every Linux ABI.
pub fn cpu_us() -> u64 {
    stat_cpu_us("/proc/self/stat")
}

/// The same for the calling thread alone.
pub fn thread_cpu_us() -> u64 {
    stat_cpu_us("/proc/thread-self/stat")
}

fn stat_cpu_us(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // The command name may hold spaces; fields are counted after its `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks() + ticks()) * 10_000
}

fn status_field(name: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// `VmHWM`: the most resident memory the process has held, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// `Threads:` of this process right now.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Processors the process may run on, as first asked: once a thread is
/// pinned, `available_parallelism` counts only its own.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Processor affinity, by the two libc calls std already links.
mod affinity {
    /// Room for 1024 processors, the size of glibc's `cpu_set_t`.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The processors the calling thread may run on.
    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`. Threads it spawns later
    /// inherit the restriction.
    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed and is only read; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

/// The processors split between the generator's pacing thread and
/// everything else. Without the split the scheduler moves the server's
/// threads between processors every second or so, and on a two-processor
/// box a served workload then flips between speeds a factor of three
/// apart (a wake-up across processors costs a VM exit).
struct Split {
    pacer: affinity::Mask,
    system: affinity::Mask,
}

fn split() -> Option<&'static Split> {
    static SPLIT: std::sync::OnceLock<Option<Split>> = std::sync::OnceLock::new();
    SPLIT
        .get_or_init(|| {
            let allowed = affinity::get()?;
            let first = (0..1024).find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
            let mut pacer = [0; 16];
            pacer[first / 64] = 1 << (first % 64);
            let mut system = allowed;
            system[first / 64] &= !pacer[first / 64];
            // With one processor there is nothing to split.
            system
                .iter()
                .any(|word| *word != 0)
                .then_some(Split { pacer, system })
        })
        .as_ref()
}

/// Moves the calling thread, and every thread it spawns from now on, to
/// the processors left for the system under test: all but the first.
pub fn run_on_system_cpus() {
    if let Some(split) = split() {
        affinity::set(&split.system);
    }
}

/// Moves the calling thread alone to the processor kept for pacing.
pub fn run_on_pacer_cpu() {
    if let Some(split) = split() {
        affinity::set(&split.pacer);
    }
}

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

/// Escapes a string for a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and on what a run was made, as the members of a JSON object.
pub fn stamp_json() -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\"git_commit\":{}",
        nproc(),
        json_str(&cpu_model),
        json_str(&kernel),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        assert!(threads() >= 1);
        let (before, thread_before) = (cpu_us(), thread_cpu_us());
        let mut x = 0u64;
        while thread_cpu_us() < thread_before + 20_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_us() >= before + 20_000);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
