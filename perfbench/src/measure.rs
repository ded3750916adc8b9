//! Exact statistics, digests, memory and host provenance.

use std::time::{Duration, Instant};

/// Every latency sample of a run, in nanoseconds. Percentiles are exact
/// order statistics over all samples, not histogram estimates.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile in microseconds: the sample of rank
    /// `ceil(q·n)` (nearest rank), so p50 of an odd count is the median.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        let (_, x, _) = v.select_nth_unstable(rank - 1);
        *x as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum_ns() as f64 / self.0.len() as f64 / 1e3
        }
    }
}

/// Median of a few repeated measurements (set-up times).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a, 64-bit: the digest behind every determinism check.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak-RSS mark, so the next
/// `peak_rss_mb("self")` covers only what runs after the reset.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hands the allocator's free memory back to the system, so a peak
/// resident set read after [`reset_peak_rss`] counts live memory, not
/// what earlier work left cached in the allocator's arenas.
pub fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` only releases free memory.
    unsafe { malloc_trim(0) };
}

/// Fixed ALU work for the parallel-efficiency probe.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// Host provenance: `nproc`, `available_parallelism()`, and a measured
/// parallel efficiency — the time of one thread spinning on fixed work
/// divided by the time of two threads each spinning on the same work at
/// once (1.0 = two real cores, 0.5 = the threads share one).
pub fn host_line() -> String {
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse::<i64>().ok())
        .unwrap_or(-1);
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    const ITERS: u64 = 40_000_000;
    spin(ITERS / 4); // warm up frequency scaling
    let t = Instant::now();
    spin(ITERS);
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(ITERS));
        let b = s.spawn(|| spin(ITERS));
        a.join().expect("probe thread");
        b.join().expect("probe thread");
    });
    let two = t.elapsed().as_secs_f64();
    format!(
        "host {{\"nproc\": {nproc}, \"available_parallelism\": {avail}, \
         \"parallel_efficiency_2t\": {:.3}, \"spin_1t_s\": {one:.4}, \"spin_2t_s\": {two:.4}}}",
        one / two
    )
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`: time
/// the hypervisor ran something else while this machine's CPUs wanted to
/// run. Zero when unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Seconds since `t`, as a float.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A pin of the calling thread to one CPU; dropping it restores the
/// CPUs the thread could run on before.
pub struct Pinned {
    before: [u64; 16],
    pub cpu: usize,
}

/// Pins the calling thread to one CPU, the last one it may run on; the
/// threads and processes it starts while pinned inherit the pin. A closed
/// loop between two processes then hands the CPU straight from one to
/// the other instead of waking a second, idle CPU for every message.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut before = [0u64; 16];
    let size = std::mem::size_of_val(&before);
    // SAFETY: `before` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, before.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| before[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Pinned { before, cpu })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `before` is a readable buffer of its own size.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.before), self.before.as_ptr()) };
    }
}
