//! The worker-count policy shared by every threaded kernel in this crate
//! (dense engine fill, dense census, scalar pair count).

use std::sync::OnceLock;

/// A thread request meaning "one worker per host core"; pass it where a
/// caller wants every core and let [`effective_workers`] cap it.
pub const ALL_CORES: usize = usize::MAX;

/// The host's core count, looked up once per process.
pub fn host_cores() -> usize {
    // `available_parallelism` re-reads cgroup quotas on every call
    // (~10–25µs on Linux) — far too slow for per-query kernels that route
    // their thread clamp through here. The core count is fixed for the
    // process lifetime, so resolve it once.
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The worker count actually worth spawning for `items` independent work
/// units when `requested` threads were asked for: never more threads than
/// items, and never more than the host exposes — a single-core host pays
/// thread-spawn overhead without any parallel speedup, so it always runs
/// serial.
pub fn effective_workers(requested: usize, items: usize) -> usize {
    effective_workers_for(requested, items, host_cores())
}

/// Pure core of [`effective_workers`], parameterized on the core count so
/// the clamp is testable on any host.
pub fn effective_workers_for(requested: usize, items: usize, cores: usize) -> usize {
    requested.clamp(1, items.max(1)).min(cores.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_clamps_to_items_and_cores() {
        // Single-core hosts never spawn.
        assert_eq!(effective_workers_for(8, 100, 1), 1);
        // Never more workers than items.
        assert_eq!(effective_workers_for(8, 3, 16), 3);
        // Never more than the host exposes.
        assert_eq!(effective_workers_for(8, 100, 4), 4);
        assert_eq!(effective_workers_for(ALL_CORES, 100, 4), 4);
        // Zero requests still run the work.
        assert_eq!(effective_workers_for(0, 100, 4), 1);
        // No items: one worker, no division by zero.
        assert_eq!(effective_workers_for(4, 0, 4), 1);
    }
}
