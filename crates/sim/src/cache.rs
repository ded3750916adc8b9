//! A set-associative data cache, standing in for the paper's simulation
//! environment (§3.4.2). The authors simulated an Alpha 21064 but with a
//! 32 KB primary data cache instead of 8 KB, *"to eliminate variations
//! due to conflict misses that we observed in an 8K direct mapped
//! cache"*. Our heap/stack/global addresses are synthetic, which makes a
//! pure direct-mapped cache chaotically sensitive to layout, so the
//! default here applies the same medicine in a different dose: the same
//! 32 KB, 32-byte lines, but 2-way set associative with LRU replacement.
//! Write-through, no write-allocate. A direct-mapped geometry is one
//! configuration away for ablations.

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
}

impl Default for CacheConfig {
    /// 32 KB, 32-byte lines, 2-way.
    fn default() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            ways: 2,
        }
    }
}

impl CacheConfig {
    /// The paper's literal geometry: 32 KB direct mapped.
    pub fn direct_mapped() -> Self {
        CacheConfig {
            ways: 1,
            ..CacheConfig::default()
        }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Load hits.
    pub hits: u64,
    /// Load misses.
    pub misses: u64,
    /// Stores (write-through).
    pub stores: u64,
}

impl CacheStats {
    /// Load miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    stamp: u64,
}

/// A set-associative cache simulator with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Way>,
    n_sets: u64,
    /// `log2(line_bytes)`: an address's line is `addr >> line_shift`.
    line_shift: u32,
    clock: u64,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not a valid geometry.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_bytes.is_power_of_two(), "line size");
        assert!(config.ways >= 1, "associativity");
        let lines = config.size_bytes / config.line_bytes;
        assert!(lines.is_multiple_of(config.ways as u64), "geometry");
        let n_sets = lines / config.ways as u64;
        Cache {
            config,
            sets: vec![
                Way {
                    tag: u64::MAX,
                    stamp: 0
                };
                lines as usize
            ],
            n_sets,
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Simulates a load; returns whether it hit.
    pub fn load(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set = (line % self.n_sets) as usize;
        let ways = self.config.ways as usize;
        let base = set * ways;
        // Hit?
        for w in 0..ways {
            if self.sets[base + w].tag == line {
                self.sets[base + w].stamp = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: replace LRU.
        let mut victim = 0;
        for w in 1..ways {
            if self.sets[base + w].stamp < self.sets[base + victim].stamp {
                victim = w;
            }
        }
        self.sets[base + victim] = Way {
            tag: line,
            stamp: self.clock,
        };
        self.stats.misses += 1;
        false
    }

    /// Simulates a store (write-through, no allocate).
    pub fn store(&mut self, addr: u64) {
        let _ = addr;
        self.stats.stores += 1;
    }
}

impl Default for Cache {
    fn default() -> Self {
        Cache::new(CacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_loads_hit() {
        let mut c = Cache::default();
        assert!(!c.load(0x1000));
        assert!(c.load(0x1000));
        assert!(c.load(0x1008), "same 32-byte line");
        assert_eq!(c.stats.hits, 2);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn two_way_survives_one_conflict() {
        let mut c = Cache::default();
        let stride = 16 * 1024; // same set, different tag (2-way: 512 sets)
        assert!(!c.load(0));
        assert!(!c.load(stride));
        assert!(c.load(0), "both lines fit in a 2-way set");
        assert!(c.load(stride));
    }

    #[test]
    fn three_way_conflict_evicts_lru() {
        let mut c = Cache::default();
        let stride = 16 * 1024;
        assert!(!c.load(0));
        assert!(!c.load(stride));
        assert!(!c.load(2 * stride), "third line misses");
        assert!(!c.load(0), "LRU line 0 was evicted");
        assert!(c.load(2 * stride), "most recent lines remain");
    }

    #[test]
    fn direct_mapped_config_conflicts() {
        let mut c = Cache::new(CacheConfig::direct_mapped());
        let stride = 32 * 1024;
        assert!(!c.load(0));
        assert!(!c.load(stride));
        assert!(!c.load(0), "direct mapped: evicted");
        assert!((c.stats.miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stores_do_not_allocate() {
        let mut c = Cache::default();
        c.store(0x4000);
        assert!(!c.load(0x4000));
        assert_eq!(c.stats.stores, 1);
    }
}
