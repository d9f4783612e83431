//! Shared cache statistics.
//!
//! The paper (§4): "For direct access methods, buffer caching techniques
//! would be helpful when there is some locality of reference, as in the PDA
//! organization." The caching itself lives in the volume-wide
//! [`VolumeCache`] tier; this module holds the traffic counters it
//! reports, so experiments can connect locality to observed traffic.
//!
//! [`VolumeCache`]: crate::VolumeCache

/// Cache traffic counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that went to a device.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written to a device (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit ratio over all reads (0 when no reads occurred).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_counts_reads_only() {
        let s = CacheStats {
            hits: 1,
            misses: 1,
            evictions: 7,
            writebacks: 7,
        };
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }
}
