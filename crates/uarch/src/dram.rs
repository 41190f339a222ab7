//! DRAM model: fixed random-access latency plus a peak-bandwidth channel
//! that queues transfers.
//!
//! The paper's eye model saturates its platform near 60 GB/s; this model
//! reproduces that behaviour: once line transfers arrive faster than the
//! channel drains them, queueing delay grows and effective latency climbs.

/// Bandwidth-limited, fixed-latency DRAM channel.
#[derive(Debug, Clone)]
pub struct Dram {
    latency_cycles: u64,
    cycles_per_line: f64,
    /// Next cycle at which the channel is free.
    next_free: f64,
    /// Total lines transferred (reads + writebacks).
    pub lines_transferred: u64,
    /// Total read (demand miss) accesses.
    pub reads: u64,
    /// Total writeback accesses.
    pub writebacks: u64,
    /// Accumulated queueing delay in cycles (bandwidth pressure metric).
    pub queue_delay_cycles: u64,
}

impl Dram {
    /// Builds a channel from latency (already in core cycles), peak
    /// bandwidth in GB/s, core frequency and line size.
    ///
    /// # Panics
    ///
    /// Panics on non-positive bandwidth or frequency.
    pub fn new(latency_cycles: u64, bandwidth_gbps: f64, freq_ghz: f64, line_bytes: usize) -> Self {
        assert!(
            bandwidth_gbps > 0.0 && freq_ghz > 0.0,
            "invalid dram parameters"
        );
        // bytes/cycle = GB/s / GHz; cycles per line = line / (bytes/cycle).
        let bytes_per_cycle = bandwidth_gbps / freq_ghz;
        Dram {
            latency_cycles,
            cycles_per_line: line_bytes as f64 / bytes_per_cycle,
            next_free: 0.0,
            lines_transferred: 0,
            reads: 0,
            writebacks: 0,
            queue_delay_cycles: 0,
        }
    }

    /// Issues a line read at `now`; returns the completion cycle.
    pub fn read(&mut self, now: u64) -> u64 {
        self.reads += 1;
        self.transfer(now)
    }

    /// Issues a writeback at `now`; returns the completion cycle (the
    /// requester does not wait, but the channel time is consumed).
    pub fn writeback(&mut self, now: u64) -> u64 {
        self.writebacks += 1;
        self.transfer(now)
    }

    /// Forgets the channel-occupancy timestamp (counters are kept).
    /// Called when a new timed run starts at cycle 0 on a warm hierarchy,
    /// so a stale `next_free` from a previous run cannot queue the first
    /// transfers behind phantom traffic.
    pub fn reset_timing(&mut self) {
        self.next_free = 0.0;
    }

    fn transfer(&mut self, now: u64) -> u64 {
        self.lines_transferred += 1;
        let start = (now as f64).max(self.next_free);
        let queue = (start - now as f64).max(0.0);
        self.queue_delay_cycles += queue as u64;
        self.next_free = start + self.cycles_per_line;
        now + self.latency_cycles + queue as u64 + self.cycles_per_line.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_base_plus_transfer() {
        let mut d = Dram::new(180, 38.4, 3.0, 64);
        // 38.4/3.0 = 12.8 B/cycle -> 5 cycles per 64 B line.
        let done = d.read(1000);
        assert_eq!(done, 1000 + 180 + 5);
        assert_eq!(d.reads, 1);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = Dram::new(100, 32.0, 4.0, 64);
        // 8 B/cycle -> 8 cycles per line.
        let a = d.read(0);
        let b = d.read(0);
        let c = d.read(0);
        assert!(b > a && c > b, "queueing must serialize transfers");
        assert!(d.queue_delay_cycles > 0);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut d = Dram::new(100, 32.0, 4.0, 64);
        let a = d.read(0);
        let b = d.read(1000);
        assert_eq!(b - 1000, a);
        assert_eq!(d.queue_delay_cycles, 0);
    }

    #[test]
    fn writebacks_consume_bandwidth() {
        let mut d = Dram::new(100, 32.0, 4.0, 64);
        d.writeback(0);
        let read_done = d.read(0);
        assert!(read_done > 100 + 8, "writeback should delay the read");
        assert_eq!(d.writebacks, 1);
    }

    #[test]
    fn achieved_bandwidth() {
        let mut d = Dram::new(10, 64.0, 1.0, 64);
        for i in 0..100 {
            d.read(i * 2);
        }
        assert_eq!(d.lines_transferred, 100);
    }
}
