//! Main memory and the two-level cache hierarchy.
//!
//! [`MemSystem`] wires L1I, L1D and a unified L2 (Table II geometries) over a
//! paged, copy-on-write main memory ([`MainMemory`]), with the two policy
//! switches that reproduce the fundamental MARSS/gem5 difference the paper's
//! Remark 3 analyses:
//!
//! * `store_through_to_memory` — MARSS keeps the QEMU hypervisor's memory
//!   image coherent by propagating committed stores to main memory as well
//!   as the cache; gem5 is a pure write-back hierarchy where a dirty line is
//!   the *only* copy of the data.
//! * next-line prefetchers on L1D/L1I — the components the paper *added* to
//!   MARSS (Table IV, "New").
//!
//! The hypervisor escape itself ([`MemSystem::bypass_read`] /
//! [`MemSystem::bypass_write`]) reads and writes main memory without
//! touching the caches — "when QEMU is invoked, the cache of the
//! microarchitecture is not accessed".

use crate::cache::{Cache, CacheConfig, Writeback, MAX_LINE};
use std::ops::Range;
use std::sync::Arc;

/// Bytes per main-memory page.
const PAGE: usize = 4096;

/// Main memory as 4 KiB copy-on-write pages. The paper injects only into
/// on-core structures, so DRAM carries no fault planes.
///
/// A page that was never written is absent and reads as zeros. A clone
/// copies only the page table and shares every page with its source; the
/// first write to a shared page, on either side, gives the writer a private
/// copy of that one page (`Arc::make_mut`). No write ever lands in a shared
/// page, so a clone is isolated from its source. This is what makes a
/// warm-start restore cheap (DESIGN.md §8): a workload writes a handful of
/// the 4,096 pages of the 16 MiB map.
#[derive(Clone)]
pub struct MainMemory {
    size: u64,
    pages: Vec<Option<Arc<[u8; PAGE]>>>,
}

impl MainMemory {
    /// Zeroed memory of `size` bytes. No page exists until it is written.
    pub fn new(size: u64) -> MainMemory {
        MainMemory {
            size,
            pages: vec![None; (size as usize).div_ceil(PAGE)],
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// True if `addr..addr + len` lies inside memory.
    fn in_range(&self, addr: u64, len: usize) -> bool {
        addr < self.size && addr + len as u64 <= self.size
    }

    /// Reads `buf.len()` bytes at `addr`. Out-of-range reads return zeros
    /// (an open bus), matching how a memory controller responds to wild
    /// addresses produced by corrupted tags/translations.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        if !self.in_range(addr, buf.len()) {
            buf.fill(0);
            return;
        }
        for (page, off, span) in pieces(addr, buf.len()) {
            let dst = &mut buf[span];
            match &self.pages[page] {
                Some(p) => dst.copy_from_slice(&p[off..off + dst.len()]),
                None => dst.fill(0),
            }
        }
    }

    /// Writes bytes at `addr`; a write that does not lie wholly inside
    /// memory is dropped.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) {
        if !self.in_range(addr, bytes.len()) {
            return;
        }
        for (page, off, span) in pieces(addr, bytes.len()) {
            let src = &bytes[span];
            let p = self.pages[page].get_or_insert_with(|| Arc::new([0; PAGE]));
            Arc::make_mut(p)[off..off + src.len()].copy_from_slice(src);
        }
    }
}

impl std::fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MainMemory")
            .field("size", &self.size)
            .field("pages_written", &self.pages.iter().flatten().count())
            .finish()
    }
}

/// Splits the in-range access `addr..addr + len` at page boundaries into
/// `(page index, offset in page, range of the caller's buffer)` pieces.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let start = addr as usize;
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = start + done;
            let n = (PAGE - a % PAGE).min(len - done);
            done += n;
            (a / PAGE, a % PAGE, done - n..done)
        })
    })
}

/// Access latencies in cycles, added on top of the probing level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1_hit: u32,
    /// Additional latency of an L2 hit.
    pub l2_hit: u32,
    /// Additional latency of a main-memory access.
    pub memory: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l1_hit: 2,
            l2_hit: 12,
            memory: 80,
        }
    }
}

/// Policy switches distinguishing the MARSS-like from the gem5-like
/// hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPolicy {
    /// Committed stores also update main memory (MARSS/QEMU coherence).
    /// Required when the simulator uses the hypervisor bypass, which reads
    /// main memory directly.
    pub store_through_to_memory: bool,
    /// Next-line prefetch into L1D on misses (MaFIN's added prefetcher).
    pub l1d_prefetch: bool,
    /// Next-line prefetch into L1I on misses.
    pub l1i_prefetch: bool,
    /// Model the cache data/instruction arrays (the extension the paper
    /// added to MARSS at ≈40% throughput cost, §III.C). When `false` —
    /// original-MARSS performance mode — tags/valid/LRU are still modeled
    /// for timing, but data reads come straight from main memory and data
    /// arrays are neither filled nor written, so cache data faults cannot
    /// be injected. Requires `store_through_to_memory`.
    pub model_data_arrays: bool,
}

impl Default for MemPolicy {
    fn default() -> Self {
        MemPolicy {
            store_through_to_memory: false,
            l1d_prefetch: false,
            l1i_prefetch: false,
            model_data_arrays: true,
        }
    }
}

/// Hierarchy-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemSystemStats {
    /// Data reads served.
    pub data_reads: u64,
    /// Data writes served.
    pub data_writes: u64,
    /// Instruction fetch requests served.
    pub fetches: u64,
    /// Prefetch fills issued.
    pub prefetches: u64,
    /// Hypervisor-bypass accesses.
    pub bypasses: u64,
}

/// The two-level memory system.
#[derive(Debug, Clone)]
pub struct MemSystem {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Main memory.
    pub mem: MainMemory,
    /// Policy switches.
    pub policy: MemPolicy,
    /// Latency model.
    pub lat: LatencyModel,
    /// Statistics.
    pub stats: MemSystemStats,
    /// Memoized most-recent L1I hit as (line base address, line index,
    /// [`Cache::generation`] at memo time). Fetches inside this line
    /// revalidate with one generation compare instead of a per-way tag
    /// probe — only while the L1I is [`Cache::passive`].
    l1i_memo: Option<(u64, usize, u64)>,
    /// Same memo for the most recently accessed L1D line: loads and stores
    /// inside it skip the per-way probe while the L1D is
    /// [`Cache::passive`]. Placement-only generations keep it live across
    /// stores (a write moves no lines).
    l1d_memo: Option<(u64, usize, u64)>,
}

impl MemSystem {
    /// Builds the hierarchy with the paper's Table II cache geometries over
    /// the given main memory.
    pub fn new(mem: MainMemory, policy: MemPolicy) -> MemSystem {
        MemSystem {
            l1i: Cache::new(CacheConfig::L1),
            l1d: Cache::new(CacheConfig::L1),
            l2: Cache::new(CacheConfig::L2),
            mem,
            policy,
            lat: LatencyModel::default(),
            stats: MemSystemStats::default(),
            l1i_memo: None,
            l1d_memo: None,
        }
    }

    /// Builds with explicit cache configurations (used by sizing studies).
    pub fn with_configs(
        mem: MainMemory,
        policy: MemPolicy,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
    ) -> MemSystem {
        MemSystem {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            mem,
            policy,
            lat: LatencyModel::default(),
            stats: MemSystemStats::default(),
            l1i_memo: None,
            l1d_memo: None,
        }
    }

    fn line_size(&self) -> usize {
        self.l2.config().line
    }

    /// Fetches a line into L2 (from memory if absent) and returns its index
    /// plus the added latency.
    fn l2_line(&mut self, line_addr: u64) -> (usize, u32) {
        if let Some(idx) = self.l2.lookup(line_addr) {
            self.l2.stats.read_hits += 1;
            return (idx, self.lat.l2_hit);
        }
        self.l2.stats.read_misses += 1;
        let line = self.line_size();
        let mut data = [0u8; MAX_LINE];
        if self.policy.model_data_arrays {
            self.mem.read(line_addr, &mut data[..line]);
        }
        if let Some(wb) = self.l2.fill(line_addr, &data[..line]) {
            self.mem.write(wb.addr, wb.data());
        }
        let idx = self.l2.lookup(line_addr).expect("just filled");
        (idx, self.lat.l2_hit + self.lat.memory)
    }

    /// Copies a line out of L2 (filling it from memory if needed) into
    /// `out`, which must be exactly one line long. Returns the added
    /// latency.
    fn line_via_l2(&mut self, line_addr: u64, out: &mut [u8]) -> u32 {
        let (idx, lat) = self.l2_line(line_addr);
        if self.policy.model_data_arrays {
            self.l2.read(idx, 0, out);
        }
        lat
    }

    /// Accepts a dirty line evicted from an L1 and installs it in L2.
    fn absorb_writeback(&mut self, wb: Writeback) {
        if let Some(idx) = self.l2.lookup(wb.addr) {
            self.l2.stats.write_hits += 1;
            self.l2.write(idx, 0, wb.data());
        } else {
            // Write-allocate on writeback: install, then mark dirty by
            // rewriting the data through the write path.
            self.l2.stats.write_misses += 1;
            if let Some(deeper) = self.l2.fill(wb.addr, wb.data()) {
                self.mem.write(deeper.addr, deeper.data());
            }
            if let Some(idx) = self.l2.lookup(wb.addr) {
                self.l2.write(idx, 0, wb.data());
            }
        }
    }

    /// Ensures the line containing `addr` is resident in L1I; returns its
    /// index and the added latency of any refill.
    fn ensure_l1i(&mut self, addr: u64) -> (usize, u32) {
        if let Some(idx) = self.l1i.lookup(addr) {
            self.l1i.stats.read_hits += 1;
            return (idx, 0);
        }
        self.l1i.stats.read_misses += 1;
        let line = self.line_size();
        let line_addr = addr & !(line as u64 - 1);
        let mut data = [0u8; MAX_LINE];
        let lat = self.line_via_l2(line_addr, &mut data[..line]);
        // L1I lines are never dirty; fills cannot write back.
        let wb = self.l1i.fill(line_addr, &data[..line]);
        debug_assert!(wb.is_none());
        if self.policy.l1i_prefetch {
            self.prefetch_into_l1i(line_addr + self.line_size() as u64);
        }
        (self.l1i.lookup(addr).expect("just filled"), lat)
    }

    /// Ensures the line containing `addr` is resident in L1D; counts the
    /// probe as a read or write per `is_write`.
    fn ensure_l1d(&mut self, addr: u64, is_write: bool) -> (usize, u32) {
        if let Some(idx) = self.l1d.lookup(addr) {
            if is_write {
                self.l1d.stats.write_hits += 1;
            } else {
                self.l1d.stats.read_hits += 1;
            }
            return (idx, 0);
        }
        if is_write {
            self.l1d.stats.write_misses += 1;
        } else {
            self.l1d.stats.read_misses += 1;
        }
        let line = self.line_size();
        let line_addr = addr & !(line as u64 - 1);
        let mut data = [0u8; MAX_LINE];
        let lat = self.line_via_l2(line_addr, &mut data[..line]);
        if let Some(wb) = self.l1d.fill(line_addr, &data[..line]) {
            self.absorb_writeback(wb);
        }
        if self.policy.l1d_prefetch && !is_write {
            self.prefetch_into_l1d(line_addr + self.line_size() as u64);
        }
        (self.l1d.lookup(addr).expect("just filled"), lat)
    }

    /// Instruction fetch of `buf.len()` bytes at `addr`. Returns latency.
    pub fn fetch(&mut self, addr: u64, buf: &mut [u8]) -> u32 {
        let line = self.line_size() as u64;
        // Fast path: the whole access lies inside the memoized most-recent
        // L1I line, placement has not changed since, and no fault hook or
        // residency tracker is observing. Reproduces a slow-path hit's
        // observable effects exactly: stats, LRU touch, data source, latency.
        if let Some((line_addr, idx, gen)) = self.l1i_memo {
            if self.l1i.generation() == gen
                && addr & !(line - 1) == line_addr
                && addr % line + buf.len() as u64 <= line
                && self.l1i.passive()
            {
                self.stats.fetches += 1;
                self.l1i.stats.read_hits += 1;
                self.l1i.touch(idx);
                if self.policy.model_data_arrays {
                    self.l1i.read_passive(idx, (addr % line) as usize, buf);
                } else {
                    self.mem.read(addr, buf);
                }
                return self.lat.l1_hit;
            }
        }
        self.stats.fetches += 1;
        let mut total = self.lat.l1_hit;
        let (mut a, mut off) = (addr, 0usize);
        while off < buf.len() {
            let n = ((line - a % line) as usize).min(buf.len() - off);
            let (idx, lat) = self.ensure_l1i(a);
            self.l1i_memo = Some((a & !(line - 1), idx, self.l1i.generation()));
            total += lat;
            if self.policy.model_data_arrays {
                let line_off = (a % line) as usize;
                self.l1i.read(idx, line_off, &mut buf[off..off + n]);
            } else {
                self.mem.read(a, &mut buf[off..off + n]);
            }
            off += n;
            a += n as u64;
        }
        total
    }

    /// Data read of `buf.len()` bytes at `addr`. Returns latency.
    pub fn read_data(&mut self, addr: u64, buf: &mut [u8]) -> u32 {
        let line = self.line_size() as u64;
        // Fast path: the access lies inside the memoized most-recent L1D
        // line, placement hasn't changed, nothing observes. Reproduces a
        // probed hit's observable effects exactly (stats, LRU, data source,
        // latency) — see the `fetch` fast path.
        if let Some((line_addr, idx, gen)) = self.l1d_memo {
            if self.l1d.generation() == gen
                && addr & !(line - 1) == line_addr
                && addr % line + buf.len() as u64 <= line
                && self.l1d.passive()
            {
                self.stats.data_reads += 1;
                self.l1d.stats.read_hits += 1;
                self.l1d.touch(idx);
                if self.policy.model_data_arrays {
                    self.l1d.read_passive(idx, (addr % line) as usize, buf);
                } else {
                    self.mem.read(addr, buf);
                }
                return self.lat.l1_hit;
            }
        }
        self.stats.data_reads += 1;
        let mut total = self.lat.l1_hit;
        let (mut a, mut off) = (addr, 0usize);
        while off < buf.len() {
            let n = ((line - a % line) as usize).min(buf.len() - off);
            let (idx, lat) = self.ensure_l1d(a, false);
            self.l1d_memo = Some((a & !(line - 1), idx, self.l1d.generation()));
            total += lat;
            if self.policy.model_data_arrays {
                let line_off = (a % line) as usize;
                self.l1d.read(idx, line_off, &mut buf[off..off + n]);
            } else {
                self.mem.read(a, &mut buf[off..off + n]);
            }
            off += n;
            a += n as u64;
        }
        total
    }

    /// Data write of `bytes` at `addr` (write-back, write-allocate).
    /// Returns latency.
    pub fn write_data(&mut self, addr: u64, bytes: &[u8]) -> u32 {
        let line = self.line_size() as u64;
        // Fast path: same memo as `read_data`. `Cache::write` keeps its own
        // bookkeeping (dirty bit, idle hook probes), so the only work
        // elided is the per-way placement probe.
        if let Some((line_addr, idx, gen)) = self.l1d_memo {
            if self.l1d.generation() == gen
                && addr & !(line - 1) == line_addr
                && addr % line + bytes.len() as u64 <= line
                && self.l1d.passive()
            {
                self.stats.data_writes += 1;
                self.l1d.stats.write_hits += 1;
                self.l1d.touch(idx);
                if self.policy.model_data_arrays {
                    self.l1d.write(idx, (addr % line) as usize, bytes);
                }
                if self.policy.store_through_to_memory {
                    self.mem.write(addr, bytes);
                }
                return self.lat.l1_hit;
            }
        }
        self.stats.data_writes += 1;
        let mut total = self.lat.l1_hit;
        let (mut a, mut off) = (addr, 0usize);
        while off < bytes.len() {
            let n = ((line - a % line) as usize).min(bytes.len() - off);
            let (idx, lat) = self.ensure_l1d(a, true);
            self.l1d_memo = Some((a & !(line - 1), idx, self.l1d.generation()));
            total += lat;
            if self.policy.model_data_arrays {
                let line_off = (a % line) as usize;
                self.l1d.write(idx, line_off, &bytes[off..off + n]);
            } else {
                // Performance mode still marks the line dirty for traffic
                // realism but does not maintain its data.
                let line_off = (a % line) as usize;
                let _ = (idx, line_off);
            }
            off += n;
            a += n as u64;
        }
        if self.policy.store_through_to_memory {
            self.mem.write(addr, bytes);
        }
        total
    }

    fn prefetch_into_l1i(&mut self, line_addr: u64) {
        if line_addr >= self.mem.size() || self.l1i.lookup(line_addr).is_some() {
            return;
        }
        self.stats.prefetches += 1;
        let line = self.line_size();
        let mut data = [0u8; MAX_LINE];
        self.line_via_l2(line_addr, &mut data[..line]);
        let wb = self.l1i.fill(line_addr, &data[..line]);
        debug_assert!(wb.is_none());
    }

    fn prefetch_into_l1d(&mut self, line_addr: u64) {
        if line_addr >= self.mem.size() || self.l1d.lookup(line_addr).is_some() {
            return;
        }
        self.stats.prefetches += 1;
        let line = self.line_size();
        let mut data = [0u8; MAX_LINE];
        self.line_via_l2(line_addr, &mut data[..line]);
        if let Some(wb) = self.l1d.fill(line_addr, &data[..line]) {
            self.absorb_writeback(wb);
        }
    }

    /// Hypervisor-bypass read: straight from main memory, caches untouched.
    pub fn bypass_read(&mut self, addr: u64, buf: &mut [u8]) {
        self.stats.bypasses += 1;
        self.mem.read(addr, buf);
    }

    /// Hypervisor-bypass write: straight to main memory.
    pub fn bypass_write(&mut self, addr: u64, bytes: &[u8]) {
        self.stats.bypasses += 1;
        self.mem.write(addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(policy: MemPolicy) -> MemSystem {
        let image: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        let mut mem = MainMemory::new(image.len() as u64);
        mem.write(0, &image);
        MemSystem::new(mem, policy)
    }

    #[test]
    fn read_miss_then_hit_latency_ordering() {
        let mut s = sys(MemPolicy::default());
        let mut b = [0u8; 8];
        let miss_lat = s.read_data(0x4000, &mut b);
        let hit_lat = s.read_data(0x4000, &mut b);
        assert!(miss_lat > hit_lat);
        assert_eq!(hit_lat, s.lat.l1_hit);
        assert_eq!(s.l1d.stats.read_misses, 1);
        assert_eq!(s.l1d.stats.read_hits, 1);
    }

    #[test]
    fn read_returns_memory_contents() {
        let mut s = sys(MemPolicy::default());
        let mut b = [0u8; 4];
        s.read_data(1000, &mut b);
        let expect: Vec<u8> = (1000..1004).map(|i| (i % 251) as u8).collect();
        assert_eq!(&b, expect.as_slice());
    }

    #[test]
    fn write_then_read_through_cache() {
        let mut s = sys(MemPolicy::default());
        s.write_data(0x5000, &[1, 2, 3, 4]);
        let mut b = [0u8; 4];
        s.read_data(0x5000, &mut b);
        assert_eq!(b, [1, 2, 3, 4]);
        // Pure write-back: memory still has the old bytes.
        let mut m = [0u8; 1];
        s.mem.read(0x5000, &mut m);
        assert_eq!(m[0], (0x5000 % 251) as u8);
    }

    #[test]
    fn store_through_updates_memory_immediately() {
        let mut s = sys(MemPolicy {
            store_through_to_memory: true,
            ..Default::default()
        });
        s.write_data(0x5000, &[9, 9]);
        let mut m = [0u8; 2];
        s.mem.read(0x5000, &mut m);
        assert_eq!(m, [9, 9]);
    }

    #[test]
    fn straddling_access_spans_two_lines() {
        let mut s = sys(MemPolicy::default());
        let addr = 64 * 100 - 3; // 3 bytes in one line, 5 in the next
        s.write_data(addr, &[7; 8]);
        let mut b = [0u8; 8];
        s.read_data(addr, &mut b);
        assert_eq!(b, [7; 8]);
        assert!(s.l1d.stats.write_misses >= 2);
    }

    #[test]
    fn dirty_l1_eviction_lands_in_l2_and_survives() {
        let mut s = sys(MemPolicy::default());
        // Write a line, then blow it out of L1D by filling its set.
        s.write_data(0x0, &[0xAB; 8]);
        // L1: 128 sets * 64B = 8KB stride per set.
        for i in 1..=4u64 {
            let mut b = [0u8; 1];
            s.read_data(i * 8192, &mut b);
        }
        // The dirty line left L1D…
        assert!(s.l1d.stats.writebacks >= 1);
        // …but reading it back still returns the written data (from L2).
        let mut b = [0u8; 8];
        s.read_data(0x0, &mut b);
        assert_eq!(b, [0xAB; 8]);
    }

    #[test]
    fn bypass_accesses_skip_caches() {
        let mut s = sys(MemPolicy {
            store_through_to_memory: true,
            ..Default::default()
        });
        let mut b = [0u8; 4];
        s.bypass_read(0x6000, &mut b);
        assert_eq!(s.l1d.stats.read_hits + s.l1d.stats.read_misses, 0);
        s.bypass_write(0x6000, &[1, 2, 3, 4]);
        let mut m = [0u8; 4];
        s.mem.read(0x6000, &mut m);
        assert_eq!(m, [1, 2, 3, 4]);
        assert_eq!(s.stats.bypasses, 2);
    }

    #[test]
    fn bypass_sees_committed_stores_under_store_through() {
        // The MARSS coherence contract: hypervisor reads observe committed
        // stores because stores go through to memory.
        let mut s = sys(MemPolicy {
            store_through_to_memory: true,
            ..Default::default()
        });
        s.write_data(0x7000, &[0x42; 8]);
        let mut b = [0u8; 8];
        s.bypass_read(0x7000, &mut b);
        assert_eq!(b, [0x42; 8]);
    }

    #[test]
    fn fetch_path_uses_l1i_only() {
        let mut s = sys(MemPolicy::default());
        let mut b = [0u8; 16];
        s.fetch(0x10_000, &mut b);
        assert_eq!(s.l1i.stats.read_misses, 1);
        assert_eq!(s.l1d.stats.read_misses, 0);
        s.fetch(0x10_000, &mut b);
        assert_eq!(s.l1i.stats.read_hits, 1);
    }

    #[test]
    fn l1i_prefetch_pulls_next_line() {
        let mut s = sys(MemPolicy {
            l1i_prefetch: true,
            ..Default::default()
        });
        let mut b = [0u8; 4];
        s.fetch(0x10_000, &mut b);
        assert_eq!(s.stats.prefetches, 1);
        // Next line is already resident: no new miss.
        s.fetch(0x10_040, &mut b);
        assert_eq!(s.l1i.stats.read_misses, 1);
    }

    #[test]
    fn l1d_data_fault_corrupts_load_until_eviction() {
        let mut s = sys(MemPolicy::default());
        let mut b = [0u8; 1];
        s.read_data(0x8000, &mut b);
        let clean = b[0];
        let line = s.l1d.lookup(0x8000).unwrap();
        s.l1d.inject_data_flip(line as u64, 0);
        s.read_data(0x8000, &mut b);
        assert_eq!(b[0], clean ^ 1);
        assert!(s.l1d.any_fault_consumed());
    }

    #[test]
    fn clean_line_fault_dies_on_eviction_without_reaching_memory() {
        // MARSS-like store-through: a fault in a *clean* L1D line is lost on
        // eviction because memory already has the good copy — one source of
        // the extra masking the paper reports for MaFIN's L1D.
        let mut s = sys(MemPolicy {
            store_through_to_memory: true,
            ..Default::default()
        });
        let mut b = [0u8; 1];
        s.read_data(0x0, &mut b);
        let clean = b[0];
        let line = s.l1d.lookup(0x0).unwrap();
        s.l1d.inject_data_flip(line as u64, 0);
        // Evict by touching the same set (clean line: no writeback).
        for i in 1..=4u64 {
            s.read_data(i * 8192, &mut b);
        }
        s.read_data(0x0, &mut b);
        assert_eq!(b[0], clean, "refetched from clean memory");
    }

    #[test]
    fn dirty_line_fault_propagates_through_writeback() {
        let mut s = sys(MemPolicy::default());
        s.write_data(0x0, &[0x00; 8]);
        let line = s.l1d.lookup(0x0).unwrap();
        s.l1d.inject_data_flip(line as u64, 0);
        let mut b = [0u8; 1];
        for i in 1..=4u64 {
            s.read_data(i * 8192, &mut b);
        }
        s.read_data(0x0, &mut b);
        assert_eq!(b[0], 0x01, "corrupted dirty data survived the writeback");
    }

    #[test]
    fn out_of_range_writeback_is_dropped() {
        let mut m = MainMemory::new(64);
        m.write(1000, &[1, 2, 3]);
        let mut b = [9u8; 3];
        m.read(1000, &mut b);
        assert_eq!(b, [0, 0, 0], "open bus reads zeros");
    }

    fn page(m: &MainMemory, index: usize) -> &Arc<[u8; PAGE]> {
        m.pages[index].as_ref().expect("page was written")
    }

    #[test]
    fn unwritten_pages_read_zeros_and_are_not_created() {
        let m = MainMemory::new(4 * PAGE as u64);
        for addr in [0, PAGE as u64 - 4, 3 * PAGE as u64 + 17] {
            let mut b = [9u8; 8];
            m.read(addr, &mut b);
            assert_eq!(b, [0; 8]);
        }
        assert!(m.pages.iter().all(Option::is_none), "a read created a page");
    }

    #[test]
    fn access_straddling_a_page_boundary_round_trips() {
        let mut m = MainMemory::new(4 * PAGE as u64);
        let addr = 2 * PAGE as u64 - 3; // 3 bytes in page 1, 5 in page 2
        m.write(addr, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = [0u8; 8];
        m.read(addr, &mut b);
        assert_eq!(b, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(page(&m, 1)[PAGE - 3..], [1, 2, 3]);
        assert_eq!(page(&m, 2)[..5], [4, 5, 6, 7, 8]);
        assert!(m.pages[0].is_none() && m.pages[3].is_none());
    }

    #[test]
    fn clone_shares_pages_and_each_write_unshares_only_its_page() {
        let mut m = MainMemory::new(4 * PAGE as u64);
        m.write(0, &[1; 8]);
        m.write(PAGE as u64, &[2; 8]);
        let mut c = m.clone();
        assert!(Arc::ptr_eq(page(&m, 0), page(&c, 0)));
        assert!(Arc::ptr_eq(page(&m, 1), page(&c, 1)));

        // A write on the clone stays private and copies only page 0.
        c.write(4, &[7; 4]);
        assert!(!Arc::ptr_eq(page(&m, 0), page(&c, 0)));
        assert!(Arc::ptr_eq(page(&m, 1), page(&c, 1)));
        let mut b = [0u8; 8];
        m.read(0, &mut b);
        assert_eq!(b, [1; 8], "the clone's write reached its source");
        c.read(0, &mut b);
        assert_eq!(b, [1, 1, 1, 1, 7, 7, 7, 7]);

        // So does a write on the source, to the page still shared.
        m.write(PAGE as u64, &[5; 2]);
        assert!(!Arc::ptr_eq(page(&m, 1), page(&c, 1)));
        c.read(PAGE as u64, &mut b);
        assert_eq!(b, [2; 8], "the source's write reached its clone");

        // A page first written after the clone belongs to the writer alone.
        c.write(3 * PAGE as u64, &[3; 8]);
        assert!(m.pages[3].is_none());
    }

    #[test]
    fn out_of_range_uses_the_exact_size_not_the_page_rounded_one() {
        let size = PAGE as u64 + 10; // page 1 holds 10 bytes of memory
        let mut m = MainMemory::new(size);
        m.write(size - 4, &[1, 2, 3, 4]);
        let mut b = [9u8; 4];
        m.read(size - 4, &mut b);
        assert_eq!(b, [1, 2, 3, 4], "the last bytes are ordinary memory");

        // An access that straddles `size` is out of range as a whole: the
        // read returns all zeros, the write is dropped, in-range part too.
        let mut b = [9u8; 8];
        m.read(size - 4, &mut b);
        assert_eq!(b, [0; 8]);
        m.write(size - 2, &[7; 4]);
        let mut b = [0u8; 4];
        m.read(size - 4, &mut b);
        assert_eq!(b, [1, 2, 3, 4], "a straddling write landed");

        // Past `size` but inside the page: dropped and unreadable.
        m.write(size, &[7]);
        m.read(size, &mut b[..1]);
        assert_eq!(b[0], 0);
        assert!(page(&m, 1)[10..].iter().all(|&x| x == 0));
    }
}
