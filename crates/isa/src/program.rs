//! Program images, the simulated memory map, and the loader.
//!
//! Both simulators boot the same flat-memory "machine": a nano-kernel region,
//! a read-only code region, a data region, and a downward-growing stack. The
//! map is deliberately simple — the paper's faults are injected into
//! *microarchitectural* storage, and the memory map only needs to give those
//! faults realistic consequences (code corruption, wild stores, kernel-state
//! corruption).

use difi_util::{Error, Result};

/// The two instruction sets of the differential study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// x86-like CISC: variable-length, two-operand, FLAGS, stack calls.
    X86e,
    /// ARM-like RISC: fixed 4-byte, three-operand, link-register calls.
    Arme,
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Isa::X86e => write!(f, "x86e"),
            Isa::Arme => write!(f, "arme"),
        }
    }
}

/// The simulated physical memory map (identical for both ISAs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryMap {
    /// Total bytes of simulated memory.
    pub size: u64,
    /// Start of the nano-kernel state region.
    pub kernel_base: u64,
    /// Size of the nano-kernel state region.
    pub kernel_size: u64,
    /// Base address of the (read-only) code region.
    pub code_base: u64,
    /// Maximum code bytes.
    pub code_size: u64,
    /// Base address of the data region (initialized data, then bss/heap).
    pub data_base: u64,
    /// Initial stack pointer (stack grows down from here).
    pub stack_top: u64,
}

impl MemoryMap {
    /// The canonical 16 MiB map used throughout the study.
    pub const DEFAULT: MemoryMap = MemoryMap {
        size: 16 * 1024 * 1024,
        kernel_base: 0x0000_1000,
        kernel_size: 0x1000,
        code_base: 0x0001_0000,
        code_size: 0x000F_0000,
        data_base: 0x0010_0000,
        stack_top: 0x00F0_0000,
    };

    /// True if `addr..addr+len` lies inside mapped memory.
    #[inline]
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len).is_some_and(|end| end <= self.size)
    }

    /// True if the range overlaps the read-only code region.
    #[inline]
    pub fn in_code(&self, addr: u64, len: u64) -> bool {
        let end = addr.saturating_add(len);
        addr < self.code_base + self.code_size && end > self.code_base
    }

    /// True if the range overlaps the nano-kernel state region.
    #[inline]
    pub fn in_kernel(&self, addr: u64, len: u64) -> bool {
        let end = addr.saturating_add(len);
        addr < self.kernel_base + self.kernel_size && end > self.kernel_base
    }
}

impl Default for MemoryMap {
    fn default() -> Self {
        MemoryMap::DEFAULT
    }
}

/// A loadable program image for one ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Which ISA the code section encodes.
    pub isa: Isa,
    /// Machine code, loaded at `map.code_base`.
    pub code: Vec<u8>,
    /// Initialized data, loaded at `map.data_base`.
    pub data: Vec<u8>,
    /// Entry point (absolute address).
    pub entry: u64,
    /// The memory map the image was linked against.
    pub map: MemoryMap,
    /// Human-readable name (benchmark name), for logs and reports.
    pub name: String,
}

impl Program {
    /// Validates the image against its memory map.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Program`] when a section exceeds its region or the
    /// entry point lies outside the code section.
    pub fn validate(&self) -> Result<()> {
        let m = &self.map;
        if self.code.len() as u64 > m.code_size {
            return Err(Error::Program(format!(
                "code section {} bytes exceeds region of {} bytes",
                self.code.len(),
                m.code_size
            )));
        }
        if m.data_base + self.data.len() as u64 > m.stack_top {
            return Err(Error::Program("data section collides with stack".into()));
        }
        let code_end = m.code_base + self.code.len() as u64;
        if self.entry < m.code_base || self.entry >= code_end {
            return Err(Error::Program(format!(
                "entry {:#x} outside code [{:#x}, {:#x})",
                self.entry, m.code_base, code_end
            )));
        }
        Ok(())
    }

    /// Builds the functional emulator's initial flat memory: zeroed memory
    /// with code and data sections copied in. (Kernel state is initialized
    /// separately by [`crate::kernel::install`].) The pipelines load the same
    /// sections straight into their paged main memory instead.
    pub fn initial_memory(&self) -> Vec<u8> {
        let mut mem = vec![0u8; self.map.size as usize];
        let cb = self.map.code_base as usize;
        mem[cb..cb + self.code.len()].copy_from_slice(&self.code);
        let db = self.map.data_base as usize;
        mem[db..db + self.data.len()].copy_from_slice(&self.data);
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        Program {
            isa: Isa::X86e,
            code: vec![0x01, 0x01, 0x01],
            data: vec![1, 2, 3, 4],
            entry: MemoryMap::DEFAULT.code_base,
            map: MemoryMap::DEFAULT,
            name: "tiny".into(),
        }
    }

    #[test]
    fn default_map_is_internally_consistent() {
        let m = MemoryMap::DEFAULT;
        assert!(m.kernel_base + m.kernel_size <= m.code_base);
        assert!(m.code_base + m.code_size <= m.data_base);
        assert!(m.data_base < m.stack_top);
        assert!(m.stack_top < m.size);
    }

    #[test]
    fn region_predicates() {
        let m = MemoryMap::DEFAULT;
        assert!(m.contains(0, 16));
        assert!(!m.contains(m.size - 4, 8));
        assert!(!m.contains(u64::MAX - 2, 8));
        assert!(m.in_code(m.code_base, 4));
        assert!(m.in_code(m.code_base + m.code_size - 1, 4));
        assert!(!m.in_code(m.data_base, 4));
        assert!(m.in_kernel(m.kernel_base + 8, 8));
        assert!(!m.in_kernel(0, 8));
    }

    #[test]
    fn validate_accepts_tiny_program() {
        assert!(tiny_program().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_entry() {
        let mut p = tiny_program();
        p.entry = 0;
        assert!(p.validate().is_err());
        p.entry = p.map.code_base + 100; // past end of 3-byte code
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_oversized_code() {
        let mut p = tiny_program();
        p.code = vec![0; (p.map.code_size + 1) as usize];
        assert!(p.validate().is_err());
    }

    #[test]
    fn initial_memory_places_sections() {
        let p = tiny_program();
        let mem = p.initial_memory();
        assert_eq!(mem.len() as u64, p.map.size);
        let cb = p.map.code_base as usize;
        assert_eq!(&mem[cb..cb + 3], &[0x01, 0x01, 0x01]);
        let db = p.map.data_base as usize;
        assert_eq!(&mem[db..db + 4], &[1, 2, 3, 4]);
    }
}
