//! The nano-kernel: system-call and exception services with *simulated*
//! kernel state.
//!
//! The paper runs its benchmarks on a full-system simulator booting Linux;
//! faults can therefore corrupt kernel state and produce **system crashes**
//! (kernel panics), and handled exceptions produce **DUE** outcomes. This
//! module substitutes a nano-kernel whose *logic* runs on the host but whose
//! *state* lives in simulated memory — a magic word, a syscall dispatch
//! table, and console bookkeeping — so that injected faults reaching that
//! state cause kernel panics exactly as in the paper's taxonomy.
//!
//! Crucially, the kernel reads and writes its state through the
//! [`KernelMem`] trait. MarsSim implements it with *direct main-memory
//! accesses* (MARSS delegates system work to the QEMU hypervisor, whose
//! accesses do not travel through the modeled caches — the masking effect of
//! the paper's Remark 3), while GemSim implements it with *through-cache
//! accesses* (gem5 handles the whole system internally).

use crate::program::MemoryMap;
use crate::uop::Fault;

/// Magic word at the base of the kernel region; checked on every kernel
/// entry. A corrupted magic is an unrecoverable kernel panic.
pub const MAGIC: u64 = 0x6469_6669_6B72_6E6C; // "difikrnl"

/// Number of syscall dispatch-table entries.
pub const DISPATCH_ENTRIES: u64 = 8;

/// Offset of the dispatch table within the kernel region.
pub const DISPATCH_OFF: u64 = 0x08;
/// Offset of the handled-exception counter.
pub const EXC_COUNT_OFF: u64 = 0x48;
/// Offset of the console byte counter.
pub const CONSOLE_COUNT_OFF: u64 = 0x50;
/// Offset of the console checksum.
pub const CONSOLE_SUM_OFF: u64 = 0x58;

/// Syscall numbers (in `r0` at the `syscall` instruction).
pub mod sys {
    /// Terminate the process; exit code in `r1`.
    pub const EXIT: u64 = 0;
    /// Write `r2` bytes starting at address `r1` to the console.
    pub const WRITE: u64 = 1;
    /// Write the value of `r1` as decimal text plus a newline.
    pub const WRITE_INT: u64 = 2;
}

/// The expected dispatch-table entry for syscall `i` — a keyed value so that
/// any bit corruption is detected on the next kernel entry.
pub fn expected_dispatch(i: u64) -> u64 {
    MAGIC.rotate_left((i as u32 % 8) * 8) ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(i + 1)
}

/// Memory access path the kernel uses — the simulator decides whether these
/// travel through the cache hierarchy (GemSim) or go straight to main memory
/// (MarsSim's hypervisor model).
pub trait KernelMem {
    /// Reads a 64-bit little-endian word.
    fn read_u64(&mut self, addr: u64) -> Result<u64, Fault>;
    /// Writes a 64-bit little-endian word.
    fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), Fault>;
    /// Reads `buf.len()` bytes.
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Fault>;
}

/// What the kernel decided after a service request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelOutcome {
    /// Resume the process; any console output produced is attached.
    Continue(Vec<u8>),
    /// The process requested termination with this exit code.
    Exit(u64),
    /// The kernel's own state was corrupt or its accesses faulted:
    /// unrecoverable system crash (the paper's *kernel panic*).
    Panic(&'static str),
    /// The process did something unrecoverable (e.g. handed the kernel a
    /// wild pointer): process crash.
    Kill(Fault),
}

/// The kernel's boot state as `(address, value)` pairs of little-endian
/// 64-bit words: the magic, the syscall dispatch table, and the exception
/// and console counters at zero.
pub fn boot_words(map: &MemoryMap) -> impl Iterator<Item = (u64, u64)> {
    let base = map.kernel_base;
    let table =
        (0..DISPATCH_ENTRIES).map(move |i| (base + DISPATCH_OFF + i * 8, expected_dispatch(i)));
    let counters = [EXC_COUNT_OFF, CONSOLE_COUNT_OFF, CONSOLE_SUM_OFF].map(|off| (base + off, 0));
    std::iter::once((base, MAGIC)).chain(table).chain(counters)
}

/// Installs the kernel's [`boot_words`] into a flat memory image. Must be
/// called once before simulation starts: the functional emulator does this
/// to the image [`crate::program::Program::initial_memory`] builds, while the
/// pipelines write the same words straight into their paged main memory.
pub fn install(mem: &mut [u8], map: &MemoryMap) {
    for (addr, word) in boot_words(map) {
        let a = addr as usize;
        mem[a..a + 8].copy_from_slice(&word.to_le_bytes());
    }
}

/// Checks the kernel magic word; every kernel entry starts here.
fn check_magic<M: KernelMem + ?Sized>(mem: &mut M, map: &MemoryMap) -> Result<(), KernelOutcome> {
    match mem.read_u64(map.kernel_base) {
        Ok(v) if v == MAGIC => Ok(()),
        Ok(_) => Err(KernelOutcome::Panic("kernel magic corrupted")),
        Err(_) => Err(KernelOutcome::Panic("kernel state unreachable")),
    }
}

/// Handles a `syscall` instruction. `r0`/`r1`/`r2` are the architectural
/// argument registers at the time of the call.
///
/// Unknown syscall numbers are *handled*: the kernel logs an exception (the
/// ENOSYS analogue) and resumes the process — one of the paths by which a
/// fault becomes a DUE instead of a crash.
pub fn handle_syscall<M: KernelMem + ?Sized>(
    mem: &mut M,
    map: &MemoryMap,
    r0: u64,
    r1: u64,
    r2: u64,
) -> KernelOutcome {
    if let Err(panic) = check_magic(mem, map) {
        return panic;
    }
    let idx = r0 % DISPATCH_ENTRIES;
    let slot = map.kernel_base + DISPATCH_OFF + idx * 8;
    match mem.read_u64(slot) {
        Ok(v) if v == expected_dispatch(idx) => {}
        Ok(_) => return KernelOutcome::Panic("syscall dispatch table corrupted"),
        Err(_) => return KernelOutcome::Panic("kernel state unreachable"),
    }
    match r0 {
        sys::EXIT => KernelOutcome::Exit(r1),
        sys::WRITE => {
            // Cap pathological lengths so corrupted sizes do not stall the
            // simulation; anything above the cap is a wild request.
            if r2 > 1 << 20 {
                return KernelOutcome::Kill(Fault::OutOfBounds(r1));
            }
            if !map.contains(r1, r2) {
                return KernelOutcome::Kill(Fault::OutOfBounds(r1));
            }
            let mut buf = vec![0u8; r2 as usize];
            if mem.read_bytes(r1, &mut buf).is_err() {
                return KernelOutcome::Kill(Fault::OutOfBounds(r1));
            }
            if let Err(p) = note_console(mem, map, &buf) {
                return p;
            }
            KernelOutcome::Continue(buf)
        }
        sys::WRITE_INT => {
            let mut text = r1.to_string().into_bytes();
            text.push(b'\n');
            if let Err(p) = note_console(mem, map, &text) {
                return p;
            }
            KernelOutcome::Continue(text)
        }
        _ => {
            // ENOSYS analogue: log and resume.
            match log_exception(mem, map) {
                Ok(()) => KernelOutcome::Continue(Vec::new()),
                Err(p) => p,
            }
        }
    }
}

/// Updates the console bookkeeping (byte counter + rolling checksum) held in
/// simulated kernel memory.
fn note_console<M: KernelMem + ?Sized>(
    mem: &mut M,
    map: &MemoryMap,
    bytes: &[u8],
) -> Result<(), KernelOutcome> {
    let cnt_addr = map.kernel_base + CONSOLE_COUNT_OFF;
    let sum_addr = map.kernel_base + CONSOLE_SUM_OFF;
    let cnt = mem
        .read_u64(cnt_addr)
        .map_err(|_| KernelOutcome::Panic("kernel state unreachable"))?;
    let mut sum = mem
        .read_u64(sum_addr)
        .map_err(|_| KernelOutcome::Panic("kernel state unreachable"))?;
    for &b in bytes {
        sum = sum.rotate_left(7) ^ b as u64;
    }
    mem.write_u64(cnt_addr, cnt.wrapping_add(bytes.len() as u64))
        .map_err(|_| KernelOutcome::Panic("kernel state unreachable"))?;
    mem.write_u64(sum_addr, sum)
        .map_err(|_| KernelOutcome::Panic("kernel state unreachable"))?;
    Ok(())
}

/// Logs a handled ISA exception (alignment fixup, tolerated hint opcode,
/// unknown syscall). Returns a panic outcome if the kernel state itself is
/// broken. Every successful call increments the exception counter that the
/// fault classifier later compares against the golden run (the DUE signal).
pub fn log_exception<M: KernelMem + ?Sized>(
    mem: &mut M,
    map: &MemoryMap,
) -> Result<(), KernelOutcome> {
    check_magic(mem, map)?;
    let addr = map.kernel_base + EXC_COUNT_OFF;
    let v = mem
        .read_u64(addr)
        .map_err(|_| KernelOutcome::Panic("kernel state unreachable"))?;
    mem.write_u64(addr, v.wrapping_add(1))
        .map_err(|_| KernelOutcome::Panic("kernel state unreachable"))?;
    Ok(())
}

/// Reads the handled-exception counter (used by run-status reporting).
pub fn exception_count<M: KernelMem + ?Sized>(mem: &mut M, map: &MemoryMap) -> u64 {
    mem.read_u64(map.kernel_base + EXC_COUNT_OFF).unwrap_or(0)
}

/// A trivial [`KernelMem`] over a flat byte buffer — the functional
/// emulator's access path (and MarsSim's hypervisor path wraps the same
/// logic around its main-memory array).
#[derive(Debug)]
pub struct FlatMem<'a> {
    /// The underlying memory buffer.
    pub mem: &'a mut [u8],
}

impl KernelMem for FlatMem<'_> {
    fn read_u64(&mut self, addr: u64) -> Result<u64, Fault> {
        let a = addr as usize;
        if a + 8 > self.mem.len() {
            return Err(Fault::OutOfBounds(addr));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.mem[a..a + 8]);
        Ok(u64::from_le_bytes(b))
    }

    fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), Fault> {
        let a = addr as usize;
        if a + 8 > self.mem.len() {
            return Err(Fault::OutOfBounds(addr));
        }
        self.mem[a..a + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Fault> {
        let a = addr as usize;
        if a + buf.len() > self.mem.len() {
            return Err(Fault::OutOfBounds(addr));
        }
        buf.copy_from_slice(&self.mem[a..a + buf.len()]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Vec<u8>, MemoryMap) {
        let map = MemoryMap::DEFAULT;
        let mut mem = vec![0u8; map.size as usize];
        install(&mut mem, &map);
        (mem, map)
    }

    #[test]
    fn install_writes_magic_and_dispatch() {
        let (mut mem, map) = fresh();
        let mut m = FlatMem { mem: &mut mem };
        assert_eq!(m.read_u64(map.kernel_base).unwrap(), MAGIC);
        for i in 0..DISPATCH_ENTRIES {
            assert_eq!(
                m.read_u64(map.kernel_base + DISPATCH_OFF + i * 8).unwrap(),
                expected_dispatch(i)
            );
        }
    }

    #[test]
    fn exit_syscall() {
        let (mut mem, map) = fresh();
        let mut m = FlatMem { mem: &mut mem };
        assert_eq!(
            handle_syscall(&mut m, &map, sys::EXIT, 42, 0),
            KernelOutcome::Exit(42)
        );
    }

    #[test]
    fn write_syscall_produces_output_and_bookkeeping() {
        let (mut mem, map) = fresh();
        let ptr = map.data_base;
        mem[ptr as usize..ptr as usize + 5].copy_from_slice(b"hello");
        let mut m = FlatMem { mem: &mut mem };
        let out = handle_syscall(&mut m, &map, sys::WRITE, ptr, 5);
        assert_eq!(out, KernelOutcome::Continue(b"hello".to_vec()));
        assert_eq!(m.read_u64(map.kernel_base + CONSOLE_COUNT_OFF).unwrap(), 5);
        assert_ne!(m.read_u64(map.kernel_base + CONSOLE_SUM_OFF).unwrap(), 0);
    }

    #[test]
    fn write_int_formats_decimal() {
        let (mut mem, map) = fresh();
        let mut m = FlatMem { mem: &mut mem };
        let out = handle_syscall(&mut m, &map, sys::WRITE_INT, 12345, 0);
        assert_eq!(out, KernelOutcome::Continue(b"12345\n".to_vec()));
    }

    #[test]
    fn corrupted_magic_panics_kernel() {
        let (mut mem, map) = fresh();
        mem[map.kernel_base as usize] ^= 0x10;
        let mut m = FlatMem { mem: &mut mem };
        assert!(matches!(
            handle_syscall(&mut m, &map, sys::WRITE_INT, 1, 0),
            KernelOutcome::Panic(_)
        ));
    }

    #[test]
    fn corrupted_dispatch_panics_kernel() {
        let (mut mem, map) = fresh();
        let slot = (map.kernel_base + DISPATCH_OFF + 2 * 8) as usize;
        mem[slot] ^= 0x01;
        let mut m = FlatMem { mem: &mut mem };
        // Syscall 2 consults dispatch slot 2.
        assert!(matches!(
            handle_syscall(&mut m, &map, sys::WRITE_INT, 1, 0),
            KernelOutcome::Panic(_)
        ));
        // Slot 0 is untouched; exit still works.
        assert_eq!(
            handle_syscall(&mut m, &map, sys::EXIT, 0, 0),
            KernelOutcome::Exit(0)
        );
    }

    #[test]
    fn wild_write_pointer_kills_process() {
        let (mut mem, map) = fresh();
        let mut m = FlatMem { mem: &mut mem };
        assert!(matches!(
            handle_syscall(&mut m, &map, sys::WRITE, u64::MAX - 10, 100),
            KernelOutcome::Kill(Fault::OutOfBounds(_))
        ));
        assert!(matches!(
            handle_syscall(&mut m, &map, sys::WRITE, map.data_base, u64::MAX),
            KernelOutcome::Kill(Fault::OutOfBounds(_))
        ));
    }

    #[test]
    fn unknown_syscall_is_logged_not_fatal() {
        let (mut mem, map) = fresh();
        let mut m = FlatMem { mem: &mut mem };
        assert_eq!(
            handle_syscall(&mut m, &map, 999, 0, 0),
            KernelOutcome::Continue(Vec::new())
        );
        assert_eq!(exception_count(&mut m, &map), 1);
    }

    #[test]
    fn log_exception_counts_up() {
        let (mut mem, map) = fresh();
        let mut m = FlatMem { mem: &mut mem };
        for i in 1..=3 {
            log_exception(&mut m, &map).unwrap();
            assert_eq!(exception_count(&mut m, &map), i);
        }
    }

    #[test]
    fn dispatch_values_are_distinct() {
        let mut vals: Vec<u64> = (0..DISPATCH_ENTRIES).map(expected_dispatch).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), DISPATCH_ENTRIES as usize);
    }
}
