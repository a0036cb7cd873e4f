//! Executable program images.
//!
//! A [`Program`] is the unit loaded into a simulated machine: a code
//! segment of PIA instructions, an initial data image, an entry point and
//! a symbol table. The memory layout is fixed and simple:
//!
//! | Region | Base | Contents |
//! |---|---|---|
//! | code  | [`CODE_BASE`]  | instructions, [`INSTR_BYTES`] each |
//! | data  | [`DATA_BASE`]  | the program's initial data image |
//! | heap  | end of data    | grows upward via the `sbrk` syscall |
//! | stacks| below [`STACK_TOP`] | one per thread, allocated by the kernel |

use crate::instr::{Instr, ENCODED_BYTES};
use qr_common::{Fingerprint, QrError, Result, VirtAddr};
use std::collections::BTreeMap;

/// Base virtual address of the code segment.
pub const CODE_BASE: u32 = 0x0000_1000;

/// Base virtual address of the data segment.
pub const DATA_BASE: u32 = 0x0010_0000;

/// Top of the stack region; thread stacks are carved downward from here.
pub const STACK_TOP: u32 = 0xf000_0000;

/// Maximum data-segment size (64 MiB) — keeps the image far below the
/// stack region and bounds assembler allocations on hostile input.
pub const MAX_DATA_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes occupied by one instruction ([`ENCODED_BYTES`] re-exported for
/// layout arithmetic).
pub const INSTR_BYTES: u32 = ENCODED_BYTES as u32;

/// An assembled, loadable program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    code: Vec<Instr>,
    data: Vec<u8>,
    entry: u32,
    symbols: BTreeMap<String, u32>,
    /// Digest of code + data + entry, fixed at construction: no method
    /// takes `&mut self`, and replay checks it on every run and seek.
    fingerprint: u64,
}

impl Program {
    /// Creates a program from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`QrError::InvalidConfig`] if the entry point does not fall
    /// on an instruction boundary inside the code segment, or if the code
    /// segment would overlap the data segment.
    pub fn new(
        name: impl Into<String>,
        code: Vec<Instr>,
        data: Vec<u8>,
        entry: u32,
        symbols: BTreeMap<String, u32>,
    ) -> Result<Program> {
        let code_end = CODE_BASE + code.len() as u32 * INSTR_BYTES;
        if code_end > DATA_BASE {
            return Err(QrError::InvalidConfig(format!(
                "code segment ends at {code_end:#x}, past the data base {DATA_BASE:#x}"
            )));
        }
        if data.len() as u64 > MAX_DATA_BYTES as u64 {
            return Err(QrError::InvalidConfig(format!(
                "data segment of {} bytes exceeds the {MAX_DATA_BYTES}-byte limit",
                data.len()
            )));
        }
        if entry < CODE_BASE || entry >= code_end || !(entry - CODE_BASE).is_multiple_of(INSTR_BYTES) {
            return Err(QrError::InvalidConfig(format!(
                "entry point {entry:#x} is not an instruction address in [{CODE_BASE:#x}, {code_end:#x})"
            )));
        }
        let mut fp = Fingerprint::new();
        let mut code_bytes = Vec::with_capacity(code.len() * ENCODED_BYTES);
        for instr in &code {
            code_bytes.extend_from_slice(&instr.encode());
        }
        fp.field("code", &code_bytes);
        fp.field("data", &data);
        fp.u32(entry);
        Ok(Program { name: name.into(), code, data, entry, symbols, fingerprint: fp.digest() })
    }

    /// Human-readable program name (used in logs and experiment output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The code segment.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// The initial data image, loaded at [`DATA_BASE`].
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Entry-point address.
    pub fn entry(&self) -> VirtAddr {
        VirtAddr(self.entry)
    }

    /// First address past the data image — the initial program break.
    pub fn initial_brk(&self) -> VirtAddr {
        VirtAddr(DATA_BASE + self.data.len() as u32)
    }

    /// The symbol table (labels and data symbols, by address).
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Address of a named symbol.
    pub fn symbol(&self, name: &str) -> Option<VirtAddr> {
        self.symbols.get(name).map(|&a| VirtAddr(a))
    }

    /// The instruction at a code address, if it is one.
    pub fn instr_at(&self, pc: VirtAddr) -> Option<Instr> {
        let off = pc.0.checked_sub(CODE_BASE)?;
        if off % INSTR_BYTES != 0 {
            return None;
        }
        self.code.get((off / INSTR_BYTES) as usize).copied()
    }

    /// Address of the instruction with the given index.
    pub fn addr_of(&self, index: usize) -> VirtAddr {
        VirtAddr(CODE_BASE + index as u32 * INSTR_BYTES)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Stable digest of the program image (code + data + entry), used to
    /// pair recorded logs with the binary they came from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn tiny() -> Program {
        Program::new(
            "tiny",
            vec![Instr::Movi { rd: Reg::R0, imm: 1 }, Instr::Halt],
            vec![1, 2, 3],
            CODE_BASE,
            BTreeMap::new(),
        )
        .unwrap()
    }

    #[test]
    fn instr_at_maps_addresses() {
        let p = tiny();
        assert_eq!(p.instr_at(VirtAddr(CODE_BASE)), Some(Instr::Movi { rd: Reg::R0, imm: 1 }));
        assert_eq!(p.instr_at(VirtAddr(CODE_BASE + INSTR_BYTES)), Some(Instr::Halt));
        assert_eq!(p.instr_at(VirtAddr(CODE_BASE + 2 * INSTR_BYTES)), None);
        assert_eq!(p.instr_at(VirtAddr(CODE_BASE + 1)), None, "misaligned");
        assert_eq!(p.instr_at(VirtAddr(0)), None, "below code base");
    }

    #[test]
    fn entry_must_be_in_code() {
        let code = vec![Instr::Halt];
        assert!(Program::new("x", code.clone(), vec![], 0, BTreeMap::new()).is_err());
        assert!(Program::new("x", code.clone(), vec![], CODE_BASE + 3, BTreeMap::new()).is_err());
        assert!(
            Program::new("x", code.clone(), vec![], CODE_BASE + INSTR_BYTES, BTreeMap::new())
                .is_err(),
            "entry one past the end"
        );
        assert!(Program::new("x", code, vec![], CODE_BASE, BTreeMap::new()).is_ok());
    }

    #[test]
    fn oversized_code_is_rejected() {
        let n = ((DATA_BASE - CODE_BASE) / INSTR_BYTES + 1) as usize;
        let code = vec![Instr::Nop; n];
        assert!(Program::new("big", code, vec![], CODE_BASE, BTreeMap::new()).is_err());
    }

    #[test]
    fn initial_brk_follows_data() {
        let p = tiny();
        assert_eq!(p.initial_brk(), VirtAddr(DATA_BASE + 3));
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let a = tiny();
        let b = Program::new(
            "tiny",
            vec![Instr::Movi { rd: Reg::R0, imm: 2 }, Instr::Halt],
            vec![1, 2, 3],
            CODE_BASE,
            BTreeMap::new(),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = Program::new(
            "tiny",
            vec![Instr::Movi { rd: Reg::R0, imm: 1 }, Instr::Halt],
            vec![1, 2, 4],
            CODE_BASE,
            BTreeMap::new(),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), tiny().fingerprint());
    }

    #[test]
    fn symbols_resolve() {
        let mut syms = BTreeMap::new();
        syms.insert("buf".to_string(), DATA_BASE);
        let p = Program::new("s", vec![Instr::Halt], vec![0; 8], CODE_BASE, syms).unwrap();
        assert_eq!(p.symbol("buf"), Some(VirtAddr(DATA_BASE)));
        assert_eq!(p.symbol("missing"), None);
    }
}
