//! Program builder ("assembler") producing [`Program`]s.

use crate::error::IsaError;
use crate::inst::Instruction;
use crate::mem::MemImage;
use crate::op::Op;
use crate::reg::Reg;
use std::collections::HashMap;

/// Base address of the text segment. Instruction `i` lives at
/// `TEXT_BASE + 4 * i`, matching MIPS's 4-byte instruction encoding.
pub const TEXT_BASE: u64 = 0x0040_0000;

/// A complete program: instructions, initial data memory, and entry point.
#[derive(Debug, Clone)]
pub struct Program {
    insts: Vec<Instruction>,
    data: MemImage,
    entry: u32,
}

impl Program {
    /// The program's instructions, indexed by static index.
    pub fn insts(&self) -> &[Instruction] {
        &self.insts
    }

    /// The instruction at static index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn inst(&self, idx: u32) -> &Instruction {
        &self.insts[idx as usize]
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The initial data memory image.
    pub fn data(&self) -> &MemImage {
        &self.data
    }

    /// The static index of the first instruction to execute.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The instruction address (program counter) for static index `idx`.
    #[inline]
    pub fn pc_of(&self, idx: u32) -> u64 {
        TEXT_BASE + 4 * idx as u64
    }
}

/// A forward-referenceable code label.
///
/// Created by [`Asm::label`], bound to a position with [`Asm::bind`], and
/// referenced by branch and jump emitters. Unbound labels are reported by
/// [`Asm::assemble`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Incremental program builder.
///
/// `Asm` offers one emitter method per mnemonic, a label mechanism for
/// control flow, and a bump allocator for static data.
///
/// # Examples
///
/// Count down from 10, storing the counter to memory each iteration:
///
/// ```
/// use mds_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// let buf = a.alloc_data(8, 8);
/// let (r1, r2) = (Reg::int(1), Reg::int(2));
/// a.li(r1, 10);
/// a.li(r2, buf as i64);
/// let top = a.label();
/// a.bind(top);
/// a.sw(r1, r2, 0);
/// a.addi(r1, r1, -1);
/// a.bgtz(r1, top);
/// a.halt();
/// let prog = a.assemble()?;
/// assert!(prog.len() > 0);
/// # Ok::<(), mds_isa::IsaError>(())
/// ```
#[derive(Debug, Default)]
pub struct Asm {
    insts: Vec<Instruction>,
    labels: Vec<Option<u32>>,    // label id -> bound index
    fixups: Vec<(usize, Label)>, // instruction slot -> label to resolve
    data: MemImage,
    data_cursor: u64,
    entry: u32,
}

/// Base address of the builder's data bump allocator.
pub const DATA_BASE: u64 = 0x1000_0000;

/// End (exclusive) of the data segment: no allocation reaches past it.
pub const DATA_LIMIT: u64 = 0x8000_0000;

impl Asm {
    /// Creates an empty builder.
    pub fn new() -> Asm {
        Asm {
            data_cursor: DATA_BASE,
            ..Asm::default()
        }
    }

    /// Index that the next emitted instruction will occupy.
    pub fn here(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        let here = self.here();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(here);
    }

    /// Allocates `size` bytes of static data with the given alignment and
    /// returns its address.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two, or if the allocation
    /// does not fit below [`DATA_LIMIT`].
    pub fn alloc_data(&mut self, size: u64, align: u64) -> u64 {
        self.try_alloc_data(size, align)
            .expect("static data exceeds the data segment")
    }

    /// [`alloc_data`](Asm::alloc_data), returning `None` instead of
    /// allocating when the block would not fit below [`DATA_LIMIT`].
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn try_alloc_data(&mut self, size: u64, align: u64) -> Option<u64> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = self.data_cursor.checked_add(align - 1)? & !(align - 1);
        let end = addr.checked_add(size).filter(|&end| end <= DATA_LIMIT)?;
        self.data_cursor = end;
        Some(addr)
    }

    /// Writes an initial 64-bit value into the data image.
    pub fn init_u64(&mut self, addr: u64, value: u64) {
        self.data.write_u64(addr, value);
    }

    /// Writes an initial `f64` value into the data image.
    pub fn init_f64(&mut self, addr: u64, value: f64) {
        self.data.write_f64(addr, value);
    }

    /// Writes an initial 32-bit value into the data image.
    pub fn init_u32(&mut self, addr: u64, value: u32) {
        self.data.write_u32(addr, value);
    }

    fn emit(&mut self, inst: Instruction) {
        self.insts.push(inst);
    }

    fn emit_branch(&mut self, op: Op, rs: Option<Reg>, rt: Option<Reg>, label: Label) {
        self.fixups.push((self.insts.len(), label));
        self.emit(Instruction {
            op,
            rd: None,
            rs,
            rt,
            imm: 0,
            target: Some(u32::MAX),
        });
    }

    // ---- integer ALU -----------------------------------------------------

    /// `rd <- rs + rt`
    pub fn add(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Add, rd, rs, rt));
    }
    /// `rd <- rs - rt`
    pub fn sub(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Sub, rd, rs, rt));
    }
    /// `rd <- rs & rt`
    pub fn and(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::And, rd, rs, rt));
    }
    /// `rd <- rs | rt`
    pub fn or(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Or, rd, rs, rt));
    }
    /// `rd <- rs ^ rt`
    pub fn xor(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Xor, rd, rs, rt));
    }
    /// `rd <- !(rs | rt)`
    pub fn nor(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Nor, rd, rs, rt));
    }
    /// `rd <- rs << (rt & 63)`
    pub fn sllv(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Sllv, rd, rs, rt));
    }
    /// `rd <- (rs as u64) >> (rt & 63)`
    pub fn srlv(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Srlv, rd, rs, rt));
    }
    /// `rd <- (rs as i64) >> (rt & 63)`
    pub fn srav(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Srav, rd, rs, rt));
    }
    /// `rd <- (rs < rt) as signed`
    pub fn slt(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Slt, rd, rs, rt));
    }
    /// `rd <- (rs < rt) as unsigned`
    pub fn sltu(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instruction::rrr(Op::Sltu, rd, rs, rt));
    }
    /// `rd <- rs + imm`
    pub fn addi(&mut self, rd: Reg, rs: Reg, imm: i64) {
        self.emit(Instruction::rri(Op::Addi, rd, rs, imm));
    }
    /// `rd <- rs & imm`
    pub fn andi(&mut self, rd: Reg, rs: Reg, imm: i64) {
        self.emit(Instruction::rri(Op::Andi, rd, rs, imm));
    }
    /// `rd <- rs | imm`
    pub fn ori(&mut self, rd: Reg, rs: Reg, imm: i64) {
        self.emit(Instruction::rri(Op::Ori, rd, rs, imm));
    }
    /// `rd <- rs ^ imm`
    pub fn xori(&mut self, rd: Reg, rs: Reg, imm: i64) {
        self.emit(Instruction::rri(Op::Xori, rd, rs, imm));
    }
    /// `rd <- (rs < imm) as signed`
    pub fn slti(&mut self, rd: Reg, rs: Reg, imm: i64) {
        self.emit(Instruction::rri(Op::Slti, rd, rs, imm));
    }
    /// `rd <- (rs < imm) as unsigned`
    pub fn sltiu(&mut self, rd: Reg, rs: Reg, imm: i64) {
        self.emit(Instruction::rri(Op::Sltiu, rd, rs, imm));
    }
    /// `rd <- rs << shamt`
    pub fn sll(&mut self, rd: Reg, rs: Reg, shamt: i64) {
        self.emit(Instruction::rri(Op::Sll, rd, rs, shamt));
    }
    /// `rd <- (rs as u64) >> shamt`
    pub fn srl(&mut self, rd: Reg, rs: Reg, shamt: i64) {
        self.emit(Instruction::rri(Op::Srl, rd, rs, shamt));
    }
    /// `rd <- (rs as i64) >> shamt`
    pub fn sra(&mut self, rd: Reg, rs: Reg, shamt: i64) {
        self.emit(Instruction::rri(Op::Sra, rd, rs, shamt));
    }
    /// `rd <- imm << 16`
    pub fn lui(&mut self, rd: Reg, imm: i64) {
        self.emit(Instruction::rri(Op::Lui, rd, Reg::ZERO, imm));
    }

    /// Pseudo-instruction: load the (possibly wide) immediate into `rd`.
    ///
    /// Expands to a single `addi rd, r0, imm`; the simulator's immediates
    /// are full-width, so one instruction always suffices.
    pub fn li(&mut self, rd: Reg, imm: i64) {
        self.addi(rd, Reg::ZERO, imm);
    }

    /// Pseudo-instruction: copy `rs` into `rd`.
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.addi(rd, rs, 0);
    }

    /// `nop`
    pub fn nop(&mut self) {
        self.emit(Instruction::nop());
    }

    // ---- multiply / divide ----------------------------------------------

    /// `(HI, LO) <- rs * rt` (signed)
    pub fn mult(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instruction {
            op: Op::Mult,
            rd: None,
            rs: Some(rs),
            rt: Some(rt),
            imm: 0,
            target: None,
        });
    }
    /// `(HI, LO) <- rs * rt` (unsigned)
    pub fn multu(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instruction {
            op: Op::Multu,
            rd: None,
            rs: Some(rs),
            rt: Some(rt),
            imm: 0,
            target: None,
        });
    }
    /// `LO <- rs / rt; HI <- rs % rt` (signed; division by zero yields zero)
    pub fn div(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instruction {
            op: Op::Div,
            rd: None,
            rs: Some(rs),
            rt: Some(rt),
            imm: 0,
            target: None,
        });
    }
    /// `LO <- rs / rt; HI <- rs % rt` (unsigned; division by zero yields zero)
    pub fn divu(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instruction {
            op: Op::Divu,
            rd: None,
            rs: Some(rs),
            rt: Some(rt),
            imm: 0,
            target: None,
        });
    }
    /// `rd <- HI`
    pub fn mfhi(&mut self, rd: Reg) {
        self.emit(Instruction {
            op: Op::Mfhi,
            rd: Some(rd),
            rs: None,
            rt: None,
            imm: 0,
            target: None,
        });
    }
    /// `rd <- LO`
    pub fn mflo(&mut self, rd: Reg) {
        self.emit(Instruction {
            op: Op::Mflo,
            rd: Some(rd),
            rs: None,
            rt: None,
            imm: 0,
            target: None,
        });
    }

    // ---- memory ----------------------------------------------------------

    /// `rd <- sign_extend(mem8[base + disp])`
    pub fn lb(&mut self, rd: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Lb, rd, base, disp));
    }
    /// `rd <- zero_extend(mem8[base + disp])`
    pub fn lbu(&mut self, rd: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Lbu, rd, base, disp));
    }
    /// `rd <- sign_extend(mem16[base + disp])`
    pub fn lh(&mut self, rd: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Lh, rd, base, disp));
    }
    /// `rd <- zero_extend(mem16[base + disp])`
    pub fn lhu(&mut self, rd: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Lhu, rd, base, disp));
    }
    /// `rd <- sign_extend(mem32[base + disp])`
    pub fn lw(&mut self, rd: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Lw, rd, base, disp));
    }
    /// `mem8[base + disp] <- rt`
    pub fn sb(&mut self, rt: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Sb, rt, base, disp));
    }
    /// `mem16[base + disp] <- rt`
    pub fn sh(&mut self, rt: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Sh, rt, base, disp));
    }
    /// `mem32[base + disp] <- rt`
    pub fn sw(&mut self, rt: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Sw, rt, base, disp));
    }
    /// `ft <- mem32[base + disp]` (FP single, stored as bits)
    pub fn lwc1(&mut self, ft: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Lwc1, ft, base, disp));
    }
    /// `mem32[base + disp] <- ft`
    pub fn swc1(&mut self, ft: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Swc1, ft, base, disp));
    }
    /// `ft <- mem64[base + disp]` (FP double)
    pub fn ldc1(&mut self, ft: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Ldc1, ft, base, disp));
    }
    /// `mem64[base + disp] <- ft`
    pub fn sdc1(&mut self, ft: Reg, base: Reg, disp: i64) {
        self.emit(Instruction::mem(Op::Sdc1, ft, base, disp));
    }

    // ---- floating point ---------------------------------------------------

    /// `fd <- fs + ft` (single)
    pub fn add_s(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::AddS, fd, fs, ft));
    }
    /// `fd <- fs - ft` (single)
    pub fn sub_s(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::SubS, fd, fs, ft));
    }
    /// `fd <- fs * ft` (single)
    pub fn mul_s(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::MulS, fd, fs, ft));
    }
    /// `fd <- fs / ft` (single)
    pub fn div_s(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::DivS, fd, fs, ft));
    }
    /// `fd <- fs + ft` (double)
    pub fn add_d(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::AddD, fd, fs, ft));
    }
    /// `fd <- fs - ft` (double)
    pub fn sub_d(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::SubD, fd, fs, ft));
    }
    /// `fd <- fs * ft` (double)
    pub fn mul_d(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::MulD, fd, fs, ft));
    }
    /// `fd <- fs / ft` (double)
    pub fn div_d(&mut self, fd: Reg, fs: Reg, ft: Reg) {
        self.emit(Instruction::rrr(Op::DivD, fd, fs, ft));
    }
    /// `FSR <- (fs < ft)` (double compare)
    pub fn c_lt_d(&mut self, fs: Reg, ft: Reg) {
        self.emit(Instruction {
            op: Op::CLtD,
            rd: None,
            rs: Some(fs),
            rt: Some(ft),
            imm: 0,
            target: None,
        });
    }
    /// `FSR <- (fs == ft)` (double compare)
    pub fn c_eq_d(&mut self, fs: Reg, ft: Reg) {
        self.emit(Instruction {
            op: Op::CEqD,
            rd: None,
            rs: Some(fs),
            rt: Some(ft),
            imm: 0,
            target: None,
        });
    }
    /// `fd <- (fs as integer bits) converted to double`
    pub fn cvt_d_w(&mut self, fd: Reg, fs: Reg) {
        self.emit(Instruction {
            op: Op::CvtDW,
            rd: Some(fd),
            rs: Some(fs),
            rt: None,
            imm: 0,
            target: None,
        });
    }
    /// `fd <- truncate(fs) as integer bits`
    pub fn cvt_w_d(&mut self, fd: Reg, fs: Reg) {
        self.emit(Instruction {
            op: Op::CvtWD,
            rd: Some(fd),
            rs: Some(fs),
            rt: None,
            imm: 0,
            target: None,
        });
    }
    /// `fd <- fs`
    pub fn mov_d(&mut self, fd: Reg, fs: Reg) {
        self.emit(Instruction {
            op: Op::MovD,
            rd: Some(fd),
            rs: Some(fs),
            rt: None,
            imm: 0,
            target: None,
        });
    }
    /// `fd <- -fs`
    pub fn neg_d(&mut self, fd: Reg, fs: Reg) {
        self.emit(Instruction {
            op: Op::NegD,
            rd: Some(fd),
            rs: Some(fs),
            rt: None,
            imm: 0,
            target: None,
        });
    }
    /// `fd <- |fs|`
    pub fn abs_d(&mut self, fd: Reg, fs: Reg) {
        self.emit(Instruction {
            op: Op::AbsD,
            rd: Some(fd),
            rs: Some(fs),
            rt: None,
            imm: 0,
            target: None,
        });
    }

    // ---- control ----------------------------------------------------------

    /// Branch to `label` if `rs == rt`.
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: Label) {
        self.emit_branch(Op::Beq, Some(rs), Some(rt), label);
    }
    /// Branch to `label` if `rs != rt`.
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: Label) {
        self.emit_branch(Op::Bne, Some(rs), Some(rt), label);
    }
    /// Branch to `label` if `rs <= 0`.
    pub fn blez(&mut self, rs: Reg, label: Label) {
        self.emit_branch(Op::Blez, Some(rs), None, label);
    }
    /// Branch to `label` if `rs > 0`.
    pub fn bgtz(&mut self, rs: Reg, label: Label) {
        self.emit_branch(Op::Bgtz, Some(rs), None, label);
    }
    /// Branch to `label` if `rs < 0`.
    pub fn bltz(&mut self, rs: Reg, label: Label) {
        self.emit_branch(Op::Bltz, Some(rs), None, label);
    }
    /// Branch to `label` if `rs >= 0`.
    pub fn bgez(&mut self, rs: Reg, label: Label) {
        self.emit_branch(Op::Bgez, Some(rs), None, label);
    }
    /// Branch to `label` if the FP condition flag is set.
    pub fn bc1t(&mut self, label: Label) {
        self.emit_branch(Op::Bc1t, None, None, label);
    }
    /// Branch to `label` if the FP condition flag is clear.
    pub fn bc1f(&mut self, label: Label) {
        self.emit_branch(Op::Bc1f, None, None, label);
    }

    /// Unconditional jump to `label`.
    pub fn j(&mut self, label: Label) {
        self.fixups.push((self.insts.len(), label));
        self.emit(Instruction {
            op: Op::J,
            rd: None,
            rs: None,
            rt: None,
            imm: 0,
            target: Some(u32::MAX),
        });
    }

    /// Call: jump to `label`, writing the return address into `r31`.
    pub fn jal(&mut self, label: Label) {
        self.fixups.push((self.insts.len(), label));
        self.emit(Instruction {
            op: Op::Jal,
            rd: None,
            rs: None,
            rt: None,
            imm: 0,
            target: Some(u32::MAX),
        });
    }

    /// Indirect jump to the instruction address in `rs` (used for returns).
    pub fn jr(&mut self, rs: Reg) {
        self.emit(Instruction {
            op: Op::Jr,
            rd: None,
            rs: Some(rs),
            rt: None,
            imm: 0,
            target: None,
        });
    }

    /// Indirect call through `rs`, writing the return address into `r31`.
    pub fn jalr(&mut self, rs: Reg) {
        self.emit(Instruction {
            op: Op::Jalr,
            rd: None,
            rs: Some(rs),
            rt: None,
            imm: 0,
            target: None,
        });
    }

    /// Stops execution.
    pub fn halt(&mut self) {
        self.emit(Instruction::halt());
    }

    // ---- finalization -------------------------------------------------------

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UnboundLabel`] if any referenced label was never
    /// bound, and [`IsaError::EmptyProgram`] for an empty instruction list.
    pub fn assemble(mut self) -> Result<Program, IsaError> {
        if self.insts.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        let mut resolved: HashMap<usize, u32> = HashMap::new();
        for &(slot, label) in &self.fixups {
            match self.labels[label.0 as usize] {
                Some(idx) => {
                    resolved.insert(slot, idx);
                }
                None => return Err(IsaError::UnboundLabel(label.0)),
            }
        }
        for (slot, idx) in resolved {
            self.insts[slot].target = Some(idx);
        }
        Ok(Program {
            insts: self.insts,
            data: self.data,
            entry: self.entry,
        })
    }
}

impl Program {
    /// Renders the text section as assembly source accepted by
    /// [`parse_program`](crate::parse_program). Branch targets become
    /// `L<index>` labels. The data image is not listed (it is sparse);
    /// round-tripping therefore preserves instructions but not initial
    /// memory.
    pub fn listing(&self) -> String {
        use crate::op::Op;
        let mut is_target = vec![false; self.insts.len() + 1];
        for inst in &self.insts {
            if let Some(t) = inst.target {
                is_target[t as usize] = true;
            }
        }
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            if is_target[i] {
                out.push_str(&format!("L{i}:\n"));
            }
            let m = inst.op.mnemonic();
            let line = match inst.op {
                Op::Nop | Op::Halt => m.to_string(),
                op if op.is_mem() => {
                    let r = if op.is_load() { inst.rd } else { inst.rt };
                    format!(
                        "{m} {}, {}({})",
                        r.expect("mem reg"),
                        inst.imm,
                        inst.rs.expect("base")
                    )
                }
                Op::Beq | Op::Bne => format!(
                    "{m} {}, {}, L{}",
                    inst.rs.expect("rs"),
                    inst.rt.expect("rt"),
                    inst.target.expect("target")
                ),
                Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez => format!(
                    "{m} {}, L{}",
                    inst.rs.expect("rs"),
                    inst.target.expect("target")
                ),
                Op::Bc1t | Op::Bc1f | Op::J | Op::Jal => {
                    format!("{m} L{}", inst.target.expect("target"))
                }
                Op::Jr | Op::Jalr => format!("{m} {}", inst.rs.expect("rs")),
                Op::Mult | Op::Multu | Op::Div | Op::Divu | Op::CLtD | Op::CEqD => {
                    format!("{m} {}, {}", inst.rs.expect("rs"), inst.rt.expect("rt"))
                }
                Op::Mfhi | Op::Mflo => format!("{m} {}", inst.rd.expect("rd")),
                Op::Lui => format!("{m} {}, {}", inst.rd.expect("rd"), inst.imm),
                Op::CvtDW | Op::CvtWD | Op::MovD | Op::NegD | Op::AbsD => {
                    format!("{m} {}, {}", inst.rd.expect("rd"), inst.rs.expect("rs"))
                }
                // Register-immediate forms.
                Op::Addi
                | Op::Andi
                | Op::Ori
                | Op::Xori
                | Op::Slti
                | Op::Sltiu
                | Op::Sll
                | Op::Srl
                | Op::Sra => format!(
                    "{m} {}, {}, {}",
                    inst.rd.expect("rd"),
                    inst.rs.expect("rs"),
                    inst.imm
                ),
                // Three-register forms.
                _ => format!(
                    "{m} {}, {}, {}",
                    inst.rd.expect("rd"),
                    inst.rs.expect("rs"),
                    inst.rt.expect("rt")
                ),
            };
            out.push_str("        ");
            out.push_str(&line);
            out.push('\n');
        }
        if is_target[self.insts.len()] {
            out.push_str(&format!("L{}:\n        nop\n", self.insts.len()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_forward_and_backward_labels() {
        let mut a = Asm::new();
        let fwd = a.label();
        let back = a.label();
        a.bind(back);
        a.addi(Reg::int(1), Reg::int(1), 1);
        a.beq(Reg::int(1), Reg::ZERO, fwd); // forward
        a.j(back); // backward
        a.bind(fwd);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.inst(1).target, Some(3));
        assert_eq!(p.inst(2).target, Some(0));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.label();
        a.j(l);
        assert!(matches!(a.assemble(), Err(IsaError::UnboundLabel(_))));
    }

    #[test]
    fn empty_program_is_an_error() {
        let a = Asm::new();
        assert!(matches!(a.assemble(), Err(IsaError::EmptyProgram)));
    }

    #[test]
    fn data_allocator_respects_alignment() {
        let mut a = Asm::new();
        let x = a.alloc_data(1, 1);
        let y = a.alloc_data(8, 8);
        assert_eq!(y % 8, 0);
        assert!(y > x);
        let z = a.alloc_data(16, 64);
        assert_eq!(z % 64, 0);
    }

    #[test]
    fn initial_data_is_visible_in_program() {
        let mut a = Asm::new();
        let addr = a.alloc_data(8, 8);
        a.init_u64(addr, 42);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.data().read_u64(addr), 42);
    }

    #[test]
    fn pc_mapping_is_4_byte_spaced() {
        let mut a = Asm::new();
        a.nop();
        a.nop();
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.pc_of(0), TEXT_BASE);
        assert_eq!(p.pc_of(2), TEXT_BASE + 8);
    }

    #[test]
    #[should_panic]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }
}
