//! A textual assembler: parse assembly source into a [`Program`].
//!
//! Complements the programmatic [`Asm`] builder with a conventional
//! `.s`-style syntax so programs can live in files or string literals:
//!
//! ```text
//! ; a[i] = a[i-1] + k  (the paper's Figure 7 loop)
//! .alloc arr 512 8
//!         li   r3, arr
//!         li   r1, 1
//!         li   r2, 64
//!         li   r4, 3
//! top:    sll  r5, r1, 3
//!         add  r5, r3, r5
//!         lw   r6, -8(r5)
//!         add  r6, r6, r4
//!         sw   r6, 0(r5)
//!         addi r1, r1, 1
//!         slt  r7, r1, r2
//!         bgtz r7, top
//!         halt
//! ```
//!
//! Supported pieces: every mnemonic of [`Op`](crate::Op) (lowercase, FP
//! ops use `.` as in `add.d`), registers `r0..r31` / `f0..f31` plus the
//! aliases `zero`, `sp`, `ra`, memory operands as `disp(base)`,
//! `label:` definitions, `;` and `#` comments, and the data directives
//! `.alloc NAME SIZE ALIGN`, `.word ADDR-EXPR VALUE`,
//! `.dword ADDR-EXPR VALUE`, `.double ADDR-EXPR FLOAT`. An address
//! expression is `NAME`, `NAME+OFFSET` or a literal. Allocated names can
//! be used as immediates (e.g. `li r3, arr`).

use crate::asm::Asm;
use crate::reg::Reg;
use crate::Program;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An assembly parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses assembly source into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for unknown
/// mnemonics, malformed operands, duplicate or missing labels, and
/// malformed directives.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let mut a = Asm::new();
    let mut labels: HashMap<String, crate::asm::Label> = HashMap::new();
    let mut bound: HashMap<String, usize> = HashMap::new();
    let mut symbols: HashMap<String, u64> = HashMap::new();

    fn label_of(
        a: &mut Asm,
        labels: &mut HashMap<String, crate::asm::Label>,
        name: &str,
    ) -> crate::asm::Label {
        *labels.entry(name.to_string()).or_insert_with(|| a.label())
    }

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split([';', '#']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = line.strip_prefix('.') {
            let mut parts = rest.split_whitespace();
            let dir = parts.next().unwrap_or("");
            let args: Vec<&str> = parts.collect();
            match dir {
                "alloc" => {
                    let [name, size, align] = args[..] else {
                        return Err(err(lineno, ".alloc NAME SIZE ALIGN"));
                    };
                    let size = parse_u64(size).ok_or_else(|| err(lineno, "bad size"))?;
                    let align = parse_u64(align).ok_or_else(|| err(lineno, "bad align"))?;
                    if !align.is_power_of_two() {
                        return Err(err(lineno, "alignment must be a power of two"));
                    }
                    let addr = a.try_alloc_data(size, align).ok_or_else(|| {
                        err(
                            lineno,
                            format!(".alloc {name} does not fit in the data segment"),
                        )
                    })?;
                    if symbols.insert(name.to_string(), addr).is_some() {
                        return Err(err(lineno, format!("duplicate symbol {name}")));
                    }
                }
                "word" | "dword" | "double" => {
                    let [addr, value] = args[..] else {
                        return Err(err(lineno, format!(".{dir} ADDR VALUE")));
                    };
                    let addr = parse_addr(addr, &symbols)
                        .ok_or_else(|| err(lineno, format!("bad address {addr}")))?;
                    match dir {
                        "word" => a.init_u32(
                            addr,
                            parse_u64(value).ok_or_else(|| err(lineno, "bad value"))? as u32,
                        ),
                        "dword" => a.init_u64(
                            addr,
                            parse_u64(value).ok_or_else(|| err(lineno, "bad value"))?,
                        ),
                        _ => a.init_f64(
                            addr,
                            value.parse::<f64>().map_err(|_| err(lineno, "bad float"))?,
                        ),
                    }
                }
                other => return Err(err(lineno, format!("unknown directive .{other}"))),
            }
            continue;
        }

        // Optional label prefix.
        let mut code = line;
        if let Some(colon) = line.find(':') {
            let (name, rest) = line.split_at(colon);
            let name = name.trim();
            if name.chars().all(|c| c.is_alphanumeric() || c == '_') && !name.is_empty() {
                if bound.insert(name.to_string(), lineno).is_some() {
                    return Err(err(lineno, format!("label {name} bound twice")));
                }
                let l = label_of(&mut a, &mut labels, name);
                a.bind(l);
                code = rest[1..].trim();
            }
        }
        if code.is_empty() {
            continue;
        }

        // Instruction: mnemonic + comma-separated operands.
        let (mnemonic, ops_str) = match code.find(char::is_whitespace) {
            Some(i) => (&code[..i], code[i..].trim()),
            None => (code, ""),
        };
        let ops: Vec<&str> = if ops_str.is_empty() {
            Vec::new()
        } else {
            ops_str.split(',').map(str::trim).collect()
        };
        emit(&mut a, &mut labels, &symbols, mnemonic, &ops, lineno)?;
    }

    // Every referenced label must be bound.
    for name in labels.keys() {
        if !bound.contains_key(name) {
            return Err(err(0, format!("label {name} referenced but never defined")));
        }
    }

    a.assemble().map_err(|e| err(0, e.to_string()))
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_i64(s: &str, symbols: &HashMap<String, u64>) -> Option<i64> {
    if let Some(&sym) = symbols.get(s) {
        return Some(sym as i64);
    }
    if let Some(rest) = s.strip_prefix('-') {
        return Some(-(parse_u64(rest)? as i64));
    }
    parse_u64(s).map(|v| v as i64)
}

fn parse_addr(s: &str, symbols: &HashMap<String, u64>) -> Option<u64> {
    if let Some((name, off)) = s.split_once('+') {
        let base = symbols.get(name.trim()).copied()?;
        return Some(base + parse_u64(off.trim())?);
    }
    symbols.get(s).copied().or_else(|| parse_u64(s))
}

fn parse_reg(s: &str) -> Option<Reg> {
    match s {
        "zero" => return Some(Reg::ZERO),
        "sp" => return Some(Reg::SP),
        "ra" => return Some(Reg::RA),
        _ => {}
    }
    let (kind, n) = s.split_at(1);
    let n: u8 = n.parse().ok()?;
    match kind {
        "r" if n < 32 => Some(Reg::int(n)),
        "f" if n < 32 => Some(Reg::fp(n)),
        _ => None,
    }
}

/// Parses `disp(base)`.
fn parse_mem(s: &str) -> Option<(i64, Reg)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    let disp = s[..open].trim();
    let disp = if disp.is_empty() {
        0
    } else if let Some(rest) = disp.strip_prefix('-') {
        -(parse_u64(rest)? as i64)
    } else {
        parse_u64(disp)? as i64
    };
    let base = parse_reg(s[open + 1..close].trim())?;
    Some((disp, base))
}

#[allow(clippy::too_many_lines)] // a flat mnemonic dispatch table
fn emit(
    a: &mut Asm,
    labels: &mut HashMap<String, crate::asm::Label>,
    symbols: &HashMap<String, u64>,
    mnemonic: &str,
    ops: &[&str],
    line: usize,
) -> Result<(), ParseError> {
    let reg = |s: &str| parse_reg(s).ok_or_else(|| err(line, format!("bad register {s}")));
    let imm =
        |s: &str| parse_i64(s, symbols).ok_or_else(|| err(line, format!("bad immediate {s}")));
    let mem = |s: &str| parse_mem(s).ok_or_else(|| err(line, format!("bad memory operand {s}")));
    let arity = |want: usize| {
        if ops.len() == want {
            Ok(())
        } else {
            Err(err(
                line,
                format!("{mnemonic} expects {want} operands, got {}", ops.len()),
            ))
        }
    };
    let label = |a: &mut Asm, labels: &mut HashMap<String, crate::asm::Label>, s: &str| {
        *labels.entry(s.to_string()).or_insert_with(|| a.label())
    };

    match mnemonic {
        // rd, rs, rt
        "add" | "sub" | "and" | "or" | "xor" | "nor" | "sllv" | "srlv" | "srav" | "slt"
        | "sltu" | "add.d" | "sub.d" | "mul.d" | "div.d" | "add.s" | "sub.s" | "mul.s"
        | "div.s" => {
            arity(3)?;
            let (rd, rs, rt) = (reg(ops[0])?, reg(ops[1])?, reg(ops[2])?);
            match mnemonic {
                "add" => a.add(rd, rs, rt),
                "sub" => a.sub(rd, rs, rt),
                "and" => a.and(rd, rs, rt),
                "or" => a.or(rd, rs, rt),
                "xor" => a.xor(rd, rs, rt),
                "nor" => a.nor(rd, rs, rt),
                "sllv" => a.sllv(rd, rs, rt),
                "srlv" => a.srlv(rd, rs, rt),
                "srav" => a.srav(rd, rs, rt),
                "slt" => a.slt(rd, rs, rt),
                "sltu" => a.sltu(rd, rs, rt),
                "add.d" => a.add_d(rd, rs, rt),
                "sub.d" => a.sub_d(rd, rs, rt),
                "mul.d" => a.mul_d(rd, rs, rt),
                "div.d" => a.div_d(rd, rs, rt),
                "add.s" => a.add_s(rd, rs, rt),
                "sub.s" => a.sub_s(rd, rs, rt),
                "mul.s" => a.mul_s(rd, rs, rt),
                _ => a.div_s(rd, rs, rt),
            }
        }
        // rd, rs, imm
        "addi" | "andi" | "ori" | "xori" | "slti" | "sltiu" | "sll" | "srl" | "sra" => {
            arity(3)?;
            let (rd, rs, v) = (reg(ops[0])?, reg(ops[1])?, imm(ops[2])?);
            match mnemonic {
                "addi" => a.addi(rd, rs, v),
                "andi" => a.andi(rd, rs, v),
                "ori" => a.ori(rd, rs, v),
                "xori" => a.xori(rd, rs, v),
                "slti" => a.slti(rd, rs, v),
                "sltiu" => a.sltiu(rd, rs, v),
                "sll" => a.sll(rd, rs, v),
                "srl" => a.srl(rd, rs, v),
                _ => a.sra(rd, rs, v),
            }
        }
        "li" => {
            arity(2)?;
            a.li(reg(ops[0])?, imm(ops[1])?);
        }
        "mov" => {
            arity(2)?;
            a.mov(reg(ops[0])?, reg(ops[1])?);
        }
        "lui" => {
            arity(2)?;
            a.lui(reg(ops[0])?, imm(ops[1])?);
        }
        "mult" | "multu" | "div" | "divu" => {
            arity(2)?;
            let (rs, rt) = (reg(ops[0])?, reg(ops[1])?);
            match mnemonic {
                "mult" => a.mult(rs, rt),
                "multu" => a.multu(rs, rt),
                "div" => a.div(rs, rt),
                _ => a.divu(rs, rt),
            }
        }
        "mfhi" => {
            arity(1)?;
            a.mfhi(reg(ops[0])?);
        }
        "mflo" => {
            arity(1)?;
            a.mflo(reg(ops[0])?);
        }
        // reg, disp(base)
        "lb" | "lbu" | "lh" | "lhu" | "lw" | "sb" | "sh" | "sw" | "lwc1" | "swc1" | "ldc1"
        | "sdc1" => {
            arity(2)?;
            let r = reg(ops[0])?;
            let (disp, base) = mem(ops[1])?;
            match mnemonic {
                "lb" => a.lb(r, base, disp),
                "lbu" => a.lbu(r, base, disp),
                "lh" => a.lh(r, base, disp),
                "lhu" => a.lhu(r, base, disp),
                "lw" => a.lw(r, base, disp),
                "sb" => a.sb(r, base, disp),
                "sh" => a.sh(r, base, disp),
                "sw" => a.sw(r, base, disp),
                "lwc1" => a.lwc1(r, base, disp),
                "swc1" => a.swc1(r, base, disp),
                "ldc1" => a.ldc1(r, base, disp),
                _ => a.sdc1(r, base, disp),
            }
        }
        "c.lt.d" | "c.eq.d" => {
            arity(2)?;
            let (fs, ft) = (reg(ops[0])?, reg(ops[1])?);
            if mnemonic == "c.lt.d" {
                a.c_lt_d(fs, ft);
            } else {
                a.c_eq_d(fs, ft);
            }
        }
        "cvt.d.w" | "cvt.w.d" | "mov.d" | "neg.d" | "abs.d" => {
            arity(2)?;
            let (fd, fs) = (reg(ops[0])?, reg(ops[1])?);
            match mnemonic {
                "cvt.d.w" => a.cvt_d_w(fd, fs),
                "cvt.w.d" => a.cvt_w_d(fd, fs),
                "mov.d" => a.mov_d(fd, fs),
                "neg.d" => a.neg_d(fd, fs),
                _ => a.abs_d(fd, fs),
            }
        }
        "beq" | "bne" => {
            arity(3)?;
            let (rs, rt) = (reg(ops[0])?, reg(ops[1])?);
            let l = label(a, labels, ops[2]);
            if mnemonic == "beq" {
                a.beq(rs, rt, l);
            } else {
                a.bne(rs, rt, l);
            }
        }
        "blez" | "bgtz" | "bltz" | "bgez" => {
            arity(2)?;
            let rs = reg(ops[0])?;
            let l = label(a, labels, ops[1]);
            match mnemonic {
                "blez" => a.blez(rs, l),
                "bgtz" => a.bgtz(rs, l),
                "bltz" => a.bltz(rs, l),
                _ => a.bgez(rs, l),
            }
        }
        "bc1t" | "bc1f" => {
            arity(1)?;
            let l = label(a, labels, ops[0]);
            if mnemonic == "bc1t" {
                a.bc1t(l);
            } else {
                a.bc1f(l);
            }
        }
        "j" | "jal" => {
            arity(1)?;
            let l = label(a, labels, ops[0]);
            if mnemonic == "j" {
                a.j(l);
            } else {
                a.jal(l);
            }
        }
        "jr" => {
            arity(1)?;
            a.jr(reg(ops[0])?);
        }
        "jalr" => {
            arity(1)?;
            a.jalr(reg(ops[0])?);
        }
        "nop" => {
            arity(0)?;
            a.nop();
        }
        "halt" => {
            arity(0)?;
            a.halt();
        }
        other => return Err(err(line, format!("unknown mnemonic {other}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interpreter;

    fn run(src: &str) -> crate::Trace {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        Interpreter::new(p).run(100_000).unwrap()
    }

    #[test]
    fn figure7_loop_parses_and_runs() {
        let t = run("\
; Figure 7: a[i] = a[i-1] + k
.alloc arr 512 8
        li   r3, arr
        li   r1, 1
        li   r2, 64
        li   r4, 3
top:    sll  r5, r1, 3
        add  r5, r3, r5
        lw   r6, -8(r5)
        add  r6, r6, r4
        sw   r6, 0(r5)
        addi r1, r1, 1
        slt  r7, r1, r2
        bgtz r7, top
        halt
");
        assert!(t.completed());
        assert_eq!(t.counts().loads, 63);
        assert_eq!(t.counts().stores, 63);
    }

    #[test]
    fn data_directives_initialize_memory() {
        let t = run("\
.alloc buf 64 8
.word  buf 42
.dword buf+8 1234567890123
.double buf+16 2.5
        li   r1, buf
        lw   r2, 0(r1)
        ldc1 f0, 16(r1)
        add.d f1, f0, f0
        sdc1 f1, 24(r1)
        halt
");
        let store = t
            .records()
            .iter()
            .find(|r| t.program().inst(r.sidx).op.is_store())
            .unwrap();
        assert_eq!(f64::from_bits(store.value), 5.0);
        let load = t
            .records()
            .iter()
            .find(|r| t.program().inst(r.sidx).op == crate::Op::Lw)
            .unwrap();
        assert_eq!(load.value, 42);
    }

    #[test]
    fn register_aliases() {
        let t = run("\
        li   sp, 0x10001000
        addi sp, sp, -16
        sw   zero, 0(sp)
        lw   r2, 0(sp)
        halt
");
        assert_eq!(t.counts().stores, 1);
    }

    #[test]
    fn calls_and_returns() {
        let t = run("\
        jal  f
        j    done
f:      addi r9, r9, 1
        jr   ra
done:   halt
");
        assert!(t.completed());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = run("\n# full comment\n   ; another\n  halt ; trailing\n");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = parse_program("  nop\n  frobnicate r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn bad_register_reports_line() {
        let e = parse_program("  add r1, r2, r99\n  halt\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("r99"));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let e = parse_program("  j nowhere\n  halt\n").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = parse_program("x: nop\nx: nop\nhalt\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bound twice"));
    }

    #[test]
    fn duplicate_symbol_is_an_error() {
        let e = parse_program(".alloc b 8 8\n.alloc b 8 8\nhalt\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn oversized_alloc_is_an_error() {
        let e = parse_program(".alloc a 18446744073709551615 8\n.alloc b 8 8\nhalt\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("data segment"), "{}", e.message);
    }

    #[test]
    fn huge_alignment_is_an_error() {
        let e =
            parse_program(".alloc a 8 9223372036854775808\n.alloc b 8 9223372036854775808\nhalt\n")
                .unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("data segment"), "{}", e.message);
    }

    #[test]
    fn arity_errors_name_the_mnemonic() {
        let e = parse_program("  add r1, r2\n  halt\n").unwrap_err();
        assert!(e.message.contains("add expects 3"));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let t = run("  li r1, 0xff\n  addi r1, r1, -0x10\n  halt\n");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn fp_compare_and_branch_syntax() {
        let t = run("\
.alloc d 16 8
.double d 1.5
        li   r1, d
        ldc1 f0, 0(r1)
        ldc1 f1, 0(r1)
        c.eq.d f0, f1
        bc1t yes
        nop
yes:    halt
");
        assert!(t.completed());
    }
}
