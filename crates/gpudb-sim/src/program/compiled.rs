//! Fragment programs compiled once per draw into row-span kernels.
//!
//! The interpreter ([`super::interp::execute`]) decodes every instruction
//! again for every fragment. A [`SpanKernel`] instead lowers the bound
//! program once per draw — against that draw's textures, `program.env`
//! values, quad depth and flat color — and then shades a row span of up to
//! [`SPAN`] fragments per call in struct-of-arrays form: every register
//! component is an array with one lane per fragment, and every lowered
//! operation is one loop over the lanes ("compile the kernel once, stream
//! the records through it").
//!
//! Lowering:
//!
//! * `program.env`, literals, `fragment.color` and the constant components
//!   of `fragment.position` / `fragment.texcoord` (z, w) become constants,
//!   swizzled and negated at compile time. Only the pixel's x and y vary.
//! * Registers are renamed: every computed component gets a fresh slot that
//!   is written once per span, so `MOV` and swizzles are aliases rather
//!   than copies, and an instruction that reads its own destination needs
//!   no staging.
//! * Only components the destination write mask makes live are computed
//!   (for `result.depth`, the z component), and operations whose value
//!   never reaches an output or a `KIL` are dropped.
//! * A `TEX` addressed by an unmodified `fragment.texcoord[n]` or
//!   `fragment.position` takes its texel column as `min(x, w - 1)`
//!   directly. That is exact: the coordinate is `x + 0.5`, and
//!   `floor(x + 0.5) == x` in f32 for every `x` below
//!   [`MAX_TEXTURE_DIM`](crate::texture::MAX_TEXTURE_DIM) (the tests below
//!   check every one).
//! * Such a fetch streams its texels when the span lies inside the
//!   texture's width (`x + SPAN <= w`): no lane clamps, so the span reads
//!   `SPAN` consecutive texels of one row, and each live channel is copied
//!   straight out of the row slice. A span that crosses the right edge,
//!   and a fetch at computed coordinates, gathers one clamped texel per
//!   lane.
//! * Lowering tracks a fact per slot: a constant (with its value), *plain*
//!   (finite with the sign bit clear in every lane: a channel fetched from
//!   a [plain](Texture::is_plain) texture, or a constant such as +0.0 or
//!   1.0), or nothing. `MUL`, `ADD` and the products and partial sums of
//!   `DP3`/`DP4` (summed left to right, as the interpreter does) fold on
//!   these facts: an operation on constants is evaluated once at lowering
//!   with the same f32 operation, and for a plain `p`, `p * 1.0` is `p`,
//!   `p * +0.0` is `+0.0` and `p + +0.0` is `p`. A dot product either
//!   folds completely or stays one `Dp3`/`Dp4` operation. With the
//!   builtins' one-hot channel selector over an attribute texture, the
//!   `DP4` folds to the selected channel, and the other three fetches are
//!   dead.
//!
//! Each fold is exact where its guard holds. IEEE multiplication by 1.0 is
//! the identity on finite values; a finite non-negative value times +0.0
//! is +0.0; adding +0.0 to any number but -0.0 returns it; and operations
//! on constants are the very f32 operations a lane would run. The guards
//! exclude every input on which a fold could differ: -0.0 (`-0.0 + 0.0`
//! is +0.0, `-0.0 * 0.0` is -0.0), negatives (`-1.0 * 0.0` is -0.0),
//! infinities (`inf * 0.0` is NaN) and NaN. The facts never reach a texel
//! or a count, so `DrawCost` and the modeled clock, which come from the
//! program's length, do not move.
//!
//! Every lane runs the interpreter's f32 operations in the interpreter's
//! order — `DP4` left to right, `MAD` as a multiply then an add, no
//! reassociation, no fused multiply-add — so a kernel's color, depth and
//! kill flag equal `execute`'s bit for bit. The differential proptests in
//! `tests/compiled_kernel.rs` check this on random assembled programs
//! and on fetch-then-select programs over plain and impure textures.
//!
//! Lanes whose `KIL` fires are flagged; as with
//! [`ProgramOutput::killed`](super::interp::ProgramOutput::killed), their
//! color and depth are meaningless.

use super::interp::FragmentContext;
use super::isa::{DstOperand, DstReg, FragmentProgram, Instruction, Opcode, SrcOperand, SrcReg};
use crate::texture::{is_plain_value, texel_coord, Texture};
use std::collections::HashMap;

/// Fragments shaded per kernel call: one row span. A span's kill flags
/// fit one `u64`.
pub const SPAN: usize = 64;

const _: () = assert!(SPAN <= 64);

/// One register component across a span: one value per fragment.
type Lanes = [f32; SPAN];

/// Slot of the fragment's window x + 0.5 (varies across a span).
const PX: usize = 0;
/// Slot of the fragment's window y + 0.5 (constant across a span).
const PY: usize = 1;

#[derive(Debug, Clone, Copy)]
enum Unary {
    Neg,
    Frc,
    Flr,
    Abs,
    Rcp,
    Rsq,
    Ex2,
    Lg2,
}

#[derive(Debug, Clone, Copy)]
enum Binary {
    Add,
    Sub,
    Mul,
    Min,
    Max,
    Slt,
    Sge,
    Pow,
}

#[derive(Debug, Clone, Copy)]
enum Ternary {
    Mad,
    Cmp,
}

/// How a texture fetch finds its texel.
#[derive(Debug, Clone, Copy)]
enum Coord {
    /// The fragment's own pixel: column `min(x, w - 1)`, row
    /// `min(y, h - 1)`.
    Pixel,
    /// Arbitrary per-lane coordinates in the given (x, y) slots.
    Lanes(usize, usize),
}

/// A lowered operation. The first slot is the destination; it is always
/// greater than every source slot (sources are resolved before the
/// destination is allocated), which lets the kernel split the register
/// file instead of copying.
#[derive(Debug)]
enum Op<'a> {
    Unary(Unary, usize, usize),
    Binary(Binary, usize, usize, usize),
    Ternary(Ternary, usize, [usize; 3]),
    Dp3(usize, [usize; 3], [usize; 3]),
    Dp4(usize, [usize; 4], [usize; 4]),
    /// Fetch the live channels of `texture` into `dst`.
    Tex {
        dst: [Option<usize>; 4],
        coord: Coord,
        texture: &'a Texture,
    },
    /// Kill lanes where any of the slots is negative.
    Kil(Vec<usize>),
}

impl Op<'_> {
    fn dst(&self) -> Option<usize> {
        match *self {
            Op::Unary(_, d, _) | Op::Binary(_, d, ..) | Op::Ternary(_, d, _) => Some(d),
            Op::Dp3(d, ..) | Op::Dp4(d, ..) => Some(d),
            Op::Tex { .. } | Op::Kil(_) => None,
        }
    }

    fn sources(&self) -> Vec<usize> {
        match self {
            Op::Unary(_, _, a) => vec![*a],
            Op::Binary(_, _, a, b) => vec![*a, *b],
            Op::Ternary(_, _, s) => s.to_vec(),
            Op::Dp3(_, a, b) => a.iter().chain(b).copied().collect(),
            Op::Dp4(_, a, b) => a.iter().chain(b).copied().collect(),
            Op::Tex {
                coord: Coord::Lanes(x, y),
                ..
            } => vec![*x, *y],
            Op::Tex { .. } => Vec::new(),
            Op::Kil(s) => s.clone(),
        }
    }
}

/// A fragment program lowered for one draw.
#[derive(Debug)]
pub struct SpanKernel<'a> {
    ops: Vec<Op<'a>>,
    /// Initial register file: constants filled in, every other slot zero.
    image: Vec<Lanes>,
    /// Slots holding `result.color` (a constant slot when never written).
    color: [usize; 4],
    /// Slot holding `result.depth`, if the program writes it.
    depth: Option<usize>,
    uses_px: bool,
    uses_py: bool,
}

/// A span's register file. Create one per thread with
/// [`SpanKernel::registers`] and reuse it for every span of a draw.
#[derive(Debug)]
pub struct SpanRegisters {
    slots: Vec<Lanes>,
}

/// The outputs of one shaded span, lane by lane.
#[derive(Debug, Clone, Copy)]
pub struct ShadedSpan<'r> {
    /// `result.color`, one array per channel.
    pub(crate) color: [&'r Lanes; 4],
    /// `result.depth`, if the program writes it.
    pub(crate) depth: Option<&'r Lanes>,
    /// The lanes a `KIL` discarded.
    pub(crate) killed: u64,
}

impl ShadedSpan<'_> {
    /// Whether a `KIL` discarded the lane's fragment.
    #[inline(always)]
    pub fn killed(&self, lane: usize) -> bool {
        self.killed & (1 << lane) != 0
    }

    /// The lane's output color.
    #[inline(always)]
    pub fn color(&self, lane: usize) -> [f32; 4] {
        self.color.map(|c| c[lane])
    }

    /// The lane's replacement depth, if the program writes `result.depth`.
    #[inline(always)]
    pub fn depth(&self, lane: usize) -> Option<f32> {
        self.depth.map(|d| d[lane])
    }
}

impl<'a> SpanKernel<'a> {
    /// Lower `program` for one draw: `ctx` supplies the bound textures and
    /// `program.env`, `depth` the quad depth (`fragment.position.z`) and
    /// `color` the flat primary color (`fragment.color`).
    pub fn compile(
        program: &FragmentProgram,
        ctx: &FragmentContext<'a>,
        depth: f32,
        color: [f32; 4],
    ) -> SpanKernel<'a> {
        Lowering::new(program, ctx, depth, color).run()
    }

    /// A fresh register file for this kernel.
    pub fn registers(&self) -> SpanRegisters {
        SpanRegisters {
            slots: self.image.clone(),
        }
    }

    /// Shade the [`SPAN`] fragments at pixels `(x..x + SPAN, y)`. Callers
    /// covering a shorter span read only its leading lanes; the rest are
    /// computed and ignored (texel fetches clamp, so any lane is safe).
    pub fn shade<'r>(&'r self, regs: &'r mut SpanRegisters, x: usize, y: usize) -> ShadedSpan<'r> {
        let slots = regs.slots.as_mut_slice();
        if self.uses_px {
            slots[PX] = std::array::from_fn(|l| (x + l) as f32 + 0.5);
        }
        if self.uses_py {
            slots[PY] = [y as f32 + 0.5; SPAN];
        }
        let mut killed = 0u64;
        for op in &self.ops {
            match *op {
                Op::Unary(f, d, a) => {
                    let (src, out) = split(slots, d);
                    let a = &src[a];
                    match f {
                        Unary::Neg => map1(out, a, |x| -x),
                        Unary::Frc => map1(out, a, |x| x - floor(x)),
                        Unary::Flr => map1(out, a, floor),
                        Unary::Abs => map1(out, a, f32::abs),
                        Unary::Rcp => map1(out, a, |x| 1.0 / x),
                        Unary::Rsq => map1(out, a, |x| 1.0 / x.abs().sqrt()),
                        Unary::Ex2 => map1(out, a, f32::exp2),
                        Unary::Lg2 => map1(out, a, |x| x.abs().log2()),
                    }
                }
                Op::Binary(f, d, a, b) => {
                    let (src, out) = split(slots, d);
                    let (a, b) = (&src[a], &src[b]);
                    match f {
                        Binary::Add => map2(out, a, b, |x, y| x + y),
                        Binary::Sub => map2(out, a, b, |x, y| x - y),
                        Binary::Mul => map2(out, a, b, |x, y| x * y),
                        Binary::Min => map2(out, a, b, f32::min),
                        Binary::Max => map2(out, a, b, f32::max),
                        Binary::Slt => map2(out, a, b, |x, y| if x < y { 1.0 } else { 0.0 }),
                        Binary::Sge => map2(out, a, b, |x, y| if x >= y { 1.0 } else { 0.0 }),
                        Binary::Pow => map2(out, a, b, f32::powf),
                    }
                }
                Op::Ternary(f, d, [a, b, c]) => {
                    let (src, out) = split(slots, d);
                    let (a, b, c) = (&src[a], &src[b], &src[c]);
                    match f {
                        Ternary::Mad => map3(out, a, b, c, |x, y, z| x * y + z),
                        Ternary::Cmp => map3(out, a, b, c, |x, y, z| if x < 0.0 { y } else { z }),
                    }
                }
                Op::Dp3(d, a, b) => {
                    let (src, out) = split(slots, d);
                    let [a0, a1, a2] = a.map(|s| &src[s]);
                    let [b0, b1, b2] = b.map(|s| &src[s]);
                    for (l, o) in out.iter_mut().enumerate() {
                        *o = a0[l] * b0[l] + a1[l] * b1[l] + a2[l] * b2[l];
                    }
                }
                Op::Dp4(d, a, b) => {
                    let (src, out) = split(slots, d);
                    let [a0, a1, a2, a3] = a.map(|s| &src[s]);
                    let [b0, b1, b2, b3] = b.map(|s| &src[s]);
                    for (l, o) in out.iter_mut().enumerate() {
                        *o = a0[l] * b0[l] + a1[l] * b1[l] + a2[l] * b2[l] + a3[l] * b3[l];
                    }
                }
                Op::Tex {
                    dst,
                    coord,
                    texture,
                } => fetch(slots, texture, dst, coord, x, y),
                Op::Kil(ref srcs) => {
                    for &s in srcs {
                        for (l, &v) in slots[s].iter().enumerate() {
                            if v < 0.0 {
                                killed |= 1 << l;
                            }
                        }
                    }
                }
            }
        }
        let slots = &regs.slots;
        ShadedSpan {
            color: self.color.map(|s| &slots[s]),
            depth: self.depth.map(|s| &slots[s]),
            killed,
        }
    }
}

/// Split the register file at destination `d`: every source lies below it.
#[inline(always)]
fn split(slots: &mut [Lanes], d: usize) -> (&[Lanes], &mut Lanes) {
    let (src, rest) = slots.split_at_mut(d);
    (src, &mut rest[0])
}

/// `f32::floor`, bit for bit (NaN stays NaN), in a form the optimizer
/// vectorizes: baseline x86-64 has no SSE4.1 `roundps`, so `f32::floor`
/// is a libm call per lane, and a saturating `as i32` cast is a scalar
/// conversion per lane. Values of magnitude 2^23 and up (and NaN, ±inf)
/// are already integral. Below that, adding and then subtracting 2^23
/// rounds `|x|` to the nearest integer exactly (the sum keeps no fraction
/// bits); `copysign` gives it the sign of `x` (so -0.0 and (-0.5, -0.0)
/// round to -0.0), and stepping down where it rounded up gives the floor.
#[inline(always)]
fn floor(x: f32) -> f32 {
    const TWO_23: f32 = 8_388_608.0;
    if x.abs() < TWO_23 {
        let r = ((x.abs() + TWO_23) - TWO_23).copysign(x);
        if r > x {
            r - 1.0
        } else {
            r
        }
    } else {
        x
    }
}

#[inline(always)]
fn map1(out: &mut Lanes, a: &Lanes, f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

#[inline(always)]
fn map2(out: &mut Lanes, a: &Lanes, b: &Lanes, f: impl Fn(f32, f32) -> f32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

#[inline(always)]
fn map3(out: &mut Lanes, a: &Lanes, b: &Lanes, c: &Lanes, f: impl Fn(f32, f32, f32) -> f32) {
    for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(x, y, z);
    }
}

/// Nearest-neighbor, clamp-to-edge fetch of the live channels `dst` for
/// every lane of the span starting at pixel `(x, y)`. A pixel-addressed
/// span inside the texture's width copies the row's texels; any other
/// span gathers them one clamped address per lane.
fn fetch(
    slots: &mut [Lanes],
    texture: &Texture,
    dst: [Option<usize>; 4],
    coord: Coord,
    x: usize,
    y: usize,
) {
    let (w, h) = (texture.width(), texture.height());
    let channels = texture.format().channels();
    let data = texture.data();
    if matches!(coord, Coord::Pixel) && x + SPAN <= w {
        // The span lies inside one texture row: stream its texels.
        let start = (y.min(h - 1) * w + x) * channels;
        let texels = &data[start..start + SPAN * channels];
        for (c, d) in dst.iter().enumerate() {
            if let Some(d) = *d {
                let out = &mut slots[d];
                if channels == 1 {
                    out.copy_from_slice(texels);
                } else {
                    for (o, t) in out.iter_mut().zip(texels.chunks_exact(channels)) {
                        *o = t[c];
                    }
                }
            }
        }
        return;
    }
    let base: [usize; SPAN] = match coord {
        Coord::Pixel => {
            let row = y.min(h - 1) * w;
            std::array::from_fn(|l| (row + (x + l).min(w - 1)) * channels)
        }
        Coord::Lanes(cx, cy) => {
            let (cx, cy) = (&slots[cx], &slots[cy]);
            std::array::from_fn(|l| (texel_coord(cy[l], h) * w + texel_coord(cx[l], w)) * channels)
        }
    };
    for (c, d) in dst.iter().enumerate() {
        if let Some(d) = *d {
            let out = &mut slots[d];
            for (o, &b) in out.iter_mut().zip(&base) {
                *o = data[b + c];
            }
        }
    }
}

/// A register component's value at some point of the program.
#[derive(Debug, Clone, Copy)]
enum Value {
    Const(f32),
    Slot(usize),
}

/// What lowering knows about a slot's value in every lane.
#[derive(Debug, Clone, Copy)]
enum Fact {
    /// The same constant.
    Const(f32),
    /// Finite and sign-clear: a channel fetched from a plain texture.
    Plain,
    /// Nothing.
    Any,
}

/// What a texel component reads as when the texture lacks that channel
/// (and what every component of an unbound unit reads as): GL's
/// `(0, 0, 0, 1)` expansion.
const MISSING_TEXEL: [f32; 4] = [0.0, 0.0, 0.0, 1.0];

struct Lowering<'p, 'c, 'a> {
    program: &'p FragmentProgram,
    ctx: &'c FragmentContext<'a>,
    depth: f32,
    color: [f32; 4],
    image: Vec<Lanes>,
    /// What is known of each slot of `image`.
    facts: Vec<Fact>,
    consts: HashMap<u32, usize>,
    negated: HashMap<usize, usize>,
    ops: Vec<Op<'a>>,
    /// Current slot of each temp component; `None` until first written
    /// (temps start at zero).
    temps: Vec<[Option<usize>; 4]>,
    result_color: [Option<usize>; 4],
    result_depth: Option<usize>,
}

impl<'p, 'c, 'a> Lowering<'p, 'c, 'a> {
    fn new(
        program: &'p FragmentProgram,
        ctx: &'c FragmentContext<'a>,
        depth: f32,
        color: [f32; 4],
    ) -> Self {
        Lowering {
            program,
            ctx,
            depth,
            color,
            // PX and PY.
            image: vec![[0.0; SPAN]; 2],
            facts: vec![Fact::Any; 2],
            consts: HashMap::new(),
            negated: HashMap::new(),
            ops: Vec::new(),
            temps: Vec::new(),
            result_color: [None; 4],
            result_depth: None,
        }
    }

    fn fresh(&mut self) -> usize {
        self.image.push([0.0; SPAN]);
        self.facts.push(Fact::Any);
        self.image.len() - 1
    }

    fn constant(&mut self, v: f32) -> usize {
        if let Some(&slot) = self.consts.get(&v.to_bits()) {
            return slot;
        }
        let slot = self.image.len();
        self.image.push([v; SPAN]);
        self.facts.push(Fact::Const(v));
        self.consts.insert(v.to_bits(), slot);
        slot
    }

    fn value(&mut self, v: Value) -> usize {
        match v {
            Value::Const(c) => self.constant(c),
            Value::Slot(s) => s,
        }
    }

    fn fact(&self, v: Value) -> Fact {
        match v {
            Value::Const(c) => Fact::Const(c),
            Value::Slot(s) => self.facts[s],
        }
    }

    fn plain(&self, v: Value) -> bool {
        match self.fact(v) {
            Fact::Const(c) => is_plain_value(c),
            Fact::Plain => true,
            Fact::Any => false,
        }
    }

    /// `a * b` without an operation, where that is exact: constants
    /// multiply now, and a plain `p` gives `p * 1.0 == p` and
    /// `p * +0.0 == +0.0` (in either order).
    fn fold_mul(&self, a: Value, b: Value) -> Option<Value> {
        match (self.fact(a), self.fact(b)) {
            (Fact::Const(x), Fact::Const(y)) => Some(Value::Const(x * y)),
            (_, Fact::Const(k)) if self.plain(a) => fold_scale(a, k),
            (Fact::Const(k), _) if self.plain(b) => fold_scale(b, k),
            _ => None,
        }
    }

    /// `a + b` without an operation, where that is exact: constants add
    /// now, and a plain `p` gives `p + +0.0 == p` (in either order).
    fn fold_add(&self, a: Value, b: Value) -> Option<Value> {
        match (self.fact(a), self.fact(b)) {
            (Fact::Const(x), Fact::Const(y)) => Some(Value::Const(x + y)),
            (_, Fact::Const(k)) if k.to_bits() == 0 && self.plain(a) => Some(a),
            (Fact::Const(k), _) if k.to_bits() == 0 && self.plain(b) => Some(b),
            _ => None,
        }
    }

    /// The dot product `a[0] * b[0] + a[1] * b[1] + ...`, left to right
    /// as the interpreter sums it. When every product and every partial
    /// sum folds (a one-hot selector over a plain texture), it is a
    /// constant or one of the operands. Otherwise it stays the single
    /// operation `unfolded`: one fused loop is faster than the per-term
    /// operations a partial fold would leave.
    fn dot(&mut self, a: &[usize], b: &[usize], unfolded: impl FnOnce(usize) -> Op<'a>) -> usize {
        let mut terms = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| self.fold_mul(Value::Slot(x), Value::Slot(y)));
        let first = terms.next().flatten();
        match terms.fold(first, |sum, term| self.fold_add(sum?, term?)) {
            Some(v) => self.value(v),
            None => self.emit(unfolded),
        }
    }

    /// Component `k` of register `reg`, before swizzle and negation.
    fn component(&self, reg: SrcReg, k: usize) -> Value {
        let vec = |v: Option<&[f32; 4]>| Value::Const(v.map_or(0.0, |v| v[k]));
        match reg {
            SrcReg::Temp(i) => self
                .temps
                .get(i)
                .and_then(|t| t[k])
                .map_or(Value::Const(0.0), Value::Slot),
            SrcReg::Param(i) => vec(self.ctx.env.get(i)),
            SrcReg::Literal(i) => vec(self.program.literals.get(i)),
            SrcReg::FragColor => Value::Const(self.color[k]),
            SrcReg::TexCoord(_) => [
                Value::Slot(PX),
                Value::Slot(PY),
                Value::Const(0.0),
                Value::Const(1.0),
            ][k],
            SrcReg::Position => [
                Value::Slot(PX),
                Value::Slot(PY),
                Value::Const(self.depth),
                Value::Const(1.0),
            ][k],
        }
    }

    /// The slot holding component `c` of a source operand after swizzle
    /// and negation. A missing operand reads as zero, as in the
    /// interpreter.
    fn read(&mut self, src: Option<&SrcOperand>, c: usize) -> usize {
        let Some(src) = src else {
            return self.constant(0.0);
        };
        let k = usize::from(src.swizzle.0[c] & 3);
        match (self.component(src.reg, k), src.negate) {
            (Value::Const(v), false) => self.constant(v),
            (Value::Const(v), true) => self.constant(-v),
            (Value::Slot(s), false) => s,
            (Value::Slot(s), true) => {
                if let Some(&n) = self.negated.get(&s) {
                    return n;
                }
                let n = self.fresh();
                self.ops.push(Op::Unary(Unary::Neg, n, s));
                self.negated.insert(s, n);
                n
            }
        }
    }

    /// Emit `op(dst, ..)` into a fresh destination slot.
    fn emit(&mut self, op: impl FnOnce(usize) -> Op<'a>) -> usize {
        let d = self.fresh();
        let op = op(d);
        debug_assert!(op.sources().iter().all(|&s| s < d));
        self.ops.push(op);
        d
    }

    fn run(mut self) -> SpanKernel<'a> {
        for inst in &self.program.instructions {
            match inst {
                Instruction::Kil { src } => {
                    let mut slots: Vec<usize> = (0..4).map(|c| self.read(Some(src), c)).collect();
                    slots.sort_unstable();
                    slots.dedup();
                    self.ops.push(Op::Kil(slots));
                }
                Instruction::Tex { dst, coord, unit } => {
                    let value = self.lower_tex(dst, coord, *unit);
                    self.write(dst, value);
                }
                Instruction::Alu { op, dst, srcs } => {
                    let value = self.lower_alu(*op, dst, srcs);
                    self.write(dst, value);
                }
            }
        }
        self.finish()
    }

    fn lower_tex(
        &mut self,
        dst: &DstOperand,
        coord: &SrcOperand,
        unit: usize,
    ) -> [Option<usize>; 4] {
        let live = live_components(dst);
        let Some(texture) = self.ctx.textures.get(unit).copied().flatten() else {
            return std::array::from_fn(|c| live[c].then(|| self.constant(MISSING_TEXEL[c])));
        };
        let pixel = matches!(coord.reg, SrcReg::TexCoord(_) | SrcReg::Position)
            && !coord.negate
            && coord.swizzle.0[..2] == [0, 1];
        let coord = if pixel {
            Coord::Pixel
        } else {
            Coord::Lanes(self.read(Some(coord), 0), self.read(Some(coord), 1))
        };
        let channels = texture.format().channels();
        let mut fetched = [None; 4];
        let mut value = [None; 4];
        for c in 0..4 {
            if !live[c] {
                continue;
            }
            value[c] = Some(if c < channels {
                let d = self.fresh();
                if texture.is_plain() {
                    self.facts[d] = Fact::Plain;
                }
                fetched[c] = Some(d);
                d
            } else {
                self.constant(MISSING_TEXEL[c])
            });
        }
        if fetched.iter().any(Option::is_some) {
            self.ops.push(Op::Tex {
                dst: fetched,
                coord,
                texture,
            });
        }
        value
    }

    fn lower_alu(
        &mut self,
        op: Opcode,
        dst: &DstOperand,
        srcs: &[Option<SrcOperand>; 3],
    ) -> [Option<usize>; 4] {
        let live = live_components(dst);
        let [a, b, c] = [srcs[0].as_ref(), srcs[1].as_ref(), srcs[2].as_ref()];
        // Scalar and dot-product results are computed once and broadcast.
        let scalar = match op {
            Opcode::Dp3 => {
                let (x, y) = (
                    [0, 1, 2].map(|k| self.read(a, k)),
                    [0, 1, 2].map(|k| self.read(b, k)),
                );
                Some(self.dot(&x, &y, |d| Op::Dp3(d, x, y)))
            }
            Opcode::Dp4 => {
                let (x, y) = (
                    [0, 1, 2, 3].map(|k| self.read(a, k)),
                    [0, 1, 2, 3].map(|k| self.read(b, k)),
                );
                Some(self.dot(&x, &y, |d| Op::Dp4(d, x, y)))
            }
            Opcode::Rcp => Some(self.unary(Unary::Rcp, a, 0)),
            Opcode::Rsq => Some(self.unary(Unary::Rsq, a, 0)),
            Opcode::Ex2 => Some(self.unary(Unary::Ex2, a, 0)),
            Opcode::Lg2 => Some(self.unary(Unary::Lg2, a, 0)),
            Opcode::Pow => Some(self.binary(Binary::Pow, a, b, 0)),
            _ => None,
        };
        if let Some(s) = scalar {
            return live.map(|l| l.then_some(s));
        }
        let mut value = [None; 4];
        for k in 0..4 {
            if !live[k] {
                continue;
            }
            value[k] = match op {
                Opcode::Mov => Some(self.read(a, k)),
                Opcode::Frc => Some(self.unary(Unary::Frc, a, k)),
                Opcode::Flr => Some(self.unary(Unary::Flr, a, k)),
                Opcode::Abs => Some(self.unary(Unary::Abs, a, k)),
                Opcode::Add => Some(self.binary(Binary::Add, a, b, k)),
                Opcode::Sub => Some(self.binary(Binary::Sub, a, b, k)),
                Opcode::Mul => Some(self.binary(Binary::Mul, a, b, k)),
                Opcode::Min => Some(self.binary(Binary::Min, a, b, k)),
                Opcode::Max => Some(self.binary(Binary::Max, a, b, k)),
                Opcode::Slt => Some(self.binary(Binary::Slt, a, b, k)),
                Opcode::Sge => Some(self.binary(Binary::Sge, a, b, k)),
                Opcode::Mad => Some(self.ternary(Ternary::Mad, [a, b, c], k)),
                Opcode::Cmp => Some(self.ternary(Ternary::Cmp, [a, b, c], k)),
                // TEX and KIL are not ALU operations; a hand-built program
                // that files them as such writes nothing.
                _ => None,
            };
        }
        value
    }

    fn unary(&mut self, f: Unary, a: Option<&SrcOperand>, k: usize) -> usize {
        let a = self.read(a, k);
        self.emit(|d| Op::Unary(f, d, a))
    }

    fn binary(
        &mut self,
        f: Binary,
        a: Option<&SrcOperand>,
        b: Option<&SrcOperand>,
        k: usize,
    ) -> usize {
        let (a, b) = (self.read(a, k), self.read(b, k));
        let (x, y) = (Value::Slot(a), Value::Slot(b));
        let folded = match f {
            Binary::Mul => self.fold_mul(x, y),
            Binary::Add => self.fold_add(x, y),
            _ => None,
        };
        match folded {
            Some(v) => self.value(v),
            None => self.emit(|d| Op::Binary(f, d, a, b)),
        }
    }

    fn ternary(&mut self, f: Ternary, srcs: [Option<&SrcOperand>; 3], k: usize) -> usize {
        let s = srcs.map(|src| self.read(src, k));
        self.emit(|d| Op::Ternary(f, d, s))
    }

    /// Point the destination's live components at their new slots.
    fn write(&mut self, dst: &DstOperand, value: [Option<usize>; 4]) {
        let register = match dst.reg {
            DstReg::Temp(i) => {
                if self.temps.len() <= i {
                    self.temps.resize(i + 1, [None; 4]);
                }
                &mut self.temps[i]
            }
            DstReg::ResultColor => &mut self.result_color,
            DstReg::ResultDepth => {
                self.result_depth = value[2];
                return;
            }
        };
        for (r, v) in register.iter_mut().zip(value) {
            if v.is_some() {
                *r = v;
            }
        }
    }

    /// Drop operations whose values reach neither an output nor a `KIL`.
    fn finish(mut self) -> SpanKernel<'a> {
        // A color component the program never writes keeps the
        // interpolated color.
        let color = std::array::from_fn(|c| match self.result_color[c] {
            Some(slot) => slot,
            None => self.constant(self.color[c]),
        });
        let mut live = vec![false; self.image.len()];
        for s in color.iter().chain(&self.result_depth) {
            live[*s] = true;
        }
        let mut kept = Vec::with_capacity(self.ops.len());
        for mut op in self.ops.into_iter().rev() {
            let needed = match &mut op {
                Op::Kil(_) => true,
                Op::Tex { dst, .. } => {
                    for d in dst.iter_mut() {
                        if d.is_some_and(|s| !live[s]) {
                            *d = None;
                        }
                    }
                    dst.iter().any(Option::is_some)
                }
                other => other.dst().is_some_and(|d| live[d]),
            };
            if needed {
                for s in op.sources() {
                    live[s] = true;
                }
                kept.push(op);
            }
        }
        kept.reverse();
        SpanKernel {
            ops: kept,
            image: self.image,
            color,
            depth: self.result_depth,
            uses_px: live[PX],
            uses_py: live[PY],
        }
    }
}

/// `p * k` for a plain `p`, where that needs no operation.
fn fold_scale(p: Value, k: f32) -> Option<Value> {
    if k == 1.0 {
        Some(p)
    } else if k.to_bits() == 0 {
        Some(Value::Const(0.0))
    } else {
        None
    }
}

/// Components an instruction computes: the write mask's, except that
/// `result.depth` only ever takes the z component.
fn live_components(dst: &DstOperand) -> [bool; 4] {
    match dst.reg {
        DstReg::ResultDepth => [false, false, true, false],
        _ => std::array::from_fn(|c| dst.mask.writes(c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::builtin;
    use crate::program::interp::{execute, FragmentInput};
    use crate::program::parser::assemble;
    use crate::texture::{TextureFormat, MAX_TEXTURE_DIM};

    #[test]
    fn pixel_coordinate_floor_is_exact_below_max_texture_dim() {
        for x in 0..=MAX_TEXTURE_DIM {
            let c = x as f32 + 0.5;
            assert_eq!(c.floor(), x as f32, "x = {x}");
            for w in [1, 7, 64, 1000, MAX_TEXTURE_DIM] {
                assert_eq!(texel_coord(c, w), x.min(w - 1), "x = {x}, w = {w}");
            }
        }
    }

    /// `floor` against `f32::floor` on every f32 bit pattern in optimized
    /// builds (a strided sweep in debug builds), plus the edge values.
    #[test]
    fn floor_matches_f32_floor() {
        let stride = if cfg!(debug_assertions) { 65_537 } else { 1 };
        let edges = [
            0.0f32,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            -8_388_608.0,
            16_777_217.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let check = |x: f32| {
            let (got, want) = (floor(x), x.floor());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "floor({x:e}) = {got:e}, want {want:e} (bits {:08x})",
                x.to_bits()
            );
        };
        edges.into_iter().for_each(check);
        // Four quarters of the bit patterns on parallel threads.
        std::thread::scope(|scope| {
            for quarter in 0..4u32 {
                let start = quarter << 30;
                scope.spawn(move || {
                    (start..=start | ((1 << 30) - 1))
                        .step_by(stride)
                        .for_each(|bits| check(f32::from_bits(bits)))
                });
            }
        });
    }

    /// Shade pixels `xs` of row `y` span by span with the kernel and one
    /// by one with the interpreter, and require identical bits.
    fn assert_row_matches(src: &str, texture: &Texture, xs: std::ops::Range<usize>, y: usize) {
        let program = assemble(src).unwrap();
        let env = [[0.5, 0.25, 2.0, 1.0]; 32];
        let textures = [Some(texture)];
        let ctx = FragmentContext {
            textures: &textures,
            env: &env,
        };
        let color = [0.1, 0.2, 0.3, 0.4];
        let kernel = SpanKernel::compile(&program, &ctx, 0.5, color);
        let mut regs = kernel.registers();
        let mut x0 = xs.start;
        while x0 < xs.end {
            let len = (xs.end - x0).min(SPAN);
            let out = kernel.shade(&mut regs, x0, y);
            for l in 0..len {
                let input = FragmentInput::for_pixel(x0 + l, y, 0.5, color);
                let want = execute(&program, &input, &ctx);
                assert_eq!(out.killed(l), want.killed, "x = {}", x0 + l);
                assert_eq!(
                    out.color(l).map(f32::to_bits),
                    want.color.map(f32::to_bits),
                    "x = {}",
                    x0 + l
                );
                assert_eq!(out.depth(l).map(f32::to_bits), want.depth.map(f32::to_bits));
            }
            x0 += len;
        }
    }

    const FETCH: &str = "TEX R0, fragment.texcoord[0], texture[0], 2D; MOV result.color, R0;";

    #[test]
    fn pixel_fetch_matches_interpreter_across_max_texture_width() {
        let texture = Texture::from_data(
            MAX_TEXTURE_DIM,
            1,
            TextureFormat::R,
            (0..MAX_TEXTURE_DIM).map(|i| i as f32).collect(),
        )
        .unwrap();
        // x = MAX_TEXTURE_DIM is one past the texture: clamped to the edge.
        assert_row_matches(FETCH, &texture, 0..MAX_TEXTURE_DIM + 1, 0);
    }

    #[test]
    fn pixel_fetch_clamps_on_a_framebuffer_wider_and_taller_than_the_texture() {
        let texture = Texture::from_data(
            100,
            3,
            TextureFormat::Rg,
            (0..600).map(|i| i as f32 * 0.5).collect(),
        )
        .unwrap();
        for y in [0, 2, 5] {
            assert_row_matches(FETCH, &texture, 0..300, y);
        }
        // The position register addresses the same texel.
        let src = "TEX R0, fragment.position, texture[0], 2D; MOV result.color, R0.yxzw;";
        assert_row_matches(src, &texture, 37..250, 4);
    }

    /// How a program lowered: its operation count, the channels its
    /// fetches read, and whether a `Dp4` survived.
    #[derive(Debug, PartialEq)]
    struct Shape {
        ops: usize,
        fetched: Vec<usize>,
        dp4: bool,
    }

    fn shape(kernel: &SpanKernel<'_>) -> Shape {
        let mut fetched = Vec::new();
        for op in &kernel.ops {
            if let Op::Tex { dst, .. } = op {
                fetched.extend((0..4).filter(|&c| dst[c].is_some()));
            }
        }
        Shape {
            ops: kernel.ops.len(),
            fetched,
            dp4: kernel.ops.iter().any(|op| matches!(op, Op::Dp4(..))),
        }
    }

    /// Lower a builtin against `texture` with the channel selector for
    /// `channel` and a bit divisor as scale.
    fn builtin_shape(program: &FragmentProgram, texture: &Texture, channel: usize) -> Shape {
        use crate::program::builtin::{channel_selector, ENV_CHANNEL, ENV_SCALE};
        let textures = [Some(texture)];
        let mut env = [[0.0; 4]; 32];
        env[ENV_SCALE] = [0.125, 0.0, 0.0, 0.0];
        env[ENV_CHANNEL] = channel_selector(channel);
        let ctx = FragmentContext {
            textures: &textures,
            env: &env,
        };
        let kernel = SpanKernel::compile(program, &ctx, 0.0, [0.0; 4]);
        assert!(!kernel.uses_px && !kernel.uses_py);
        shape(&kernel)
    }

    /// A 5×3 RGBA texture of 24-bit integers, as `GpuTable::upload`
    /// builds one (u32 → f32).
    fn attribute_texture() -> Texture {
        let data = (0..5 * 3 * 4)
            .map(|i: u32| (i * 104_729 % (1 << 24)) as f32)
            .collect();
        Texture::from_data(5, 3, TextureFormat::Rgba, data).unwrap()
    }

    #[test]
    fn builtins_over_plain_textures_fetch_only_the_selected_channel() {
        let texture = attribute_texture();
        assert!(texture.is_plain());
        let (test_bit, copy) = (builtin::test_bit(), builtin::copy_to_depth());
        for channel in 0..4 {
            // TEX (the selected channel), MUL, FRC: the DP4 is an alias of
            // the fetched channel and the MOV an alias of the FRC.
            let want = Shape {
                ops: 3,
                fetched: vec![channel],
                dp4: false,
            };
            assert_eq!(builtin_shape(&test_bit, &texture, channel), want);
            // TEX, MUL.
            let want = Shape { ops: 2, ..want };
            assert_eq!(builtin_shape(&copy, &texture, channel), want);
        }
        // Missing channels read as constants: an R texture folds the same.
        let r = Texture::from_data(4, 1, TextureFormat::R, vec![1.0; 4]).unwrap();
        assert_eq!(builtin_shape(&test_bit, &r, 0).ops, 3);
    }

    #[test]
    fn builtins_keep_the_dot_product_over_impure_textures() {
        let (test_bit, copy) = (builtin::test_bit(), builtin::copy_to_depth());
        for bad in [f32::NAN, -0.0, f32::INFINITY, -1.0] {
            let mut data = attribute_texture().data().to_vec();
            // One texel of channel 3, which the selector leaves out.
            data[7 * 4 + 3] = bad;
            let texture = Texture::from_data(5, 3, TextureFormat::Rgba, data).unwrap();
            assert!(!texture.is_plain());
            for (program, ops) in [(&test_bit, 4), (&copy, 3)] {
                let want = Shape {
                    ops,
                    fetched: vec![0, 1, 2, 3],
                    dp4: true,
                };
                assert_eq!(builtin_shape(program, &texture, 1), want, "{bad}");
            }
        }
    }

    /// SemilinearFP's coefficients over a plain texture: a dot product
    /// that does not fold completely stays one `Dp4`.
    #[test]
    fn dot_products_that_do_not_fold_completely_stay_one_operation() {
        let texture = attribute_texture();
        let textures = [Some(&texture)];
        let program = builtin::semilinear(crate::state::CompareFunc::Less);
        for coeff in [
            [0.5, -1.0, 2.0, 0.75],
            [1.0, -1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, 0.0],
        ] {
            let mut env = [[0.0; 4]; 32];
            env[builtin::ENV_COEFF] = coeff;
            let ctx = FragmentContext {
                textures: &textures,
                env: &env,
            };
            let kernel = SpanKernel::compile(&program, &ctx, 0.0, [0.0; 4]);
            assert!(shape(&kernel).dp4, "{coeff:?}: {:?}", kernel.ops);
            let binary = |op: &Op<'_>| matches!(op, Op::Binary(Binary::Mul | Binary::Add, ..));
            assert!(
                !kernel.ops.iter().any(binary),
                "{coeff:?}: {:?}",
                kernel.ops
            );
        }
    }

    #[test]
    fn dead_writes_are_dropped() {
        let texture = Texture::from_data(1, 1, TextureFormat::Rgba, vec![1.0; 4]).unwrap();
        let textures = [Some(&texture)];
        let env = [[0.0; 4]; 32];
        let ctx = FragmentContext {
            textures: &textures,
            env: &env,
        };
        let program = assemble(
            "TEX R0, fragment.texcoord[0], texture[0], 2D;
             MUL R1, R0, R0; ADD R2, R1, R1;
             MOV result.color.y, R0.w;",
        )
        .unwrap();
        let kernel = SpanKernel::compile(&program, &ctx, 0.0, [0.0; 4]);
        // Only the fetch of channel w survives.
        assert_eq!(kernel.ops.len(), 1, "{:?}", kernel.ops);
        match &kernel.ops[0] {
            Op::Tex { dst, .. } => assert_eq!(dst.iter().flatten().count(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
