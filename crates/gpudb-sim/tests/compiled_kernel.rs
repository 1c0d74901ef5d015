//! Differential test: compiled span kernels against the reference
//! interpreter.
//!
//! Random programs go through the assembler, then every fragment of a
//! random row segment is shaded twice: span by span with a
//! [`SpanKernel`], and one at a time with `interp::execute`. The kill flag
//! must match exactly, and a surviving fragment's color and depth must
//! match by `f32::to_bits`. The one allowance is NaN: Rust leaves the
//! payload and sign of a NaN result unspecified, so any NaN matches any
//! NaN. No test or framebuffer write can tell NaNs apart (every comparison
//! with a NaN is false).
//!
//! The kernel folds multiplications by 1.0 and +0.0 and additions of +0.0
//! when an operand is plain (a constant, or a channel of a texture whose
//! every texel is finite and sign-clear). So the cases mix textures of
//! arbitrary values, plain textures, and plain textures with one bad
//! texel, and the constant vectors are often one-hot, all-zero or ±1.

use gpudb_sim::program::interp::{execute, FragmentContext, FragmentInput};
use gpudb_sim::program::{assemble, SpanKernel, SPAN};
use gpudb_sim::{Texture, TextureFormat};
use proptest::prelude::*;

/// SplitMix64: programs and data are derived from one proptest seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }
}

/// Every opcode with its source-operand count.
const OPCODES: [(&str, usize); 22] = [
    ("MOV", 1),
    ("ADD", 2),
    ("SUB", 2),
    ("MUL", 2),
    ("MAD", 3),
    ("DP3", 2),
    ("DP4", 2),
    ("FRC", 1),
    ("FLR", 1),
    ("RCP", 1),
    ("RSQ", 1),
    ("MIN", 2),
    ("MAX", 2),
    ("CMP", 3),
    ("SLT", 2),
    ("SGE", 2),
    ("ABS", 1),
    ("EX2", 1),
    ("LG2", 1),
    ("POW", 2),
    ("TEX", 1),
    ("KIL", 1),
];

/// Special literal and texel values: signed zeros, exact halves, texel
/// coordinates inside and outside the textures, huge and non-finite
/// values.
const SPECIAL: [f32; 20] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -2.5,
    3.0,
    0.1,
    0.001,
    -7.75,
    2.0,
    4.5,
    150.5,
    -150.5,
    1024.0,
    1e30,
    -1e30,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
];

const COMPONENTS: [char; 4] = ['x', 'y', 'z', 'w'];

/// Texture units 0–2 hold R, RG and RGBA textures; unit 3 is unbound.
const UNITS: usize = 4;

/// A special value half the time, otherwise a full-mantissa float in
/// ±1000, where any reordering of f32 operations shows up in the bits.
fn value(rng: &mut Rng) -> f32 {
    if rng.below(2) == 0 {
        rng.pick(&SPECIAL)
    } else {
        (rng.next() >> 40) as f32 / (1u64 << 24) as f32 * 2000.0 - 1000.0
    }
}

/// Finite, sign-clear values: +0, subnormals, 24-bit integers up to
/// 2^24 − 1, fractions and large finite magnitudes.
const PLAIN: [f32; 10] = [
    0.0,
    1.0,
    0.5,
    16_777_215.0,
    8_388_607.5,
    1e30,
    f32::MAX,
    f32::MIN_POSITIVE,
    1.0e-40,
    1.0e-45,
];

/// Values that make a texture impure.
const BAD: [f32; 5] = [-0.0, -1.5, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

fn plain_value(rng: &mut Rng) -> f32 {
    match rng.below(3) {
        0 => rng.pick(&PLAIN),
        1 => (rng.next() & 0x00ff_ffff) as f32,
        _ => (rng.next() >> 40) as f32 / (1u64 << 24) as f32 * 1000.0,
    }
}

/// A constant vector: arbitrary values, or one-hot, all-zero, or made of
/// ±1 and ±0 entries, which the kernel's folds look for.
fn vector(rng: &mut Rng) -> [f32; 4] {
    match rng.below(4) {
        0 => [value(rng), value(rng), value(rng), value(rng)],
        1 => {
            let mut v = [0.0; 4];
            v[rng.below(4)] = 1.0;
            v
        }
        2 => [0.0; 4],
        _ => std::array::from_fn(|_| rng.pick(&[1.0, -1.0, 0.0, -0.0])),
    }
}

/// `{:?}` prints the shortest text that parses back to the same f32
/// (`NaN` and `inf` included).
fn literal_vector(rng: &mut Rng) -> String {
    let n = 1 + rng.below(4);
    let v = vector(rng);
    let parts: Vec<String> = v[..n].iter().map(|x| format!("{x:?}")).collect();
    format!("{{{}}}", parts.join(", "))
}

fn swizzle(rng: &mut Rng) -> String {
    match rng.below(3) {
        0 => String::new(),
        _ => {
            let n = 1 + rng.below(4);
            let comps: String = (0..n).map(|_| rng.pick(&COMPONENTS)).collect();
            format!(".{comps}")
        }
    }
}

fn src(rng: &mut Rng) -> String {
    let neg = if rng.below(4) == 0 { "-" } else { "" };
    let base = match rng.below(9) {
        0..=2 => format!("R{}", rng.below(6)),
        3 => format!("program.env[{}]", rng.below(4)),
        // Literals take no swizzle.
        4 => return format!("{neg}{}", literal_vector(rng)),
        5 | 6 => format!("fragment.texcoord[{}]", rng.below(4)),
        7 => "fragment.position".to_string(),
        _ => "fragment.color".to_string(),
    };
    format!("{neg}{base}{}", swizzle(rng))
}

fn write_mask(rng: &mut Rng) -> String {
    match rng.below(3) {
        0 => String::new(),
        _ => {
            let bits = 1 + rng.below(15);
            let comps: String = (0..4)
                .filter(|c| bits & (1 << c) != 0)
                .map(|c| COMPONENTS[c])
                .collect();
            format!(".{comps}")
        }
    }
}

fn dst(rng: &mut Rng) -> String {
    match rng.below(8) {
        0 | 1 => format!("result.color{}", write_mask(rng)),
        2 => "result.depth".to_string(),
        _ => format!("R{}{}", rng.below(6), write_mask(rng)),
    }
}

fn instruction(rng: &mut Rng, opcode: usize, dst: String) -> String {
    let (op, arity) = OPCODES[opcode];
    match op {
        "KIL" => format!("KIL {};", src(rng)),
        "TEX" => {
            // Half the fetches address the fragment's own texel; a quarter
            // read the pixel position negated or swizzled (which must not
            // take that path), the rest arbitrary, often out-of-range,
            // coordinates.
            let coord = match rng.below(8) {
                0 | 1 => format!("fragment.texcoord[{}]", rng.below(4)),
                2 | 3 => "fragment.position".to_string(),
                4 | 5 => {
                    let neg = if rng.below(2) == 0 { "-" } else { "" };
                    format!("{neg}fragment.position{}", swizzle(rng))
                }
                _ => src(rng),
            };
            format!("TEX {dst}, {coord}, texture[{}], 2D;", rng.below(UNITS))
        }
        _ => {
            let srcs: Vec<String> = (0..arity).map(|_| src(rng)).collect();
            format!("{op} {dst}, {};", srcs.join(", "))
        }
    }
}

/// A random program of 1–12 instructions that contains `focus`. Half the
/// time the focus result is also copied to `result.color` at the end, so
/// it reaches an output even when later instructions overwrite the color.
fn program_source(rng: &mut Rng, focus: usize) -> String {
    let len = 1 + rng.below(12);
    let at = rng.below(len);
    let kept = format!("R{}", 6 + rng.below(2));
    let keep = rng.below(2) == 0;
    let mut body: Vec<String> = (0..len)
        .map(|i| {
            if i == at {
                let d = if keep { kept.clone() } else { dst(rng) };
                instruction(rng, focus, d)
            } else {
                let (opcode, d) = (rng.below(OPCODES.len()), dst(rng));
                instruction(rng, opcode, d)
            }
        })
        .collect();
    if keep {
        body.push(format!("MOV result.color, {kept};"));
    }
    format!("!!ARBfp1.0\n{}\nEND", body.join("\n"))
}

/// A texture of arbitrary values, a plain texture, or a plain texture
/// with one bad texel channel, a third of the time each.
fn texture(rng: &mut Rng, width: usize, height: usize, format: TextureFormat) -> Texture {
    let len = width * height * format.channels();
    let kind = rng.below(3);
    let mut data: Vec<f32> = (0..len)
        .map(|_| {
            if kind == 0 {
                value(rng)
            } else {
                plain_value(rng)
            }
        })
        .collect();
    if kind == 2 {
        data[rng.below(len)] = rng.pick(&BAD);
    }
    let texture = Texture::from_data(width, height, format, data).unwrap();
    if kind > 0 {
        assert_eq!(texture.is_plain(), kind == 1);
    }
    texture
}

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Shade `width` fragments of row `y` from `x0` both ways and compare.
fn check_segment(
    src: &str,
    ctx: &FragmentContext<'_>,
    depth: f32,
    color: [f32; 4],
    x0: usize,
    y: usize,
    width: usize,
) -> Result<(), TestCaseError> {
    let program = assemble(src).unwrap();
    let kernel = SpanKernel::compile(&program, ctx, depth, color);
    let mut regs = kernel.registers();
    let mut x = x0;
    while x < x0 + width {
        let len = (x0 + width - x).min(SPAN);
        let out = kernel.shade(&mut regs, x, y);
        for lane in 0..len {
            let want = execute(
                &program,
                &FragmentInput::for_pixel(x + lane, y, depth, color),
                ctx,
            );
            let at = format!("pixel ({}, {y}) of\n{src}", x + lane);
            prop_assert_eq!(out.killed(lane), want.killed, "kill flag at {}", at);
            if want.killed {
                continue;
            }
            let got = out.color(lane);
            prop_assert!(
                (0..4).all(|c| same(got[c], want.color[c])),
                "color {:?} != {:?} at {}",
                got,
                want.color,
                at
            );
            let depth_matches = match (out.depth(lane), want.depth) {
                (Some(a), Some(b)) => same(a, b),
                (a, b) => a.is_none() && b.is_none(),
            };
            prop_assert!(
                depth_matches,
                "depth {:?} != {:?} at {}",
                out.depth(lane),
                want.depth,
                at
            );
        }
        x += len;
    }
    Ok(())
}

/// A program shaped like the builtins: a pixel fetch, then a dot
/// product, multiplication or addition of the texel and a constant
/// vector, then a short tail.
fn fold_program_source(rng: &mut Rng) -> String {
    let unit = rng.below(UNITS);
    let op = rng.pick(&["DP3", "DP4", "MUL", "ADD"]);
    let constant = match rng.below(2) {
        0 => format!("program.env[{}]", rng.below(4)),
        _ => literal_vector(rng),
    };
    let texel = format!("R0{}", swizzle(rng));
    let (a, b) = match rng.below(2) {
        0 => (texel, constant),
        _ => (constant, texel),
    };
    let mask = write_mask(rng);
    let tail = rng.pick(&[
        "",
        "MUL R1, R1, program.env[0];",
        "FRC R1, R1;",
        "ADD R1, R1, R0;",
        "DP4 R1, R1, program.env[1];",
        "MUL R1.x, R1.x, program.env[0].x; FRC R1.x, R1.x;",
    ]);
    let out = rng.pick(&[
        "MOV result.color, R1;",
        "MOV result.color.a, R1.x;",
        "MOV result.depth, R1.x;",
        "KIL -R1; MOV result.color, R1;",
    ]);
    format!(
        "!!ARBfp1.0\nTEX R0, fragment.texcoord[0], texture[{unit}], 2D;\n\
         {op} R1{mask}, {a}, {b};\n{tail}\n{out}\nEND"
    )
}

/// Shade a random row segment of `src` against random textures, program
/// environment, quad depth and color, both ways.
fn check_program(rng: &mut Rng, src: &str) -> Result<(), TestCaseError> {
    // Narrow textures, and ones a span fits inside.
    let widths = [rng.pick(&[5, 130]), rng.pick(&[7, 70]), rng.pick(&[3, 150])];
    let r = texture(rng, widths[0], 3, TextureFormat::R);
    let rg = texture(rng, widths[1], 2, TextureFormat::Rg);
    let rgba = texture(rng, widths[2], 4, TextureFormat::Rgba);
    let textures = [Some(&r), Some(&rg), Some(&rgba), None];
    let env: Vec<[f32; 4]> = (0..4).map(|_| vector(rng)).collect();
    let ctx = FragmentContext {
        textures: &textures,
        env: &env,
    };
    let depth = rng.pick(&[0.0, 0.25, 0.5, 1.0]);
    let color = [value(rng), value(rng), value(rng), value(rng)];
    // Exact span multiples, one past, one short, and partial rows that
    // start anywhere (mostly beyond the textures' right edges).
    let partial = 1 + rng.below(2 * SPAN + 10);
    let width = rng.pick(&[1, SPAN - 1, SPAN, SPAN + 1, partial]);
    let start = rng.below(200);
    let x0 = rng.pick(&[0, start]);
    let y = rng.below(8);
    check_segment(src, &ctx, depth, color, x0, y, width)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_kernel_matches_interpreter(focus in 0usize..22, seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let src = program_source(&mut rng, focus);
        check_program(&mut rng, &src)?;
    }

}

proptest! {
    // Cheap cases; many of them, so that each fold guard meets the rare
    // texel and constant pairs (a plain texel times -0.0, a bad texel in
    // a selected channel) on which a loosened guard changes the bits.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn folded_channel_selects_match_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let src = fold_program_source(&mut rng);
        check_program(&mut rng, &src)?;
    }
}
