//! Fragment program interpreter: the reference semantics.
//!
//! Draws do not run this interpreter; they run the span kernels of
//! [`super::compiled`], which must agree with it bit for bit. It executes
//! one [`FragmentProgram`] per fragment, exactly as the pixel
//! processing engines of the simulated GPU would — including the NV3x
//! quirk the paper leans on in §6.1: "Current GPUs implement branching by
//! evaluating both portions of the conditional statement", i.e. there is no
//! control flow at all, only straight-line execution, `CMP` selects, and
//! `KIL`.

use super::isa::{
    DstReg, FragmentProgram, Instruction, Opcode, SrcOperand, SrcReg, NUM_TEMPS, NUM_TEXCOORDS,
};
use crate::texture::{texel_coord, Texture};

/// Interpolated per-fragment inputs.
#[derive(Debug, Clone, Copy)]
pub struct FragmentInput {
    /// Window-space position `(x + 0.5, y + 0.5, depth, 1)`.
    pub position: [f32; 4],
    /// Texture coordinate sets. For the screen-aligned quads the database
    /// algorithms render, set 0 carries texel-space coordinates so that
    /// texels line up 1:1 with pixels (§3.3).
    pub texcoord: [[f32; 4]; NUM_TEXCOORDS],
    /// Interpolated primary color.
    pub color: [f32; 4],
}

impl FragmentInput {
    /// Input for a screen-aligned-quad fragment at pixel `(x, y)` with the
    /// given interpolated depth and flat color.
    pub fn for_pixel(x: usize, y: usize, depth: f32, color: [f32; 4]) -> FragmentInput {
        let px = x as f32 + 0.5;
        let py = y as f32 + 0.5;
        FragmentInput {
            position: [px, py, depth, 1.0],
            texcoord: [[px, py, 0.0, 1.0]; NUM_TEXCOORDS],
            color,
        }
    }
}

/// Resources visible to a program execution.
pub struct FragmentContext<'a> {
    /// Textures bound to the image units.
    pub textures: &'a [Option<&'a Texture>],
    /// `program.env[...]` parameter values.
    pub env: &'a [[f32; 4]],
}

/// Result of executing a fragment program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramOutput {
    /// The fragment's output color (defaults to the interpolated color when
    /// the program never writes `result.color`).
    pub color: [f32; 4],
    /// Replacement depth, if the program wrote `result.depth`.
    pub depth: Option<f32>,
    /// Whether a `KIL` discarded the fragment. When set, the other fields
    /// must be ignored.
    pub killed: bool,
}

/// Sample a texture with nearest-neighbor filtering and clamp-to-edge
/// addressing, in texel coordinates.
#[inline(always)]
fn sample(texture: &Texture, coord: [f32; 4]) -> [f32; 4] {
    texture.fetch(
        texel_coord(coord[0], texture.width()),
        texel_coord(coord[1], texture.height()),
    )
}

/// Execute `program` for a single fragment.
///
/// Panics are impossible for programs produced by the assembler (which
/// validates register indices); out-of-range indices in hand-built programs
/// are a logic error.
pub fn execute(
    program: &FragmentProgram,
    input: &FragmentInput,
    ctx: &FragmentContext<'_>,
) -> ProgramOutput {
    let mut temps = [[0.0f32; 4]; NUM_TEMPS];
    let mut out = ProgramOutput {
        color: input.color,
        depth: None,
        killed: false,
    };

    let read = |temps: &[[f32; 4]; NUM_TEMPS], src: &SrcOperand| -> [f32; 4] {
        let raw = match src.reg {
            SrcReg::Temp(i) => temps[i],
            SrcReg::Param(i) => ctx.env[i],
            SrcReg::Literal(i) => program.literals[i],
            SrcReg::TexCoord(i) => input.texcoord[i],
            SrcReg::Position => input.position,
            SrcReg::FragColor => input.color,
        };
        let mut v = src.swizzle.apply(raw);
        if src.negate {
            for c in &mut v {
                *c = -*c;
            }
        }
        v
    };

    for inst in &program.instructions {
        match inst {
            Instruction::Kil { src } => {
                let v = read(&temps, src);
                if v.iter().any(|&c| c < 0.0) {
                    out.killed = true;
                    return out;
                }
            }
            Instruction::Tex { dst, coord, unit } => {
                let c = read(&temps, coord);
                let texel = match ctx.textures.get(*unit).copied().flatten() {
                    Some(t) => sample(t, c),
                    // Sampling an unbound unit returns opaque black, as GL.
                    None => [0.0, 0.0, 0.0, 1.0],
                };
                write_dst(&mut temps, &mut out, dst, texel);
            }
            Instruction::Alu { op, dst, srcs } => {
                let a = srcs[0].as_ref().map(|s| read(&temps, s));
                let b = srcs[1].as_ref().map(|s| read(&temps, s));
                let c = srcs[2].as_ref().map(|s| read(&temps, s));
                let value = eval_alu(*op, a, b, c);
                write_dst(&mut temps, &mut out, dst, value);
            }
        }
    }
    out
}

#[inline(always)]
fn eval_alu(op: Opcode, a: Option<[f32; 4]>, b: Option<[f32; 4]>, c: Option<[f32; 4]>) -> [f32; 4] {
    let a = a.unwrap_or([0.0; 4]);
    match op {
        Opcode::Mov => a,
        Opcode::Add => zip(a, b, |x, y| x + y),
        Opcode::Sub => zip(a, b, |x, y| x - y),
        Opcode::Mul => zip(a, b, |x, y| x * y),
        Opcode::Mad => {
            let b = b.unwrap_or([0.0; 4]);
            let c = c.unwrap_or([0.0; 4]);
            [
                a[0] * b[0] + c[0],
                a[1] * b[1] + c[1],
                a[2] * b[2] + c[2],
                a[3] * b[3] + c[3],
            ]
        }
        Opcode::Dp3 => {
            let b = b.unwrap_or([0.0; 4]);
            let d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
            [d; 4]
        }
        Opcode::Dp4 => {
            let b = b.unwrap_or([0.0; 4]);
            let d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3];
            [d; 4]
        }
        Opcode::Frc => a.map(|x| x - x.floor()),
        Opcode::Flr => a.map(f32::floor),
        Opcode::Rcp => [1.0 / a[0]; 4],
        Opcode::Rsq => [1.0 / a[0].abs().sqrt(); 4],
        Opcode::Min => zip(a, b, f32::min),
        Opcode::Max => zip(a, b, f32::max),
        Opcode::Cmp => {
            let b = b.unwrap_or([0.0; 4]);
            let c = c.unwrap_or([0.0; 4]);
            [
                if a[0] < 0.0 { b[0] } else { c[0] },
                if a[1] < 0.0 { b[1] } else { c[1] },
                if a[2] < 0.0 { b[2] } else { c[2] },
                if a[3] < 0.0 { b[3] } else { c[3] },
            ]
        }
        Opcode::Slt => zip(a, b, |x, y| if x < y { 1.0 } else { 0.0 }),
        Opcode::Sge => zip(a, b, |x, y| if x >= y { 1.0 } else { 0.0 }),
        Opcode::Abs => a.map(f32::abs),
        Opcode::Ex2 => [a[0].exp2(); 4],
        Opcode::Lg2 => [a[0].abs().log2(); 4],
        Opcode::Pow => {
            let b = b.unwrap_or([0.0; 4]);
            [a[0].powf(b[0]); 4]
        }
        // Handled by the caller.
        Opcode::Tex | Opcode::Kil => unreachable!("non-ALU opcode in eval_alu"),
    }
}

#[inline(always)]
fn zip(a: [f32; 4], b: Option<[f32; 4]>, f: impl Fn(f32, f32) -> f32) -> [f32; 4] {
    let b = b.unwrap_or([0.0; 4]);
    [f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]
}

#[inline(always)]
fn write_dst(
    temps: &mut [[f32; 4]; NUM_TEMPS],
    out: &mut ProgramOutput,
    dst: &super::isa::DstOperand,
    value: [f32; 4],
) {
    match dst.reg {
        DstReg::Temp(i) => {
            for (c, v) in value.iter().enumerate() {
                if dst.mask.writes(c) {
                    temps[i][c] = *v;
                }
            }
        }
        DstReg::ResultColor => {
            for (c, v) in value.iter().enumerate() {
                if dst.mask.writes(c) {
                    out.color[c] = *v;
                }
            }
        }
        DstReg::ResultDepth => {
            // ARB_fragment_program exposes depth as the z channel of the
            // result; combined with broadcast swizzles (`MOV result.depth,
            // R0.x`) this yields the intended scalar.
            out.depth = Some(value[2]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parser::assemble;
    use crate::texture::{Texture, TextureFormat};

    fn run(src: &str, input: FragmentInput, textures: &[Option<&Texture>]) -> ProgramOutput {
        let prog = assemble(src).unwrap();
        let env = [[0.0f32; 4]; 32];
        let ctx = FragmentContext {
            textures,
            env: &env,
        };
        execute(&prog, &input, &ctx)
    }

    fn run_env(
        src: &str,
        input: FragmentInput,
        textures: &[Option<&Texture>],
        env: &[[f32; 4]],
    ) -> ProgramOutput {
        let prog = assemble(src).unwrap();
        let ctx = FragmentContext { textures, env };
        execute(&prog, &input, &ctx)
    }

    fn default_input() -> FragmentInput {
        FragmentInput::for_pixel(0, 0, 0.5, [0.0, 0.0, 0.0, 1.0])
    }

    #[test]
    fn mov_literal_to_color() {
        let out = run(
            "MOV result.color, {0.25, 0.5, 0.75, 1.0};",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [0.25, 0.5, 0.75, 1.0]);
        assert!(!out.killed);
        assert_eq!(out.depth, None);
    }

    #[test]
    fn arithmetic_chain() {
        // (2 * 3) + 4 = 10 via MAD
        let out = run(
            "MAD R0, {2.0}, {3.0}, {4.0}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [10.0; 4]);
    }

    #[test]
    fn dp4_broadcasts() {
        let out = run(
            "DP4 R0, {1.0, 2.0, 3.0, 4.0}, {4.0, 3.0, 2.0, 1.0}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [20.0; 4]);
    }

    #[test]
    fn dp3_ignores_w() {
        let out = run(
            "DP3 R0, {1.0, 2.0, 3.0, 100.0}, {1.0, 1.0, 1.0, 100.0}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [6.0; 4]);
    }

    #[test]
    fn frc_extracts_fraction() {
        let out = run(
            "FRC R0, {1.75, -0.25, 3.0, 0.5}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [0.75, 0.75, 0.0, 0.5]);
    }

    #[test]
    fn cmp_selects_on_sign() {
        let out = run(
            "CMP R0, {-1.0, 0.0, 1.0, -0.5}, {10.0}, {20.0}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [10.0, 20.0, 20.0, 10.0]);
    }

    #[test]
    fn slt_sge() {
        let out = run(
            "SLT R0, {1.0, 2.0, 2.0, 3.0}, {2.0}; SGE R1, {1.0, 2.0, 2.0, 3.0}, {2.0}; ADD R2, R0, R1; MOV result.color, R2;",
            default_input(),
            &[],
        );
        // SLT + SGE partition: always exactly 1.
        assert_eq!(out.color, [1.0; 4]);
    }

    #[test]
    fn scalar_ops_broadcast() {
        let out = run(
            "RCP R0, {4.0, 9.0, 9.0, 9.0}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [0.25; 4]);
        let out = run("RSQ R0, {4.0}; MOV result.color, R0;", default_input(), &[]);
        assert_eq!(out.color, [0.5; 4]);
        let out = run("EX2 R0, {3.0}; MOV result.color, R0;", default_input(), &[]);
        assert_eq!(out.color, [8.0; 4]);
        let out = run("LG2 R0, {8.0}; MOV result.color, R0;", default_input(), &[]);
        assert_eq!(out.color, [3.0; 4]);
        let out = run(
            "POW R0, {2.0}, {10.0}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [1024.0; 4]);
    }

    #[test]
    fn min_max_abs_flr() {
        let out = run(
            "MIN R0, {1.0, 5.0, 3.0, 3.0}, {2.0}; MAX R1, R0, {1.5}; ABS R2, -R1; FLR R3, {1.9}; ADD R0, R2, R3; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [1.5 + 1.0, 2.0 + 1.0, 2.0 + 1.0, 2.0 + 1.0]);
    }

    #[test]
    fn kil_on_negative_component() {
        let out = run(
            "KIL {1.0, 1.0, -0.001, 1.0}; MOV result.color, {1.0};",
            default_input(),
            &[],
        );
        assert!(out.killed);
        let out = run(
            "KIL {0.0, 0.0, 0.0, 0.0}; MOV result.color, {1.0};",
            default_input(),
            &[],
        );
        assert!(!out.killed, "zero is not negative: fragment survives");
        assert_eq!(out.color, [1.0; 4]);
    }

    #[test]
    fn kil_negated_source() {
        // KIL -R0.x kills when R0.x > 0
        let out = run(
            "MOV R0, {0.5}; KIL -R0.x; MOV result.color, {1.0};",
            default_input(),
            &[],
        );
        assert!(out.killed);
    }

    #[test]
    fn tex_samples_bound_texture() {
        let tex = Texture::from_data(
            2,
            2,
            TextureFormat::Rgba,
            (0..16).map(|i| i as f32).collect(),
        )
        .unwrap();
        let input = FragmentInput::for_pixel(1, 1, 0.0, [0.0; 4]);
        let out = run(
            "TEX R0, fragment.texcoord[0], texture[0], 2D; MOV result.color, R0;",
            input,
            &[Some(&tex)],
        );
        assert_eq!(out.color, [12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn tex_unbound_unit_returns_black() {
        let out = run(
            "TEX R0, fragment.texcoord[0], texture[0], 2D; MOV result.color, R0;",
            default_input(),
            &[None],
        );
        assert_eq!(out.color, [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn tex_clamps_to_edge() {
        let tex = Texture::from_data(2, 1, TextureFormat::R, vec![5.0, 7.0]).unwrap();
        let mut input = default_input();
        input.texcoord[0] = [100.0, -3.0, 0.0, 0.0];
        let out = run(
            "TEX R0, fragment.texcoord[0], texture[0], 2D; MOV result.color, R0;",
            input,
            &[Some(&tex)],
        );
        assert_eq!(out.color[0], 7.0);
    }

    #[test]
    fn result_depth_takes_z_channel() {
        // Broadcast swizzle: all channels = R0.x, so z == R0.x.
        let out = run(
            "MOV R0, {0.25, 0.5, 0.75, 1.0}; MOV result.depth, R0.x;",
            default_input(),
            &[],
        );
        assert_eq!(out.depth, Some(0.25));
        // Without broadcast, the z channel is what lands in depth.
        let out = run(
            "MOV result.depth, {0.1, 0.2, 0.3, 0.4};",
            default_input(),
            &[],
        );
        assert_eq!(out.depth, Some(0.3));
    }

    #[test]
    fn write_mask_partial_update() {
        let out = run(
            "MOV R0, {9.0}; MOV R0.yw, {1.0}; MOV result.color, R0;",
            default_input(),
            &[],
        );
        assert_eq!(out.color, [9.0, 1.0, 9.0, 1.0]);
    }

    #[test]
    fn env_parameters_read() {
        let mut env = [[0.0f32; 4]; 32];
        env[3] = [7.0, 8.0, 9.0, 10.0];
        let out = run_env(
            "MOV result.color, program.env[3];",
            default_input(),
            &[],
            &env,
        );
        assert_eq!(out.color, [7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn kil_short_circuits_execution() {
        // Instructions after a taken KIL must not affect output.
        let out = run("KIL {-1.0}; MOV result.depth, {0.5};", default_input(), &[]);
        assert!(out.killed);
        assert_eq!(out.depth, None);
    }

    #[test]
    fn default_color_is_interpolated_color() {
        let input = FragmentInput::for_pixel(0, 0, 0.0, [0.3, 0.4, 0.5, 0.6]);
        let out = run("MOV R0, {1.0};", input, &[]);
        assert_eq!(out.color, [0.3, 0.4, 0.5, 0.6]);
    }

    #[test]
    fn paper_testbit_program_semantics() {
        // TestBit (Routine 4.6): alpha = frac(v / 2^(i+1)); bit i set iff
        // alpha >= 0.5. Check against direct bit arithmetic for a spread of
        // values and bit positions.
        let mut env = [[0.0f32; 4]; 32];
        for value in [0u32, 1, 2, 3, 0b1010, 12345, (1 << 24) - 1] {
            for bit in 0..24u32 {
                env[0] = [1.0 / 2f32.powi(bit as i32 + 1), 0.0, 0.0, 0.0];
                let tex = Texture::from_data(1, 1, TextureFormat::R, vec![value as f32]).unwrap();
                let out = run_env(
                    "TEX R0, fragment.texcoord[0], texture[0], 2D;
                     MUL R1.x, R0.x, program.env[0].x;
                     FRC R1.x, R1.x;
                     MOV result.color.a, R1.x;",
                    default_input(),
                    &[Some(&tex)],
                    &env,
                );
                let expected = (value >> bit) & 1 == 1;
                assert_eq!(
                    out.color[3] >= 0.5,
                    expected,
                    "value {value} bit {bit} alpha {}",
                    out.color[3]
                );
            }
        }
    }
}
