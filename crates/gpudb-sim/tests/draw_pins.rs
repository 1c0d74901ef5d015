//! Draw-level pins: framebuffer bytes and `DrawCost` of the paper's
//! program and fixed-function passes, recorded once and compared exactly.
//!
//! Every case runs one or more draws on a fresh device and reduces the
//! resulting color, depth and stencil buffers to an FNV-1a digest, next to
//! the exact `DrawCost` fields (`modeled_seconds` by its bit pattern). The
//! program table was recorded from the per-fragment interpreter that
//! shaded every draw before fragment programs were compiled into span
//! kernels; the fixed-function table from the per-fragment test sequence
//! that ran before the tests were batched a row span at a time. Any change
//! in how the host executes a draw that moves a single bit of output or
//! accounting fails here.
//!
//! To regenerate after an intended change, run the test and copy the
//! `actual` table it prints on mismatch.

use gpudb_sim::program::builtin;
use gpudb_sim::state::{ColorMask, ScissorState};
use gpudb_sim::{
    CompareFunc, DrawCost, Gpu, HardwareProfile, Rect, StencilOp, Texture, TextureFormat,
};

/// Texture width of the small cases: two full 64-fragment spans and a
/// partial one per row.
const W: usize = 150;
/// Records in the small cases: 36 full rows plus a partial 77-record row.
const N: usize = W * 36 + 77;
/// Framebuffer of the small cases, wider and taller than the texture.
const FB_W: usize = 160;
const FB_H: usize = 40;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fb_digest(gpu: &mut Gpu) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for px in gpu.read_color_buffer().unwrap() {
        for c in px {
            fnv(&mut h, &c.to_bits().to_le_bytes());
        }
    }
    for d in gpu.read_depth_buffer_raw().unwrap() {
        fnv(&mut h, &d.to_le_bytes());
    }
    fnv(&mut h, &gpu.read_stencil_buffer().unwrap());
    h
}

fn cost_line(c: &DrawCost) -> String {
    format!(
        "{} {} {} {} {} {:016x}",
        c.fragments,
        c.shaded,
        c.early_rejected,
        c.passed,
        c.instructions,
        c.modeled_seconds.to_bits()
    )
}

/// Deterministic 64-bit LCG, so the pins do not depend on any RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as u32
    }
}

/// 24-bit integer attribute values, as the database layer stores them.
fn int_texture(w: usize, h: usize, format: TextureFormat, seed: u64) -> Texture {
    let mut rng = Lcg(seed);
    let data = (0..w * h * format.channels())
        .map(|_| (rng.next() & 0x00ff_ffff) as f32)
        .collect();
    Texture::from_data(w, h, format, data).unwrap()
}

/// Mixed-sign quarter-step values for the semi-linear dot product: coarse
/// enough that `dot(s, a) == b` has ties.
fn real_texture(w: usize, h: usize, seed: u64) -> Texture {
    let mut rng = Lcg(seed);
    let data = (0..w * h * 4)
        .map(|_| (rng.next() % 41) as f32 * 0.25 - 5.0)
        .collect();
    Texture::from_data(w, h, TextureFormat::Rgba, data).unwrap()
}

/// A stencil "selection" of roughly every third pixel, built with a
/// fixed-function pass per selected row segment.
fn select_stripes(gpu: &mut Gpu) {
    let rects: Vec<Rect> = (0..FB_H)
        .map(|y| Rect::new((y * 7) % 50, y, 40 + y % 30, 1))
        .collect();
    select_rects(gpu, &rects);
}

/// Set stencil 1 on `rects` and 0 everywhere else.
fn select_rects(gpu: &mut Gpu, rects: &[Rect]) {
    gpu.clear_stencil(0);
    gpu.set_stencil_func(true, CompareFunc::Always, 1, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    gpu.draw_quad(rects, 0.0).unwrap();
    gpu.reset_state();
}

fn device_with(texture: Texture) -> Gpu {
    let mut gpu = Gpu::geforce_fx_5900(FB_W, FB_H);
    let id = gpu.create_texture(texture).unwrap();
    gpu.bind_texture(0, Some(id)).unwrap();
    gpu
}

/// One table line per draw: its cost and the framebuffer digest after it.
fn record(out: &mut Vec<String>, name: String, gpu: &mut Gpu, cost: &DrawCost) {
    let digest = fb_digest(gpu);
    out.push(format!("{name} {} fb {digest:016x}", cost_line(cost)));
}

/// `TestBit` at every bit, with and without a stencil selection. The color
/// mask is open so the shaded alpha (the bit's fraction) lands in the
/// color buffer and is pinned bit for bit.
fn test_bit_cases(out: &mut Vec<String>) {
    for (format, seed) in [
        (TextureFormat::R, 11),
        (TextureFormat::Rg, 12),
        (TextureFormat::Rgba, 14),
    ] {
        for selected in [false, true] {
            let mut gpu = device_with(int_texture(W, 37, format, seed));
            if selected {
                select_stripes(&mut gpu);
            }
            gpu.bind_program(Some(builtin::test_bit()));
            let channel = format.channels() - 1;
            gpu.set_program_env(builtin::ENV_CHANNEL, builtin::channel_selector(channel))
                .unwrap();
            gpu.set_depth_test(false, CompareFunc::Always);
            gpu.set_depth_write(false);
            gpu.set_alpha_test(true, CompareFunc::GreaterEqual, 0.5);
            if selected {
                gpu.set_stencil_func(true, CompareFunc::Equal, 1, 0xFF);
                gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
            }
            let name = format!("testbit/{}ch/sel={selected}", format.channels());
            for bit in 0..24 {
                gpu.set_program_env(builtin::ENV_SCALE, [0.5f32.powi(bit + 1), 0.0, 0.0, 0.0])
                    .unwrap();
                let cost = gpu.draw_quad(&Rect::covering_prefix(N, W), 0.0).unwrap();
                record(out, format!("{name}/bit{bit}"), &mut gpu, &cost);
            }
        }
    }
}

/// CopyToDepth on every channel count, over a partial last row.
fn copy_to_depth_cases(out: &mut Vec<String>) {
    for (format, seed) in [
        (TextureFormat::R, 21),
        (TextureFormat::Rg, 22),
        (TextureFormat::Rgba, 24),
    ] {
        let mut gpu = device_with(int_texture(W, 37, format, seed));
        gpu.bind_program(Some(builtin::copy_to_depth()));
        gpu.set_program_env(
            builtin::ENV_SCALE,
            [1.0 / gpudb_sim::buffers::DEPTH_SCALE as f32, 0.0, 0.0, 0.0],
        )
        .unwrap();
        gpu.set_program_env(
            builtin::ENV_CHANNEL,
            builtin::channel_selector(format.channels() - 1),
        )
        .unwrap();
        gpu.set_color_mask(ColorMask::NONE);
        gpu.set_depth_test(false, CompareFunc::Always);
        gpu.set_depth_write(true);
        let cost = gpu.draw_quad(&Rect::covering_prefix(N, W), 0.0).unwrap();
        let name = format!("copytodepth/{}ch", format.channels());
        record(out, name, &mut gpu, &cost);
    }
}

/// SemilinearFP under all 8 compare funcs, with and without a stencil
/// selection and a scissor. The scissored draws cover the whole (wider)
/// framebuffer, so they also sample past the texture's right edge.
fn semilinear_cases(out: &mut Vec<String>) {
    for func in ALL_FUNCS {
        for selected in [false, true] {
            for scissored in [false, true] {
                let mut gpu = device_with(real_texture(W, 37, 31));
                if selected {
                    select_stripes(&mut gpu);
                }
                gpu.bind_program(Some(builtin::semilinear(func)));
                gpu.set_program_env(builtin::ENV_COEFF, [0.5, -1.0, 2.0, 0.75])
                    .unwrap();
                // Integer-valued constant: `Equal` and `NotEqual` see ties.
                gpu.set_program_env(builtin::ENV_CONST, [3.0; 4]).unwrap();
                gpu.set_depth_test(false, CompareFunc::Always);
                gpu.set_depth_write(false);
                if selected {
                    gpu.set_stencil_func(true, CompareFunc::Equal, 1, 0xFF);
                    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Zero, StencilOp::Incr);
                }
                let cost = if scissored {
                    gpu.set_scissor(ScissorState {
                        enabled: true,
                        x: 9,
                        y: 3,
                        width: 145,
                        height: 30,
                    });
                    gpu.draw_full_quad(0.0).unwrap()
                } else {
                    gpu.draw_quad(&Rect::covering_prefix(N, W), 0.0).unwrap()
                };
                let name = format!("semilinear/{func:?}/sel={selected}/scissor={scissored}");
                record(out, name, &mut gpu, &cost);
            }
        }
    }
}

/// A program draw on the early-z path, large enough to be split into
/// parallel row bands: a depth buffer of attribute values rejects about
/// half the fragments before shading.
fn early_z_case(out: &mut Vec<String>) {
    let (w, h) = (256, 170);
    let mut gpu = Gpu::geforce_fx_5900(w, h);
    let id = gpu
        .create_texture(int_texture(w, h, TextureFormat::Rgba, 41))
        .unwrap();
    gpu.bind_texture(0, Some(id)).unwrap();
    gpu.bind_program(Some(builtin::copy_to_depth()));
    gpu.set_program_env(
        builtin::ENV_SCALE,
        [1.0 / gpudb_sim::buffers::DEPTH_SCALE as f32, 0.0, 0.0, 0.0],
    )
    .unwrap();
    gpu.set_program_env(builtin::ENV_CHANNEL, builtin::channel_selector(2))
        .unwrap();
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(true);
    let copy = gpu.draw_full_quad(0.0).unwrap();
    record(out, "earlyz/copy".to_string(), &mut gpu, &copy);

    gpu.reset_state();
    gpu.set_draw_color([0.25, 0.5, 0.75, 1.0]);
    gpu.bind_program_source(
        "!!ARBfp1.0
         TEX R0, fragment.texcoord[0], texture[0], 2D;
         MUL R1, R0, program.env[0];
         ADD R1.xz, R1, fragment.color;
         MOV result.color, R1;
         END",
    )
    .unwrap();
    gpu.set_program_env(0, [0.5, 0.25, 2.0, 1.0]).unwrap();
    gpu.set_depth_test(true, CompareFunc::Less);
    gpu.set_depth_write(false);
    let shade = gpu.draw_full_quad(0.5).unwrap();
    record(out, "earlyz/less".to_string(), &mut gpu, &shade);
}

/// Width of the wide cases: as wide as the paper's 1000×1000 textures,
/// so a row's spans lie inside the texture except the last, which crosses
/// its right edge.
const WIDE: usize = 1000;

/// An RGBA texture of 24-bit integers in `channel` in which every
/// `neg_zero_every`-th texel holds −0.0 instead. With `hostile`, every
/// other channel holds signed zeros, NaN, infinities, negatives and huge
/// magnitudes; without it, 24-bit integers.
fn channel_texture(
    w: usize,
    h: usize,
    channel: usize,
    neg_zero_every: usize,
    hostile: bool,
    seed: u64,
) -> Texture {
    const HOSTILE: [f32; 8] = [
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -1.0,
        -3.5e7,
        1e30,
        0.0,
    ];
    let mut rng = Lcg(seed);
    let mut data = Vec::with_capacity(w * h * 4);
    for texel in 0..w * h {
        for c in 0..4 {
            let r = rng.next();
            data.push(if c != channel && hostile {
                HOSTILE[r as usize % HOSTILE.len()]
            } else if c == channel && neg_zero_every > 0 && texel % neg_zero_every == 0 {
                -0.0
            } else {
                (r & 0x00ff_ffff) as f32
            });
        }
    }
    Texture::from_data(w, h, TextureFormat::Rgba, data).unwrap()
}

/// `TestBit` at a few bits and `CopyToDepth`, with and without a stencil
/// selection, on one device: the color mask is open and depth writes are
/// on, so every draw's alpha and depth land in the pinned buffers.
fn channel_select_draws(
    out: &mut Vec<String>,
    name: &str,
    gpu: &mut Gpu,
    channel: usize,
    rects: &[Rect],
) {
    // Striped row segments across the whole width.
    let mut stripes = Vec::new();
    for y in 0..gpu.height() {
        for k in 0..gpu.width() / 90 {
            stripes.push(Rect::new(k * 90 + (y * 7) % 50, y, 30 + y % 10, 1));
        }
    }
    for selected in [false, true] {
        gpu.reset_state();
        if selected {
            select_rects(gpu, &stripes);
            gpu.set_stencil_func(true, CompareFunc::Equal, 1, 0xFF);
            gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
        }
        gpu.bind_program(Some(builtin::test_bit()));
        gpu.set_program_env(builtin::ENV_CHANNEL, builtin::channel_selector(channel))
            .unwrap();
        gpu.set_depth_test(false, CompareFunc::Always);
        gpu.set_depth_write(false);
        gpu.set_alpha_test(true, CompareFunc::GreaterEqual, 0.5);
        for bit in [0, 1, 7, 16, 23] {
            gpu.set_program_env(builtin::ENV_SCALE, [0.5f32.powi(bit + 1), 0.0, 0.0, 0.0])
                .unwrap();
            let cost = gpu.draw_quad(rects, 0.0).unwrap();
            record(
                out,
                format!("{name}/testbit/sel={selected}/bit{bit}"),
                gpu,
                &cost,
            );
        }
        gpu.bind_program(Some(builtin::copy_to_depth()));
        gpu.set_program_env(
            builtin::ENV_SCALE,
            [1.0 / gpudb_sim::buffers::DEPTH_SCALE as f32, 0.0, 0.0, 0.0],
        )
        .unwrap();
        gpu.set_alpha_test(false, CompareFunc::Always, 0.0);
        gpu.set_depth_write(true);
        let cost = gpu.draw_quad(rects, 0.0).unwrap();
        record(
            out,
            format!("{name}/copytodepth/sel={selected}"),
            gpu,
            &cost,
        );
    }
}

/// The channel-select builtins on RGBA textures whose unselected channels
/// hold −0.0, NaN, ±inf and negatives, on one whose selected channel holds
/// −0.0 texels, and on all-integer textures. The wide cases cover rows of
/// spans that lie inside the texture and spans that cross its right edge,
/// on a framebuffer as wide as the texture and on one wider than it.
fn hostile_channel_cases(out: &mut Vec<String>) {
    for channel in [0, 2, 3] {
        let texture = channel_texture(W, 37, channel, 0, true, 70 + channel as u64);
        let name = format!("hostile/ch{channel}");
        let rects = Rect::covering_prefix(N, W);
        channel_select_draws(out, &name, &mut device_with(texture), channel, &rects);
    }
    let wide_rects = [
        Rect::new(0, 0, WIDE, 9),
        Rect::new(3, 9, 990, 2),
        Rect::new(937, 11, 63, 3),
        Rect::new(0, 14, 517, 1),
    ];
    let cases = [
        ("wide/hostile", WIDE, 7, true),
        ("wider/hostile", WIDE + 24, 7, true),
        ("wide/negzero", WIDE, 7, false),
        ("wide/int", WIDE, 0, false),
        ("wider/int", WIDE + 24, 0, false),
    ];
    for (seed, (label, fb_w, neg_zero_every, hostile)) in (81..).zip(cases) {
        let texture = channel_texture(WIDE, 15, 1, neg_zero_every, hostile, seed);
        let mut gpu = Gpu::geforce_fx_5900(fb_w, 16);
        let id = gpu.create_texture(texture).unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        let mut rects = wide_rects.to_vec();
        if fb_w > WIDE {
            rects.push(Rect::new(WIDE - 40, 15, 64, 1));
        }
        channel_select_draws(out, label, &mut gpu, 1, &rects);
    }
}

const ALL_FUNCS: [CompareFunc; 8] = [
    CompareFunc::Never,
    CompareFunc::Less,
    CompareFunc::Equal,
    CompareFunc::LessEqual,
    CompareFunc::Greater,
    CompareFunc::NotEqual,
    CompareFunc::GreaterEqual,
    CompareFunc::Always,
];

/// A fixed-function device with a seeded attribute in the depth buffer,
/// seeded stencil bits and a non-black color buffer. The depth copy is a
/// program draw (pinned above); the stencil bits come from fixed-function
/// draws over seeded row segments, one write-masked `Invert` per bit.
fn fixed_device(w: usize, h: usize, seed: u64) -> Gpu {
    let mut gpu = Gpu::new(HardwareProfile::geforce_fx_5900_with_depth_mask(), w, h);
    let id = gpu
        .create_texture(int_texture(w, h, TextureFormat::R, seed))
        .unwrap();
    gpu.bind_texture(0, Some(id)).unwrap();
    gpu.bind_program(Some(builtin::copy_to_depth()));
    gpu.set_program_env(
        builtin::ENV_SCALE,
        [1.0 / gpudb_sim::buffers::DEPTH_SCALE as f32, 0.0, 0.0, 0.0],
    )
    .unwrap();
    gpu.set_program_env(builtin::ENV_CHANNEL, builtin::channel_selector(0))
        .unwrap();
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(true);
    gpu.draw_full_quad(0.0).unwrap();
    gpu.reset_state();
    gpu.bind_program(None);

    let mut rng = Lcg(seed ^ 0x5eed);
    gpu.clear_color([0.125, 0.25, 0.375, 0.5]);
    gpu.clear_stencil(0);
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_write(false);
    gpu.set_stencil_func(true, CompareFunc::Always, 0, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Invert);
    for bit in 0..8 {
        gpu.set_stencil_write_mask(1 << bit);
        let rects: Vec<Rect> = (0..h)
            .map(|y| {
                let x = rng.next() as usize % w;
                Rect::new(x, y, rng.next() as usize % (w - x + 1), 1)
            })
            .collect();
        gpu.draw_quad(&rects, 0.0).unwrap();
    }
    gpu.reset_state();
    gpu
}

/// Fixed-function draws: every stencil func under three op triples with
/// partial value/write masks; depth bounds; every depth func under a
/// non-default compare mask with depth writes on and off, at quad depths
/// inside and outside [0, 1]; the alpha test on a flat color; a partial
/// color mask, a scissor and a partial last row. Each draw runs on the
/// framebuffer the previous one left, so stencil values keep evolving.
fn fixed_function_cases(out: &mut Vec<String>) {
    let mut gpu = fixed_device(FB_W, FB_H, 51);
    let prefix = Rect::covering_prefix(N, W);
    gpu.set_draw_color([0.75, 0.5, 0.25, 1.0]);
    gpu.set_color_mask(ColorMask {
        red: true,
        green: false,
        blue: true,
        alpha: false,
    });
    gpu.set_depth_test(true, CompareFunc::Less);
    gpu.set_depth_write(false);
    gpu.set_stencil_write_mask(0xF3);
    let triples = [
        (StencilOp::Keep, StencilOp::Invert, StencilOp::IncrWrap),
        (StencilOp::Invert, StencilOp::IncrWrap, StencilOp::Keep),
        (StencilOp::IncrWrap, StencilOp::Keep, StencilOp::Invert),
    ];
    for (t, (fail, zfail, zpass)) in triples.into_iter().enumerate() {
        gpu.set_stencil_op(fail, zfail, zpass);
        for func in ALL_FUNCS {
            gpu.set_stencil_func(true, func, 0x5A, 0x3C);
            let cost = gpu.draw_quad(&prefix, 0.5).unwrap();
            record(
                out,
                format!("fixed/stencil/{func:?}/ops{t}"),
                &mut gpu,
                &cost,
            );
        }
    }

    gpu.reset_state();
    gpu.set_draw_color([0.0, 1.0, 0.5, 0.75]);
    gpu.set_stencil_func(true, CompareFunc::NotEqual, 3, 0x0F);
    gpu.set_stencil_op(StencilOp::Zero, StencilOp::Incr, StencilOp::Replace);
    gpu.set_depth_bounds(true, 0.25, 0.75).unwrap();
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    let cost = gpu.draw_quad(&prefix, 0.5).unwrap();
    record(out, "fixed/bounds".to_string(), &mut gpu, &cost);

    // Depth funcs under a compare mask: read-only inside the depth bounds,
    // then writing on a fresh device per func, so each func sees the
    // seeded depths before its own writes reach them.
    gpu.set_stencil_func(false, CompareFunc::Always, 0, 0xFF);
    gpu.set_depth_compare_mask(0x00F0_F0F0).unwrap();
    for write in [false, true] {
        for (f, func) in ALL_FUNCS.into_iter().enumerate() {
            if write {
                gpu = fixed_device(FB_W, FB_H, 52 + f as u64);
                gpu.set_draw_color([0.0, 1.0, 0.5, 0.75]);
                gpu.set_depth_compare_mask(0x00F0_F0F0).unwrap();
            }
            gpu.set_depth_write(write);
            gpu.set_depth_test(true, func);
            for depth in [0.625f32, 0.375, 1.25, -0.25] {
                let cost = gpu.draw_quad(&prefix, depth).unwrap();
                let name = format!("fixed/mask/{func:?}/write={write}/d={depth}");
                record(out, name, &mut gpu, &cost);
            }
        }
    }

    gpu.reset_state();
    gpu.set_stencil_func(true, CompareFunc::Always, 0x81, 0xFF);
    gpu.set_stencil_op(StencilOp::Replace, StencilOp::Replace, StencilOp::Replace);
    gpu.set_alpha_test(true, CompareFunc::GreaterEqual, 0.5);
    for alpha in [0.25f32, 0.5] {
        gpu.set_draw_color([0.5, 0.5, 0.5, alpha]);
        let cost = gpu.draw_quad(&prefix, 0.5).unwrap();
        record(out, format!("fixed/alpha={alpha}"), &mut gpu, &cost);
    }

    gpu.reset_state();
    gpu.set_draw_color([1.0, 0.0, 0.75, 0.25]);
    gpu.set_color_mask(ColorMask {
        red: false,
        green: true,
        blue: false,
        alpha: true,
    });
    gpu.set_scissor(ScissorState {
        enabled: true,
        x: 70,
        y: 2,
        width: 83,
        height: 35,
    });
    gpu.set_depth_test(true, CompareFunc::GreaterEqual);
    gpu.set_depth_write(true);
    let cost = gpu.draw_quad(&prefix, 0.5).unwrap();
    record(out, "fixed/scissor".to_string(), &mut gpu, &cost);
}

/// Fixed-function draws large enough to fan out across raster bands: one
/// over the whole framebuffer, one over its top rows only (the way an
/// out-of-core chunk covers the front of a full-table framebuffer) and one
/// over a block of lower rows.
fn fixed_banded_cases(out: &mut Vec<String>) {
    let mut gpu = fixed_device(256, 170, 61);
    gpu.set_stencil_func(true, CompareFunc::LessEqual, 0x40, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::DecrWrap, StencilOp::Incr);
    gpu.set_depth_test(true, CompareFunc::Greater);
    gpu.set_depth_write(false);
    let cost = gpu.draw_full_quad(0.5).unwrap();
    record(out, "fixed/banded/full".to_string(), &mut gpu, &cost);

    gpu.set_depth_write(true);
    let rects = Rect::covering_prefix(256 * 130 + 5, 256);
    let cost = gpu.draw_quad(&rects, 0.25).unwrap();
    record(out, "fixed/banded/top".to_string(), &mut gpu, &cost);

    gpu.set_depth_test(true, CompareFunc::NotEqual);
    let cost = gpu.draw_quad(&[Rect::new(3, 25, 250, 140)], 0.75).unwrap();
    record(out, "fixed/banded/bottom".to_string(), &mut gpu, &cost);
}

const EXPECTED_FIXED: &str = "\
fixed/stencil/Never/ops0 5477 0 0 0 0 3ee8297fa1a594c6 fb d945ce19e4a809ae
fixed/stencil/Less/ops0 5477 0 0 894 0 3ee8297fa1a594c6 fb 542c2601969e050b
fixed/stencil/Equal/ops0 5477 0 0 96 0 3ee8297fa1a594c6 fb 7493635f581c17f4
fixed/stencil/LessEqual/ops0 5477 0 0 990 0 3ee8297fa1a594c6 fb f597aed8c9d4a538
fixed/stencil/Greater/ops0 5477 0 0 1790 0 3ee8297fa1a594c6 fb 22022ebe4fbd02c7
fixed/stencil/NotEqual/ops0 5477 0 0 2684 0 3ee8297fa1a594c6 fb 799b0e5006611f1b
fixed/stencil/GreaterEqual/ops0 5477 0 0 1849 0 3ee8297fa1a594c6 fb a39cab76b26c1912
fixed/stencil/Always/ops0 5477 0 0 2780 0 3ee8297fa1a594c6 fb 7238e47a442ccfbb
fixed/stencil/Never/ops1 5477 0 0 0 0 3ee8297fa1a594c6 fb 93ada02ee818fd04
fixed/stencil/Less/ops1 5477 0 0 1921 0 3ee8297fa1a594c6 fb cc044e608cbfbcc8
fixed/stencil/Equal/ops1 5477 0 0 0 0 3ee8297fa1a594c6 fb b690c22e093d3e0b
fixed/stencil/LessEqual/ops1 5477 0 0 318 0 3ee8297fa1a594c6 fb e0eb37f704de52a4
fixed/stencil/Greater/ops1 5477 0 0 0 0 3ee8297fa1a594c6 fb 5ce8dc16e3859727
fixed/stencil/NotEqual/ops1 5477 0 0 2780 0 3ee8297fa1a594c6 fb d8cacc3547740bf4
fixed/stencil/GreaterEqual/ops1 5477 0 0 2462 0 3ee8297fa1a594c6 fb bfb24a523db64775
fixed/stencil/Always/ops1 5477 0 0 2780 0 3ee8297fa1a594c6 fb a0415392e9f75a3a
fixed/stencil/Never/ops2 5477 0 0 0 0 3ee8297fa1a594c6 fb 98a609270411cbb1
fixed/stencil/Less/ops2 5477 0 0 121 0 3ee8297fa1a594c6 fb e2ee5740305cafe1
fixed/stencil/Equal/ops2 5477 0 0 205 0 3ee8297fa1a594c6 fb 4b1b98ab80e85597
fixed/stencil/LessEqual/ops2 5477 0 0 340 0 3ee8297fa1a594c6 fb 3b97a3749a2f0964
fixed/stencil/Greater/ops2 5477 0 0 2447 0 3ee8297fa1a594c6 fb b6c4eb22e75f35c6
fixed/stencil/NotEqual/ops2 5477 0 0 2575 0 3ee8297fa1a594c6 fb f0a96dc3f196a937
fixed/stencil/GreaterEqual/ops2 5477 0 0 2669 0 3ee8297fa1a594c6 fb 6b715970fc7d18f0
fixed/stencil/Always/ops2 5477 0 0 2780 0 3ee8297fa1a594c6 fb 9558d1b851efbaf2
fixed/bounds 5477 0 0 2448 0 3ee8297fa1a594c6 fb 09f5058a3724ed0f
fixed/mask/Never/write=false/d=0.625 5477 0 0 0 0 3ee8297fa1a594c6 fb 09f5058a3724ed0f
fixed/mask/Never/write=false/d=0.375 5477 0 0 0 0 3ee8297fa1a594c6 fb 09f5058a3724ed0f
fixed/mask/Never/write=false/d=1.25 5477 0 0 0 0 3ee8297fa1a594c6 fb 09f5058a3724ed0f
fixed/mask/Never/write=false/d=-0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb 09f5058a3724ed0f
fixed/mask/Less/write=false/d=0.625 5477 0 0 713 0 3ee8297fa1a594c6 fb 5df22a0ae1fdbfaf
fixed/mask/Less/write=false/d=0.375 5477 0 0 2046 0 3ee8297fa1a594c6 fb 926f26add543fe6f
fixed/mask/Less/write=false/d=1.25 5477 0 0 0 0 3ee8297fa1a594c6 fb 926f26add543fe6f
fixed/mask/Less/write=false/d=-0.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Equal/write=false/d=0.625 5477 0 0 1 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Equal/write=false/d=0.375 5477 0 0 4 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Equal/write=false/d=1.25 5477 0 0 0 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Equal/write=false/d=-0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/LessEqual/write=false/d=0.625 5477 0 0 714 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/LessEqual/write=false/d=0.375 5477 0 0 2050 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/LessEqual/write=false/d=1.25 5477 0 0 0 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/LessEqual/write=false/d=-0.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Greater/write=false/d=0.625 5477 0 0 1991 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Greater/write=false/d=0.375 5477 0 0 655 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Greater/write=false/d=1.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Greater/write=false/d=-0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/NotEqual/write=false/d=0.625 5477 0 0 2704 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/NotEqual/write=false/d=0.375 5477 0 0 2701 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/NotEqual/write=false/d=1.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/NotEqual/write=false/d=-0.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/GreaterEqual/write=false/d=0.625 5477 0 0 1992 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/GreaterEqual/write=false/d=0.375 5477 0 0 659 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/GreaterEqual/write=false/d=1.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/GreaterEqual/write=false/d=-0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Always/write=false/d=0.625 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Always/write=false/d=0.375 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Always/write=false/d=1.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Always/write=false/d=-0.25 5477 0 0 2705 0 3ee8297fa1a594c6 fb f8a758a55ed79715
fixed/mask/Never/write=true/d=0.625 5477 0 0 0 0 3ee8297fa1a594c6 fb b91cfb474a729da8
fixed/mask/Never/write=true/d=0.375 5477 0 0 0 0 3ee8297fa1a594c6 fb b91cfb474a729da8
fixed/mask/Never/write=true/d=1.25 5477 0 0 0 0 3ee8297fa1a594c6 fb b91cfb474a729da8
fixed/mask/Never/write=true/d=-0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb b91cfb474a729da8
fixed/mask/Less/write=true/d=0.625 5477 0 0 2048 0 3ee8297fa1a594c6 fb 92729e442b68af83
fixed/mask/Less/write=true/d=0.375 5477 0 0 3446 0 3ee8297fa1a594c6 fb e611b544f8dc8cdb
fixed/mask/Less/write=true/d=1.25 5477 0 0 0 0 3ee8297fa1a594c6 fb e611b544f8dc8cdb
fixed/mask/Less/write=true/d=-0.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb 03f0ce94db6a40a5
fixed/mask/Equal/write=true/d=0.625 5477 0 0 0 0 3ee8297fa1a594c6 fb bdabf5044d7854c7
fixed/mask/Equal/write=true/d=0.375 5477 0 0 2 0 3ee8297fa1a594c6 fb 769b97f41f0f71d8
fixed/mask/Equal/write=true/d=1.25 5477 0 0 1 0 3ee8297fa1a594c6 fb 9f91db8f79433ce9
fixed/mask/Equal/write=true/d=-0.25 5477 0 0 2 0 3ee8297fa1a594c6 fb 6280335ca3cad7e4
fixed/mask/LessEqual/write=true/d=0.625 5477 0 0 2137 0 3ee8297fa1a594c6 fb 3399122d34a66628
fixed/mask/LessEqual/write=true/d=0.375 5477 0 0 3438 0 3ee8297fa1a594c6 fb acb657ee65fa77d7
fixed/mask/LessEqual/write=true/d=1.25 5477 0 0 0 0 3ee8297fa1a594c6 fb acb657ee65fa77d7
fixed/mask/LessEqual/write=true/d=-0.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb 91e17145febbbe00
fixed/mask/Greater/write=true/d=0.625 5477 0 0 3468 0 3ee8297fa1a594c6 fb 90764c2127b8c553
fixed/mask/Greater/write=true/d=0.375 5477 0 0 0 0 3ee8297fa1a594c6 fb 90764c2127b8c553
fixed/mask/Greater/write=true/d=1.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb 12335f96715b1cf6
fixed/mask/Greater/write=true/d=-0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb 12335f96715b1cf6
fixed/mask/NotEqual/write=true/d=0.625 5477 0 0 5476 0 3ee8297fa1a594c6 fb 5356a80c2b7d7fb6
fixed/mask/NotEqual/write=true/d=0.375 5477 0 0 5477 0 3ee8297fa1a594c6 fb adf9acdbe56d400f
fixed/mask/NotEqual/write=true/d=1.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb a9a1c0fba4e0813e
fixed/mask/NotEqual/write=true/d=-0.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb b66bad93a68b0cef
fixed/mask/GreaterEqual/write=true/d=0.625 5477 0 0 3463 0 3ee8297fa1a594c6 fb d751f573f2c1d2c7
fixed/mask/GreaterEqual/write=true/d=0.375 5477 0 0 0 0 3ee8297fa1a594c6 fb d751f573f2c1d2c7
fixed/mask/GreaterEqual/write=true/d=1.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb e55ba534d2451c18
fixed/mask/GreaterEqual/write=true/d=-0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb e55ba534d2451c18
fixed/mask/Always/write=true/d=0.625 5477 0 0 5477 0 3ee8297fa1a594c6 fb f0db75f575582d93
fixed/mask/Always/write=true/d=0.375 5477 0 0 5477 0 3ee8297fa1a594c6 fb 0e8461d795acecd3
fixed/mask/Always/write=true/d=1.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb 7ab69f41462a38e6
fixed/mask/Always/write=true/d=-0.25 5477 0 0 5477 0 3ee8297fa1a594c6 fb 99150da3a43d0df3
fixed/alpha=0.25 5477 0 0 0 0 3ee8297fa1a594c6 fb 99150da3a43d0df3
fixed/alpha=0.5 5477 0 0 5477 0 3ee8297fa1a594c6 fb 67deef640eff9a99
fixed/scissor 2727 0 0 2727 0 3ee68f638abee050 fb f9d19c3ea0d2ab4f
fixed/banded/full 43520 0 0 9129 0 3ef72970e2d9073e fb ee6dd311623dcce2
fixed/banded/top 33285 0 0 3550 0 3ef42e4398946f47 fb 676593be0599a1e3
fixed/banded/bottom 35000 0 0 14459 0 3ef4ae24ca8aeb0a fb d82bbd3773573304
";

/// Compare a table of pin lines against its recording.
fn check_pins(expected: &str, actual: Vec<String>) {
    let actual = actual.join("\n") + "\n";
    if actual != expected {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
            .take(10)
            .collect();
        panic!(
            "draw pins moved ({} expected lines, {} actual); first differences:\n{}\n\
             actual table:\n{actual}",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn fixed_function_draws_match_recorded_pins() {
    let mut actual = Vec::new();
    fixed_function_cases(&mut actual);
    fixed_banded_cases(&mut actual);
    check_pins(EXPECTED_FIXED, actual);
}

const EXPECTED: &str = "\
testbit/1ch/sel=false/bit0 5477 5477 0 2695 27385 3ef40eb90eb837f9 fb f986be08864ea845
testbit/1ch/sel=false/bit1 5477 5477 0 2740 27385 3ef40eb90eb837f9 fb 626017b4a12691e5
testbit/1ch/sel=false/bit2 5477 5477 0 2725 27385 3ef40eb90eb837f9 fb 669d54a0018e2a85
testbit/1ch/sel=false/bit3 5477 5477 0 2720 27385 3ef40eb90eb837f9 fb 5240ce5993aee295
testbit/1ch/sel=false/bit4 5477 5477 0 2773 27385 3ef40eb90eb837f9 fb 64e292c2494b7f0d
testbit/1ch/sel=false/bit5 5477 5477 0 2750 27385 3ef40eb90eb837f9 fb 5cf4428607e353b1
testbit/1ch/sel=false/bit6 5477 5477 0 2695 27385 3ef40eb90eb837f9 fb 2e148b9e965e0395
testbit/1ch/sel=false/bit7 5477 5477 0 2765 27385 3ef40eb90eb837f9 fb e043b4b4e0900ca8
testbit/1ch/sel=false/bit8 5477 5477 0 2707 27385 3ef40eb90eb837f9 fb 91375a6b23c1b6a0
testbit/1ch/sel=false/bit9 5477 5477 0 2723 27385 3ef40eb90eb837f9 fb fb53bb674f059f88
testbit/1ch/sel=false/bit10 5477 5477 0 2781 27385 3ef40eb90eb837f9 fb 124f3523ae70802e
testbit/1ch/sel=false/bit11 5477 5477 0 2730 27385 3ef40eb90eb837f9 fb 4e23b9e56be26eb8
testbit/1ch/sel=false/bit12 5477 5477 0 2778 27385 3ef40eb90eb837f9 fb 34b58b0977e8ec67
testbit/1ch/sel=false/bit13 5477 5477 0 2751 27385 3ef40eb90eb837f9 fb 5060502fe7de85e7
testbit/1ch/sel=false/bit14 5477 5477 0 2759 27385 3ef40eb90eb837f9 fb 315148cc0367615e
testbit/1ch/sel=false/bit15 5477 5477 0 2778 27385 3ef40eb90eb837f9 fb f8f1389d9d652822
testbit/1ch/sel=false/bit16 5477 5477 0 2764 27385 3ef40eb90eb837f9 fb 27fa46c6df481418
testbit/1ch/sel=false/bit17 5477 5477 0 2746 27385 3ef40eb90eb837f9 fb 72f5b414e615ccbb
testbit/1ch/sel=false/bit18 5477 5477 0 2728 27385 3ef40eb90eb837f9 fb bed66c1714f4e0fa
testbit/1ch/sel=false/bit19 5477 5477 0 2716 27385 3ef40eb90eb837f9 fb b6838069c7034ee1
testbit/1ch/sel=false/bit20 5477 5477 0 2710 27385 3ef40eb90eb837f9 fb 69c70eaf23d2e5cc
testbit/1ch/sel=false/bit21 5477 5477 0 2740 27385 3ef40eb90eb837f9 fb 9fe22722fd04cf7f
testbit/1ch/sel=false/bit22 5477 5477 0 2837 27385 3ef40eb90eb837f9 fb b8e753d544295fd8
testbit/1ch/sel=false/bit23 5477 5477 0 2667 27385 3ef40eb90eb837f9 fb cb97594cd7abc119
testbit/1ch/sel=true/bit0 5477 5477 0 917 27385 3ef40eb90eb837f9 fb e13d1d08f1498e35
testbit/1ch/sel=true/bit1 5477 5477 0 964 27385 3ef40eb90eb837f9 fb 640b84212936def5
testbit/1ch/sel=true/bit2 5477 5477 0 939 27385 3ef40eb90eb837f9 fb 755ff9d6e4798095
testbit/1ch/sel=true/bit3 5477 5477 0 951 27385 3ef40eb90eb837f9 fb 9f1c6d76b5b13bc5
testbit/1ch/sel=true/bit4 5477 5477 0 988 27385 3ef40eb90eb837f9 fb 56c50290999c3035
testbit/1ch/sel=true/bit5 5477 5477 0 966 27385 3ef40eb90eb837f9 fb 203ab8e2fdf27ead
testbit/1ch/sel=true/bit6 5477 5477 0 954 27385 3ef40eb90eb837f9 fb 720ae4350e0707c9
testbit/1ch/sel=true/bit7 5477 5477 0 967 27385 3ef40eb90eb837f9 fb 9d0a765bc2e9f37b
testbit/1ch/sel=true/bit8 5477 5477 0 959 27385 3ef40eb90eb837f9 fb 06d0722f34e86126
testbit/1ch/sel=true/bit9 5477 5477 0 965 27385 3ef40eb90eb837f9 fb 87cff5c1ea2766dd
testbit/1ch/sel=true/bit10 5477 5477 0 1005 27385 3ef40eb90eb837f9 fb 5d9d79289cc17b2b
testbit/1ch/sel=true/bit11 5477 5477 0 944 27385 3ef40eb90eb837f9 fb fbc9c1afbd215d42
testbit/1ch/sel=true/bit12 5477 5477 0 995 27385 3ef40eb90eb837f9 fb 7e09b2454127f517
testbit/1ch/sel=true/bit13 5477 5477 0 972 27385 3ef40eb90eb837f9 fb 8fa34f4bd7e32fcc
testbit/1ch/sel=true/bit14 5477 5477 0 969 27385 3ef40eb90eb837f9 fb f86ffd312a817476
testbit/1ch/sel=true/bit15 5477 5477 0 998 27385 3ef40eb90eb837f9 fb ec25687477d150f3
testbit/1ch/sel=true/bit16 5477 5477 0 988 27385 3ef40eb90eb837f9 fb 43d64072caf993e0
testbit/1ch/sel=true/bit17 5477 5477 0 960 27385 3ef40eb90eb837f9 fb 2a0575633e363eb4
testbit/1ch/sel=true/bit18 5477 5477 0 981 27385 3ef40eb90eb837f9 fb 5b334c5993020dac
testbit/1ch/sel=true/bit19 5477 5477 0 964 27385 3ef40eb90eb837f9 fb 807fbc529e88f5e5
testbit/1ch/sel=true/bit20 5477 5477 0 974 27385 3ef40eb90eb837f9 fb ea007a5edc4e4ce7
testbit/1ch/sel=true/bit21 5477 5477 0 975 27385 3ef40eb90eb837f9 fb 754f2f559984eee1
testbit/1ch/sel=true/bit22 5477 5477 0 999 27385 3ef40eb90eb837f9 fb 56fd15717ddde571
testbit/1ch/sel=true/bit23 5477 5477 0 951 27385 3ef40eb90eb837f9 fb c31682c60a16b2cc
testbit/2ch/sel=false/bit0 5477 5477 0 2706 27385 3ef40eb90eb837f9 fb b12d31004ff73be5
testbit/2ch/sel=false/bit1 5477 5477 0 2738 27385 3ef40eb90eb837f9 fb 44cca04999d3eb85
testbit/2ch/sel=false/bit2 5477 5477 0 2701 27385 3ef40eb90eb837f9 fb 84c17dddb4756ce5
testbit/2ch/sel=false/bit3 5477 5477 0 2764 27385 3ef40eb90eb837f9 fb 0f008983f0cd9e55
testbit/2ch/sel=false/bit4 5477 5477 0 2784 27385 3ef40eb90eb837f9 fb 1c908745a7c18b95
testbit/2ch/sel=false/bit5 5477 5477 0 2729 27385 3ef40eb90eb837f9 fb 910472947e129f19
testbit/2ch/sel=false/bit6 5477 5477 0 2650 27385 3ef40eb90eb837f9 fb e8de8220ae02655b
testbit/2ch/sel=false/bit7 5477 5477 0 2671 27385 3ef40eb90eb837f9 fb 1c812bd879b84b52
testbit/2ch/sel=false/bit8 5477 5477 0 2685 27385 3ef40eb90eb837f9 fb fd8ee37b0a63ea6b
testbit/2ch/sel=false/bit9 5477 5477 0 2747 27385 3ef40eb90eb837f9 fb 881e44403fb78e6c
testbit/2ch/sel=false/bit10 5477 5477 0 2723 27385 3ef40eb90eb837f9 fb c297b388c496aee0
testbit/2ch/sel=false/bit11 5477 5477 0 2742 27385 3ef40eb90eb837f9 fb f79e714e7413f69e
testbit/2ch/sel=false/bit12 5477 5477 0 2744 27385 3ef40eb90eb837f9 fb e61322e08780b5a5
testbit/2ch/sel=false/bit13 5477 5477 0 2747 27385 3ef40eb90eb837f9 fb 617566c733d7314e
testbit/2ch/sel=false/bit14 5477 5477 0 2701 27385 3ef40eb90eb837f9 fb 0cbf1316dab8eea7
testbit/2ch/sel=false/bit15 5477 5477 0 2748 27385 3ef40eb90eb837f9 fb 704121c15c49f88a
testbit/2ch/sel=false/bit16 5477 5477 0 2715 27385 3ef40eb90eb837f9 fb 8b5cf4f919ef221f
testbit/2ch/sel=false/bit17 5477 5477 0 2750 27385 3ef40eb90eb837f9 fb d9da98bbfc9d0549
testbit/2ch/sel=false/bit18 5477 5477 0 2731 27385 3ef40eb90eb837f9 fb 5468294cd8e4b632
testbit/2ch/sel=false/bit19 5477 5477 0 2725 27385 3ef40eb90eb837f9 fb 43e60a56f252aa49
testbit/2ch/sel=false/bit20 5477 5477 0 2696 27385 3ef40eb90eb837f9 fb 88643397821a239d
testbit/2ch/sel=false/bit21 5477 5477 0 2750 27385 3ef40eb90eb837f9 fb b5c1f454146e4ce1
testbit/2ch/sel=false/bit22 5477 5477 0 2689 27385 3ef40eb90eb837f9 fb e29e76bd7b4bd6fa
testbit/2ch/sel=false/bit23 5477 5477 0 2711 27385 3ef40eb90eb837f9 fb 9bd081ce80869436
testbit/2ch/sel=true/bit0 5477 5477 0 954 27385 3ef40eb90eb837f9 fb 33eab84feaed2795
testbit/2ch/sel=true/bit1 5477 5477 0 985 27385 3ef40eb90eb837f9 fb 885c59ba276b6715
testbit/2ch/sel=true/bit2 5477 5477 0 978 27385 3ef40eb90eb837f9 fb 509617218a58c735
testbit/2ch/sel=true/bit3 5477 5477 0 981 27385 3ef40eb90eb837f9 fb d65e6b95e6301315
testbit/2ch/sel=true/bit4 5477 5477 0 1002 27385 3ef40eb90eb837f9 fb 85eab8de17fece95
testbit/2ch/sel=true/bit5 5477 5477 0 964 27385 3ef40eb90eb837f9 fb 5fc7780c835ea361
testbit/2ch/sel=true/bit6 5477 5477 0 956 27385 3ef40eb90eb837f9 fb 05e0ed9dcead72df
testbit/2ch/sel=true/bit7 5477 5477 0 917 27385 3ef40eb90eb837f9 fb e9e1e84e5319adbc
testbit/2ch/sel=true/bit8 5477 5477 0 969 27385 3ef40eb90eb837f9 fb 92b796d9e3caf988
testbit/2ch/sel=true/bit9 5477 5477 0 981 27385 3ef40eb90eb837f9 fb 9a186e7dfa31615c
testbit/2ch/sel=true/bit10 5477 5477 0 994 27385 3ef40eb90eb837f9 fb ae05d9eeda3982ef
testbit/2ch/sel=true/bit11 5477 5477 0 974 27385 3ef40eb90eb837f9 fb 1de5f3ad0effa380
testbit/2ch/sel=true/bit12 5477 5477 0 964 27385 3ef40eb90eb837f9 fb 352ce29edd48a92d
testbit/2ch/sel=true/bit13 5477 5477 0 978 27385 3ef40eb90eb837f9 fb 0181939c5ff6f778
testbit/2ch/sel=true/bit14 5477 5477 0 946 27385 3ef40eb90eb837f9 fb 58154922a9e65731
testbit/2ch/sel=true/bit15 5477 5477 0 976 27385 3ef40eb90eb837f9 fb a9604da5bba82062
testbit/2ch/sel=true/bit16 5477 5477 0 931 27385 3ef40eb90eb837f9 fb 0d5dd1259024b02c
testbit/2ch/sel=true/bit17 5477 5477 0 956 27385 3ef40eb90eb837f9 fb b2fbaa88d189d24d
testbit/2ch/sel=true/bit18 5477 5477 0 973 27385 3ef40eb90eb837f9 fb da435ffee970a21a
testbit/2ch/sel=true/bit19 5477 5477 0 962 27385 3ef40eb90eb837f9 fb 5df58082c8d1c2cb
testbit/2ch/sel=true/bit20 5477 5477 0 952 27385 3ef40eb90eb837f9 fb ef28dea0c850b263
testbit/2ch/sel=true/bit21 5477 5477 0 974 27385 3ef40eb90eb837f9 fb c478064083b1e8b1
testbit/2ch/sel=true/bit22 5477 5477 0 943 27385 3ef40eb90eb837f9 fb 928b1077e01f34e7
testbit/2ch/sel=true/bit23 5477 5477 0 975 27385 3ef40eb90eb837f9 fb 2ed050c36a000d4c
testbit/4ch/sel=false/bit0 5477 5477 0 2750 27385 3ef40eb90eb837f9 fb ef460b4ca54b6f65
testbit/4ch/sel=false/bit1 5477 5477 0 2693 27385 3ef40eb90eb837f9 fb 58531ef687e96985
testbit/4ch/sel=false/bit2 5477 5477 0 2725 27385 3ef40eb90eb837f9 fb a85ad71272566a65
testbit/4ch/sel=false/bit3 5477 5477 0 2780 27385 3ef40eb90eb837f9 fb 3610c888e8c76f95
testbit/4ch/sel=false/bit4 5477 5477 0 2703 27385 3ef40eb90eb837f9 fb 06919b3dfa305415
testbit/4ch/sel=false/bit5 5477 5477 0 2750 27385 3ef40eb90eb837f9 fb c66d49778ed81a89
testbit/4ch/sel=false/bit6 5477 5477 0 2820 27385 3ef40eb90eb837f9 fb dcf3298b38a3da65
testbit/4ch/sel=false/bit7 5477 5477 0 2740 27385 3ef40eb90eb837f9 fb c6ae9b6886e4d838
testbit/4ch/sel=false/bit8 5477 5477 0 2775 27385 3ef40eb90eb837f9 fb ceb413422ccc4851
testbit/4ch/sel=false/bit9 5477 5477 0 2763 27385 3ef40eb90eb837f9 fb 3bc4c8c827da07be
testbit/4ch/sel=false/bit10 5477 5477 0 2758 27385 3ef40eb90eb837f9 fb 273edb9aa0230afb
testbit/4ch/sel=false/bit11 5477 5477 0 2776 27385 3ef40eb90eb837f9 fb 87d1c5d10aecb1ba
testbit/4ch/sel=false/bit12 5477 5477 0 2725 27385 3ef40eb90eb837f9 fb 2fdb9e58b0d1356b
testbit/4ch/sel=false/bit13 5477 5477 0 2753 27385 3ef40eb90eb837f9 fb ccb7972cee49c228
testbit/4ch/sel=false/bit14 5477 5477 0 2745 27385 3ef40eb90eb837f9 fb e86547ec84fae31e
testbit/4ch/sel=false/bit15 5477 5477 0 2750 27385 3ef40eb90eb837f9 fb b7d677b95dea3df6
testbit/4ch/sel=false/bit16 5477 5477 0 2709 27385 3ef40eb90eb837f9 fb 3ed923a64563920c
testbit/4ch/sel=false/bit17 5477 5477 0 2780 27385 3ef40eb90eb837f9 fb 710aaf55464b2db0
testbit/4ch/sel=false/bit18 5477 5477 0 2737 27385 3ef40eb90eb837f9 fb f478c1699159b82f
testbit/4ch/sel=false/bit19 5477 5477 0 2717 27385 3ef40eb90eb837f9 fb 1fc29a9569e80270
testbit/4ch/sel=false/bit20 5477 5477 0 2770 27385 3ef40eb90eb837f9 fb c9af90b359b34f6c
testbit/4ch/sel=false/bit21 5477 5477 0 2673 27385 3ef40eb90eb837f9 fb 884670bf2e710af6
testbit/4ch/sel=false/bit22 5477 5477 0 2699 27385 3ef40eb90eb837f9 fb 24461794632bdf77
testbit/4ch/sel=false/bit23 5477 5477 0 2681 27385 3ef40eb90eb837f9 fb bedd6f3b53146632
testbit/4ch/sel=true/bit0 5477 5477 0 965 27385 3ef40eb90eb837f9 fb ab258f1a0ba20a35
testbit/4ch/sel=true/bit1 5477 5477 0 964 27385 3ef40eb90eb837f9 fb c334bf5e1b9082d5
testbit/4ch/sel=true/bit2 5477 5477 0 966 27385 3ef40eb90eb837f9 fb 0621e17c4fb499b5
testbit/4ch/sel=true/bit3 5477 5477 0 1001 27385 3ef40eb90eb837f9 fb edb050937d61a8a5
testbit/4ch/sel=true/bit4 5477 5477 0 942 27385 3ef40eb90eb837f9 fb 8aea4a1911ab1e1d
testbit/4ch/sel=true/bit5 5477 5477 0 965 27385 3ef40eb90eb837f9 fb 7cbeb8a67a9a1c9d
testbit/4ch/sel=true/bit6 5477 5477 0 1007 27385 3ef40eb90eb837f9 fb a417d165f6b61d5f
testbit/4ch/sel=true/bit7 5477 5477 0 953 27385 3ef40eb90eb837f9 fb 24ad33506baa0dad
testbit/4ch/sel=true/bit8 5477 5477 0 990 27385 3ef40eb90eb837f9 fb 91ecc419394d8757
testbit/4ch/sel=true/bit9 5477 5477 0 1003 27385 3ef40eb90eb837f9 fb 207f640dd5525a86
testbit/4ch/sel=true/bit10 5477 5477 0 977 27385 3ef40eb90eb837f9 fb 789a8f3fd6bc50e6
testbit/4ch/sel=true/bit11 5477 5477 0 998 27385 3ef40eb90eb837f9 fb 8d16a1a03219fb69
testbit/4ch/sel=true/bit12 5477 5477 0 993 27385 3ef40eb90eb837f9 fb 56e7fea04e447734
testbit/4ch/sel=true/bit13 5477 5477 0 965 27385 3ef40eb90eb837f9 fb 7ae77e46d162d207
testbit/4ch/sel=true/bit14 5477 5477 0 986 27385 3ef40eb90eb837f9 fb 5e30db242f00ded6
testbit/4ch/sel=true/bit15 5477 5477 0 956 27385 3ef40eb90eb837f9 fb 2c1c8ecd0e184eb9
testbit/4ch/sel=true/bit16 5477 5477 0 955 27385 3ef40eb90eb837f9 fb 6a4c8faf3c201cd9
testbit/4ch/sel=true/bit17 5477 5477 0 951 27385 3ef40eb90eb837f9 fb c3990310ca73302d
testbit/4ch/sel=true/bit18 5477 5477 0 956 27385 3ef40eb90eb837f9 fb 6891e4dde17d7b08
testbit/4ch/sel=true/bit19 5477 5477 0 966 27385 3ef40eb90eb837f9 fb d8e22671dbf51a4f
testbit/4ch/sel=true/bit20 5477 5477 0 977 27385 3ef40eb90eb837f9 fb 89edf17b0d31c7f6
testbit/4ch/sel=true/bit21 5477 5477 0 968 27385 3ef40eb90eb837f9 fb 53390dd892d6086a
testbit/4ch/sel=true/bit22 5477 5477 0 964 27385 3ef40eb90eb837f9 fb 3aa8cbb651094f34
testbit/4ch/sel=true/bit23 5477 5477 0 971 27385 3ef40eb90eb837f9 fb 8394ba1c1492603e
copytodepth/1ch 5477 5477 0 5477 21908 3ef276540257220e fb 762d59c624de5130
copytodepth/2ch 5477 5477 0 5477 21908 3ef276540257220e fb aa52559bc04c150f
copytodepth/4ch 5477 5477 0 5477 21908 3ef276540257220e fb f54e754949505aa2
semilinear/Never/sel=false/scissor=false 5477 5477 0 0 38339 3ef73f83277a63ce fb 84f5329cb090ff25
semilinear/Never/sel=false/scissor=true 4350 4350 0 0 30450 3ef49f3b0adf9ea8 fb 84f5329cb090ff25
semilinear/Never/sel=true/scissor=false 5477 5477 0 0 38339 3ef73f83277a63ce fb a9bd91bb50efacd5
semilinear/Never/sel=true/scissor=true 4350 4350 0 0 30450 3ef49f3b0adf9ea8 fb a9bd91bb50efacd5
semilinear/Less/sel=false/scissor=false 5477 5477 0 3520 38339 3ef73f83277a63ce fb ec96e8bfd4079f03
semilinear/Less/sel=false/scissor=true 4350 4350 0 2799 30450 3ef49f3b0adf9ea8 fb f3641c6823c74543
semilinear/Less/sel=true/scissor=false 5477 5477 0 1238 38339 3ef73f83277a63ce fb 30bf5727032e4614
semilinear/Less/sel=true/scissor=true 4350 4350 0 1038 30450 3ef49f3b0adf9ea8 fb b31a5e8f31262512
semilinear/Equal/sel=false/scissor=false 5477 5477 0 19 43816 3ef8d7e833db79b9 fb 1b123037120be09a
semilinear/Equal/sel=false/scissor=true 4350 4350 0 16 34800 3ef5e39713ad5bee fb 2c30b77dcdae1235
semilinear/Equal/sel=true/scissor=false 5477 5477 0 7 43816 3ef8d7e833db79b9 fb aaa563039f40fe1c
semilinear/Equal/sel=true/scissor=true 4350 4350 0 5 34800 3ef5e39713ad5bee fb 8efbd858b3839f70
semilinear/LessEqual/sel=false/scissor=false 5477 5477 0 3539 38339 3ef73f83277a63ce fb 925c815a6cd38d68
semilinear/LessEqual/sel=false/scissor=true 4350 4350 0 2815 30450 3ef49f3b0adf9ea8 fb 4d26d63da5cfcc93
semilinear/LessEqual/sel=true/scissor=false 5477 5477 0 1245 38339 3ef73f83277a63ce fb 367506a8484f66e9
semilinear/LessEqual/sel=true/scissor=true 4350 4350 0 1043 30450 3ef49f3b0adf9ea8 fb 445ffbc601bc4113
semilinear/Greater/sel=false/scissor=false 5477 5477 0 1938 38339 3ef73f83277a63ce fb 695080f02d989245
semilinear/Greater/sel=false/scissor=true 4350 4350 0 1535 30450 3ef49f3b0adf9ea8 fb 42b560bdb5dad39b
semilinear/Greater/sel=true/scissor=false 5477 5477 0 691 38339 3ef73f83277a63ce fb 88376e36da3fbb33
semilinear/Greater/sel=true/scissor=true 4350 4350 0 574 30450 3ef49f3b0adf9ea8 fb 3f1f9b5f2ec259f8
semilinear/NotEqual/sel=false/scissor=false 5477 5477 0 5458 43816 3ef8d7e833db79b9 fb 8460fb3a2226f813
semilinear/NotEqual/sel=false/scissor=true 4350 4350 0 4334 34800 3ef5e39713ad5bee fb 0ca39e5adcc3dc0d
semilinear/NotEqual/sel=true/scissor=false 5477 5477 0 1929 43816 3ef8d7e833db79b9 fb 6e544c021250dade
semilinear/NotEqual/sel=true/scissor=true 4350 4350 0 1612 34800 3ef5e39713ad5bee fb 5853cf73b7038adb
semilinear/GreaterEqual/sel=false/scissor=false 5477 5477 0 1957 38339 3ef73f83277a63ce fb 0cae37b4d803c7ca
semilinear/GreaterEqual/sel=false/scissor=true 4350 4350 0 1551 30450 3ef49f3b0adf9ea8 fb 1519755a11d6cbfb
semilinear/GreaterEqual/sel=true/scissor=false 5477 5477 0 698 38339 3ef73f83277a63ce fb bcf85ec5a7ed84fe
semilinear/GreaterEqual/sel=true/scissor=true 4350 4350 0 579 30450 3ef49f3b0adf9ea8 fb c4dad852ba0ed3c1
semilinear/Always/sel=false/scissor=false 5477 5477 0 5477 38339 3ef73f83277a63ce fb cb5ad79fafb1a748
semilinear/Always/sel=false/scissor=true 4350 4350 0 4350 30450 3ef49f3b0adf9ea8 fb c394de98ceb7608d
semilinear/Always/sel=true/scissor=false 5477 5477 0 1936 38339 3ef73f83277a63ce fb ad62b9ea196b04c7
semilinear/Always/sel=true/scissor=true 4350 4350 0 1617 30450 3ef49f3b0adf9ea8 fb 81ee980c8503b8d6
earlyz/copy 43520 43520 0 43520 174080 3f127772571d9495 fb 627bdec431548f60
earlyz/less 43520 21840 21680 21840 87360 3f084dbcc2c346b2 fb 05e057645b6c5693
";

#[test]
fn program_draws_match_recorded_pins() {
    let mut actual = Vec::new();
    test_bit_cases(&mut actual);
    copy_to_depth_cases(&mut actual);
    semilinear_cases(&mut actual);
    early_z_case(&mut actual);
    check_pins(EXPECTED, actual);
}

const EXPECTED_HOSTILE: &str = "\
hostile/ch0/testbit/sel=false/bit0 5477 5477 0 676 27385 3ef40eb90eb837f9 fb f767b7a9f9b415a5
hostile/ch0/testbit/sel=false/bit1 5477 5477 0 648 27385 3ef40eb90eb837f9 fb 20fc1b4fde60aee5
hostile/ch0/testbit/sel=false/bit7 5477 5477 0 663 27385 3ef40eb90eb837f9 fb 40bde245ed7ee136
hostile/ch0/testbit/sel=false/bit16 5477 5477 0 668 27385 3ef40eb90eb837f9 fb 32bb478b135dc685
hostile/ch0/testbit/sel=false/bit23 5477 5477 0 674 27385 3ef40eb90eb837f9 fb 8c1a7751774fdde6
hostile/ch0/copytodepth/sel=false 5477 5477 0 5477 21908 3ef276540257220e fb b57918341a19b67d
hostile/ch0/testbit/sel=true/bit0 5477 5477 0 147 27385 3ef40eb90eb837f9 fb 2d4d9a2d3925fe3d
hostile/ch0/testbit/sel=true/bit1 5477 5477 0 135 27385 3ef40eb90eb837f9 fb e353c31977729ebd
hostile/ch0/testbit/sel=true/bit7 5477 5477 0 145 27385 3ef40eb90eb837f9 fb c294628e66859f08
hostile/ch0/testbit/sel=true/bit16 5477 5477 0 149 27385 3ef40eb90eb837f9 fb 3e5f77e75c7a3358
hostile/ch0/testbit/sel=true/bit23 5477 5477 0 149 27385 3ef40eb90eb837f9 fb 3b8f41bb9138378e
hostile/ch0/copytodepth/sel=true 5477 5477 0 1266 21908 3ef276540257220e fb 954616fa790af1bd
hostile/ch2/testbit/sel=false/bit0 5477 5477 0 673 27385 3ef40eb90eb837f9 fb 3a812b4d38347105
hostile/ch2/testbit/sel=false/bit1 5477 5477 0 642 27385 3ef40eb90eb837f9 fb 8af8d8b98f17f165
hostile/ch2/testbit/sel=false/bit7 5477 5477 0 683 27385 3ef40eb90eb837f9 fb 8b3af2c4f3d2ae48
hostile/ch2/testbit/sel=false/bit16 5477 5477 0 652 27385 3ef40eb90eb837f9 fb 7e0dc285b1562ebc
hostile/ch2/testbit/sel=false/bit23 5477 5477 0 659 27385 3ef40eb90eb837f9 fb 7667b3f8921c5db2
hostile/ch2/copytodepth/sel=false 5477 5477 0 5477 21908 3ef276540257220e fb da8c88367e442182
hostile/ch2/testbit/sel=true/bit0 5477 5477 0 160 27385 3ef40eb90eb837f9 fb 142bf2ec246c8242
hostile/ch2/testbit/sel=true/bit1 5477 5477 0 156 27385 3ef40eb90eb837f9 fb c0c49ab733cfb982
hostile/ch2/testbit/sel=true/bit7 5477 5477 0 168 27385 3ef40eb90eb837f9 fb f0fa49b20ff071d6
hostile/ch2/testbit/sel=true/bit16 5477 5477 0 151 27385 3ef40eb90eb837f9 fb 8cbadb2c7bc0440f
hostile/ch2/testbit/sel=true/bit23 5477 5477 0 158 27385 3ef40eb90eb837f9 fb db9bbb089233ff7e
hostile/ch2/copytodepth/sel=true 5477 5477 0 1266 21908 3ef276540257220e fb fabf89701f52e642
hostile/ch3/testbit/sel=false/bit0 5477 5477 0 686 27385 3ef40eb90eb837f9 fb 188faec9830d7165
hostile/ch3/testbit/sel=false/bit1 5477 5477 0 644 27385 3ef40eb90eb837f9 fb 4b3a2a47a6421b85
hostile/ch3/testbit/sel=false/bit7 5477 5477 0 658 27385 3ef40eb90eb837f9 fb 4d89ba77a918a57f
hostile/ch3/testbit/sel=false/bit16 5477 5477 0 640 27385 3ef40eb90eb837f9 fb 66333abb155ffad8
hostile/ch3/testbit/sel=false/bit23 5477 5477 0 656 27385 3ef40eb90eb837f9 fb bbeb7d45869b398f
hostile/ch3/copytodepth/sel=false 5477 5477 0 5477 21908 3ef276540257220e fb 674c00a21f067cd7
hostile/ch3/testbit/sel=true/bit0 5477 5477 0 176 27385 3ef40eb90eb837f9 fb 5275527367cf0e17
hostile/ch3/testbit/sel=true/bit1 5477 5477 0 177 27385 3ef40eb90eb837f9 fb 9dea0dae61583297
hostile/ch3/testbit/sel=true/bit7 5477 5477 0 172 27385 3ef40eb90eb837f9 fb 33ee81af56572fc5
hostile/ch3/testbit/sel=true/bit16 5477 5477 0 155 27385 3ef40eb90eb837f9 fb 1918a422f3a56ee9
hostile/ch3/testbit/sel=true/bit23 5477 5477 0 164 27385 3ef40eb90eb837f9 fb 031d6eddc2c6bc5f
hostile/ch3/copytodepth/sel=true 5477 5477 0 1266 21908 3ef276540257220e fb 4718ff687df7b817
wide/hostile/testbit/sel=false/bit0 11686 11686 0 1268 58430 3efee8951bf81fd4 fb e7d79b94a61175a5
wide/hostile/testbit/sel=false/bit1 11686 11686 0 1250 58430 3efee8951bf81fd4 fb d026e4cac710af85
wide/hostile/testbit/sel=false/bit7 11686 11686 0 1223 58430 3efee8951bf81fd4 fb e516c69f4d54c1d8
wide/hostile/testbit/sel=false/bit16 11686 11686 0 1236 58430 3efee8951bf81fd4 fb 467223335bbb8ae8
wide/hostile/testbit/sel=false/bit23 11686 11686 0 1249 58430 3efee8951bf81fd4 fb 947867b54b1e8a1a
wide/hostile/copytodepth/sel=false 11686 11686 0 11686 46744 3efb81360d61b89a fb 3e6679365155dbf3
wide/hostile/testbit/sel=true/bit0 11686 11686 0 489 58430 3efee8951bf81fd4 fb 6b351ca00a183d5f
wide/hostile/testbit/sel=true/bit1 11686 11686 0 475 58430 3efee8951bf81fd4 fb bb5b7b8cff08ff1f
wide/hostile/testbit/sel=true/bit7 11686 11686 0 462 58430 3efee8951bf81fd4 fb eb2a103122792649
wide/hostile/testbit/sel=true/bit16 11686 11686 0 464 58430 3efee8951bf81fd4 fb 8fd506215373028c
wide/hostile/testbit/sel=true/bit23 11686 11686 0 475 58430 3efee8951bf81fd4 fb f96c21e18e7d7c03
wide/hostile/copytodepth/sel=true 11686 11686 0 4397 46744 3efb81360d61b89a fb 75162f6b1d3590df
wider/hostile/testbit/sel=false/bit0 11750 11750 0 1305 58750 3eff05372fd0608e fb f33f7b1a532e6605
wider/hostile/testbit/sel=false/bit1 11750 11750 0 1228 58750 3eff05372fd0608e fb e9c1b702a906bf05
wider/hostile/testbit/sel=false/bit7 11750 11750 0 1283 58750 3eff05372fd0608e fb 9c5609a74808af53
wider/hostile/testbit/sel=false/bit16 11750 11750 0 1244 58750 3eff05372fd0608e fb 4206653520213af7
wider/hostile/testbit/sel=false/bit23 11750 11750 0 1295 58750 3eff05372fd0608e fb d0a847b0d94347c5
wider/hostile/copytodepth/sel=false 11750 11750 0 11750 47000 3efb991273409936 fb 920f1b9526615df3
wider/hostile/testbit/sel=true/bit0 11750 11750 0 476 58750 3eff05372fd0608e fb cf51ac0ee785229f
wider/hostile/testbit/sel=true/bit1 11750 11750 0 485 58750 3eff05372fd0608e fb ec60bfe081a4569f
wider/hostile/testbit/sel=true/bit7 11750 11750 0 484 58750 3eff05372fd0608e fb a9e45b582cf5c327
wider/hostile/testbit/sel=true/bit16 11750 11750 0 479 58750 3eff05372fd0608e fb ef0ec155abd40ae0
wider/hostile/testbit/sel=true/bit23 11750 11750 0 499 58750 3eff05372fd0608e fb 7e46567e78535bdb
wider/hostile/copytodepth/sel=true 11750 11750 0 4397 47000 3efb991273409936 fb 205e5b966037789f
wide/negzero/testbit/sel=false/bit0 11686 11686 0 4906 58430 3efee8951bf81fd4 fb 2267544edbc1c1e5
wide/negzero/testbit/sel=false/bit1 11686 11686 0 5001 58430 3efee8951bf81fd4 fb 54c62fa20f0f2325
wide/negzero/testbit/sel=false/bit7 11686 11686 0 5001 58430 3efee8951bf81fd4 fb 126d15adca570784
wide/negzero/testbit/sel=false/bit16 11686 11686 0 4990 58430 3efee8951bf81fd4 fb 056efa12439da093
wide/negzero/testbit/sel=false/bit23 11686 11686 0 4970 58430 3efee8951bf81fd4 fb c20682c575c44f1c
wide/negzero/copytodepth/sel=false 11686 11686 0 11686 46744 3efb81360d61b89a fb c828d05e44141c3b
wide/negzero/testbit/sel=true/bit0 11686 11686 0 1865 58430 3efee8951bf81fd4 fb ab0c347fd19c26a7
wide/negzero/testbit/sel=true/bit1 11686 11686 0 1898 58430 3efee8951bf81fd4 fb 0d5402b981928467
wide/negzero/testbit/sel=true/bit7 11686 11686 0 1865 58430 3efee8951bf81fd4 fb 4a763fae4a8d08e0
wide/negzero/testbit/sel=true/bit16 11686 11686 0 1867 58430 3efee8951bf81fd4 fb 055d918e34a7dcfa
wide/negzero/testbit/sel=true/bit23 11686 11686 0 1873 58430 3efee8951bf81fd4 fb de11d2f669ef9feb
wide/negzero/copytodepth/sel=true 11686 11686 0 4397 46744 3efb81360d61b89a fb fed886930ff3d127
wide/int/testbit/sel=false/bit0 11686 11686 0 5930 58430 3efee8951bf81fd4 fb 7d0f9da9b1e19ce5
wide/int/testbit/sel=false/bit1 11686 11686 0 5962 58430 3efee8951bf81fd4 fb d6cf018185026165
wide/int/testbit/sel=false/bit7 11686 11686 0 5876 58430 3efee8951bf81fd4 fb 1cca282aa5e56434
wide/int/testbit/sel=false/bit16 11686 11686 0 5858 58430 3efee8951bf81fd4 fb ef4ecf0bbcb593aa
wide/int/testbit/sel=false/bit23 11686 11686 0 5899 58430 3efee8951bf81fd4 fb dbeef21e23290cdf
wide/int/copytodepth/sel=false 11686 11686 0 11686 46744 3efb81360d61b89a fb 1e63f07e606f8459
wide/int/testbit/sel=true/bit0 11686 11686 0 2216 58430 3efee8951bf81fd4 fb 3890ab1f966f7645
wide/int/testbit/sel=true/bit1 11686 11686 0 2248 58430 3efee8951bf81fd4 fb 868732c557eb2f45
wide/int/testbit/sel=true/bit7 11686 11686 0 2191 58430 3efee8951bf81fd4 fb b67c2b39461b30f7
wide/int/testbit/sel=true/bit16 11686 11686 0 2207 58430 3efee8951bf81fd4 fb 2b47eb553186149d
wide/int/testbit/sel=true/bit23 11686 11686 0 2178 58430 3efee8951bf81fd4 fb 154b8c1d0e6db5d4
wide/int/copytodepth/sel=true 11686 11686 0 4397 46744 3efb81360d61b89a fb 5513a6b32c4f3945
wider/int/testbit/sel=false/bit0 11750 11750 0 5881 58750 3eff05372fd0608e fb e9f6638fb9969205
wider/int/testbit/sel=false/bit1 11750 11750 0 5915 58750 3eff05372fd0608e fb 063b8888528c94a5
wider/int/testbit/sel=false/bit7 11750 11750 0 5894 58750 3eff05372fd0608e fb 8fceb4ece2ab809d
wider/int/testbit/sel=false/bit16 11750 11750 0 5942 58750 3eff05372fd0608e fb 2e03a8ecad6f94e2
wider/int/testbit/sel=false/bit23 11750 11750 0 5850 58750 3eff05372fd0608e fb adc3efe494ad152e
wider/int/copytodepth/sel=false 11750 11750 0 11750 47000 3efb991273409936 fb a7b1f6116b2a37d6
wider/int/testbit/sel=true/bit0 11750 11750 0 2238 58750 3eff05372fd0608e fb ed35eeb4732eb02a
wider/int/testbit/sel=true/bit1 11750 11750 0 2209 58750 3eff05372fd0608e fb f376371acaa7b66a
wider/int/testbit/sel=true/bit7 11750 11750 0 2221 58750 3eff05372fd0608e fb 36a794d3832843fa
wider/int/testbit/sel=true/bit16 11750 11750 0 2266 58750 3eff05372fd0608e fb eb960503ef8440d8
wider/int/testbit/sel=true/bit23 11750 11750 0 2202 58750 3eff05372fd0608e fb 93c10c35df528d24
wider/int/copytodepth/sel=true 11750 11750 0 4397 47000 3efb991273409936 fb 1962b61031541d2a
";

#[test]
fn channel_select_draws_on_hostile_textures_match_recorded_pins() {
    let mut actual = Vec::new();
    hostile_channel_cases(&mut actual);
    check_pins(EXPECTED_HOSTILE, actual);
}
