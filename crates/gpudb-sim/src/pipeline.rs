//! The per-fragment pipeline: fragment program, then the fixed-function
//! test sequence in authentic OpenGL order.
//!
//! Order of operations for each fragment (§3.1 of the paper, plus the
//! `EXT_depth_bounds_test` specification):
//!
//! 1. fragment program (may replace color/depth or `KIL` the fragment);
//! 2. alpha test — failing fragments are discarded with **no** stencil
//!    side effect;
//! 3. stencil test — failing fragments run the `op_fail` stencil update,
//!    then are discarded;
//! 4. depth bounds test — compares the depth value **already stored in the
//!    framebuffer** against the bounds; failing fragments are discarded
//!    with no stencil side effect;
//! 5. depth test — failing fragments run `op_zfail`; passing fragments run
//!    `op_zpass`, write depth (if enabled) and color (per mask), and count
//!    toward any active occlusion query.
//!
//! Step 1 runs a row span at a time: the rasterizer shades up to
//! [`SPAN`](crate::program::SPAN) fragments with the draw's compiled
//! [`SpanKernel`](crate::program::SpanKernel), then feeds each fragment's
//! outputs through [`run_tests`] and [`write_color`] here. Shading reads
//! only textures and constants, never the framebuffer, so shading a span
//! before testing its first fragment is indistinguishable from shading
//! each fragment just before its tests.
//!
//! The pipeline operates on an [`FbBand`] — a mutable view over a
//! contiguous row range of the framebuffer — so that the rasterizer can
//! process disjoint row bands on parallel host threads, mirroring the
//! device's parallel pixel pipes.

use crate::buffers::{dequantize_depth, quantize_depth, Framebuffer};
use crate::program::isa::FragmentProgram;
use crate::state::PipelineState;

/// A mutable view over a contiguous pixel range of the framebuffer
/// (whole rows). `base` is the global linear index of the first pixel.
pub(crate) struct FbBand<'a> {
    pub color: &'a mut [[f32; 4]],
    pub depth: &'a mut [u32],
    pub stencil: &'a mut [u8],
    pub base: usize,
}

impl<'a> FbBand<'a> {
    /// A band covering the entire framebuffer.
    pub fn full(fb: &'a mut Framebuffer) -> FbBand<'a> {
        FbBand {
            color: fb.color.data_mut(),
            depth: fb.depth.raw_data_mut(),
            stencil: fb.stencil.data_mut(),
            base: 0,
        }
    }

    #[inline(always)]
    fn local(&self, global_idx: usize) -> usize {
        debug_assert!(global_idx >= self.base && global_idx - self.base < self.depth.len());
        global_idx - self.base
    }
}

/// Whether a program draw may take the early-z fast path: the fragment's
/// depth and discard behavior must be fully known before shading. A
/// program that writes `result.depth` or contains `KIL` forces late
/// testing (the NV3x behavior the paper exploits in §6.2.1), and an
/// enabled alpha test may depend on the program's output alpha.
pub(crate) fn early_tests_eligible(
    state: &PipelineState,
    program: &FragmentProgram,
    early_z: bool,
) -> bool {
    early_z && !program.writes_depth && !program.has_kil && !state.alpha.enabled
}

/// Run the post-shading test sequence and all buffer side effects except
/// the color write (the caller writes color only for passing fragments).
/// Returns whether the fragment passed alpha, stencil, bounds and depth.
///
/// `frag_depth` is the fragment's incoming depth in normalized units;
/// `alpha` its output alpha.
#[inline(always)]
pub(crate) fn run_tests(
    state: &PipelineState,
    band: &mut FbBand<'_>,
    idx: usize,
    frag_depth: f32,
    alpha: f32,
) -> bool {
    let idx = band.local(idx);

    // 2. Alpha test: discarded fragments have no further effect.
    if !state.alpha.test(alpha) {
        return false;
    }

    // 3. Stencil test.
    let stencil = &state.stencil;
    if stencil.enabled {
        let stored = band.stencil[idx];
        if !stencil.test(stored) {
            band.stencil[idx] = stencil.write(stored, stencil.op_fail);
            return false;
        }
    }

    // 4. Depth bounds test: inspects the *stored* framebuffer depth and
    // discards without any stencil update (per the EXT spec).
    if state.depth_bounds.enabled && !state.depth_bounds.test(dequantize_depth(band.depth[idx])) {
        return false;
    }

    // 5. Depth test, in the quantized 24-bit integer domain, under the
    // (normally all-ones) depth compare mask.
    let q_frag = quantize_depth(frag_depth as f64);
    let depth_pass = if state.depth.test_enabled {
        let mask = state.depth.compare_mask;
        state.depth.func.eval(q_frag & mask, band.depth[idx] & mask)
    } else {
        true
    };

    if !depth_pass {
        if stencil.enabled {
            let stored = band.stencil[idx];
            band.stencil[idx] = stencil.write(stored, stencil.op_zfail);
        }
        return false;
    }

    if stencil.enabled {
        let stored = band.stencil[idx];
        band.stencil[idx] = stencil.write(stored, stencil.op_zpass);
    }
    if state.depth.write_enabled {
        band.depth[idx] = q_frag;
    }
    true
}

/// Write a passing fragment's color, honoring the color mask.
#[inline(always)]
pub(crate) fn write_color(
    state: &PipelineState,
    band: &mut FbBand<'_>,
    idx: usize,
    color: [f32; 4],
) {
    let mask = state.color_mask;
    if !mask.any() {
        return;
    }
    let idx = band.local(idx);
    let stored = &mut band.color[idx];
    if mask.red {
        stored[0] = color[0];
    }
    if mask.green {
        stored[1] = color[1];
    }
    if mask.blue {
        stored[2] = color[2];
    }
    if mask.alpha {
        stored[3] = color[3];
    }
}

/// Process one fixed-function fragment (no program bound) at global
/// linear index `idx`: flat `depth` and `color`. Returns whether it passed
/// all tests.
#[inline]
pub(crate) fn process_fixed(
    state: &PipelineState,
    band: &mut FbBand<'_>,
    idx: usize,
    depth: f32,
    color: [f32; 4],
) -> bool {
    let passed = run_tests(state, band, idx, depth, color[3]);
    if passed {
        write_color(state, band, idx, color);
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CompareFunc, StencilOp};

    /// A fixed-function draw at depth 0.5.
    struct FixedDraw<'a> {
        state: &'a PipelineState,
        draw_color: [f32; 4],
    }

    fn env_fixed(state: &PipelineState) -> FixedDraw<'_> {
        FixedDraw {
            state,
            draw_color: [1.0, 0.0, 0.0, 1.0],
        }
    }

    fn run_one(env: &FixedDraw<'_>, fb: &mut Framebuffer, idx: usize) -> bool {
        let mut band = FbBand::full(fb);
        process_fixed(env.state, &mut band, idx, 0.5, env.draw_color)
    }

    #[test]
    fn plain_fragment_writes_color_and_depth() {
        let state = PipelineState {
            depth: crate::state::DepthState {
                test_enabled: true,
                func: CompareFunc::Always,
                write_enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut fb = Framebuffer::new(2, 2);
        let fate = run_one(&env_fixed(&state), &mut fb, 1);
        assert!(fate);
        assert_eq!(fb.color.get(1), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(fb.depth.get_raw(1), quantize_depth(0.5));
        // untouched pixel
        assert_eq!(fb.color.get(0), [0.0; 4]);
    }

    #[test]
    fn depth_test_rejects_and_preserves_buffers() {
        let state = PipelineState {
            depth: crate::state::DepthState {
                test_enabled: true,
                func: CompareFunc::Less,
                write_enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut fb = Framebuffer::new(1, 1);
        fb.depth.clear(0.25); // stored 0.25 < incoming 0.5 → Less fails
        let fate = run_one(&env_fixed(&state), &mut fb, 0);
        assert!(!fate);
        assert_eq!(fb.depth.get_raw(0), quantize_depth(0.25));
        assert_eq!(fb.color.get(0), [0.0; 4]);
    }

    #[test]
    fn stencil_ops_fire_per_outcome() {
        // StencilOp(Op1=Zero on stencil fail, Op2=Incr on depth fail,
        // Op3=Replace on pass), mirroring the paper's §3.4 pseudo-code.
        let mut state = PipelineState::default();
        state.stencil.enabled = true;
        state.stencil.func = CompareFunc::Equal;
        state.stencil.reference = 1;
        state.stencil.op_fail = StencilOp::Zero;
        state.stencil.op_zfail = StencilOp::Incr;
        state.stencil.op_zpass = StencilOp::Replace;
        state.depth.test_enabled = true;
        state.depth.func = CompareFunc::Less;
        state.depth.write_enabled = false;

        let mut fb = Framebuffer::new(3, 1);
        // pixel 0: stencil 1 (passes), depth far (pass) → Replace → 1
        fb.stencil.set(0, 1);
        fb.depth.set_raw(0, quantize_depth(1.0));
        // pixel 1: stencil 1 (passes), depth near (fail) → Incr → 2
        fb.stencil.set(1, 1);
        fb.depth.set_raw(1, quantize_depth(0.0));
        // pixel 2: stencil 5 (fails) → Zero
        fb.stencil.set(2, 5);

        let env = env_fixed(&state);
        assert!(run_one(&env, &mut fb, 0));
        assert!(!run_one(&env, &mut fb, 1));
        assert!(!run_one(&env, &mut fb, 2));
        assert_eq!(fb.stencil.get(0), 1);
        assert_eq!(fb.stencil.get(1), 2);
        assert_eq!(fb.stencil.get(2), 0);
    }

    #[test]
    fn alpha_fail_skips_stencil_update() {
        let mut state = PipelineState::default();
        state.alpha.enabled = true;
        state.alpha.func = CompareFunc::GreaterEqual;
        state.alpha.reference = 0.5;
        state.stencil.enabled = true;
        state.stencil.func = CompareFunc::Never;
        state.stencil.op_fail = StencilOp::Replace;
        state.stencil.reference = 9;

        let mut fb = Framebuffer::new(1, 1);
        let mut env = env_fixed(&state);
        env.draw_color = [0.0, 0.0, 0.0, 0.25]; // alpha 0.25 < 0.5 → discard
        let fate = run_one(&env, &mut fb, 0);
        assert!(!fate);
        // alpha-discarded fragments never reach the stencil stage
        assert_eq!(fb.stencil.get(0), 0);
    }

    #[test]
    fn depth_bounds_discards_without_stencil_update() {
        let mut state = PipelineState::default();
        state.stencil.enabled = true;
        state.stencil.func = CompareFunc::Always;
        state.stencil.op_zpass = StencilOp::Replace;
        state.stencil.reference = 1;
        state.depth_bounds.enabled = true;
        state.depth_bounds.min = 0.4;
        state.depth_bounds.max = 0.6;
        state.depth.test_enabled = false;
        state.depth.write_enabled = false;

        let mut fb = Framebuffer::new(2, 1);
        fb.depth.set_raw(0, quantize_depth(0.5)); // in bounds
        fb.depth.set_raw(1, quantize_depth(0.9)); // out of bounds

        let env = env_fixed(&state);
        assert!(run_one(&env, &mut fb, 0));
        assert!(!run_one(&env, &mut fb, 1));
        assert_eq!(fb.stencil.get(0), 1, "in-bounds pixel marked");
        assert_eq!(fb.stencil.get(1), 0, "out-of-bounds pixel untouched");
    }

    #[test]
    fn color_mask_none_blocks_writes() {
        let state = PipelineState {
            color_mask: crate::state::ColorMask::NONE,
            ..Default::default()
        };
        let mut fb = Framebuffer::new(1, 1);
        let env = env_fixed(&state);
        run_one(&env, &mut fb, 0);
        assert_eq!(fb.color.get(0), [0.0; 4]);
    }

    #[test]
    fn depth_write_disabled_preserves_depth() {
        let mut state = PipelineState::default();
        state.depth.test_enabled = false;
        state.depth.write_enabled = false;
        let mut fb = Framebuffer::new(1, 1);
        let before = fb.depth.get_raw(0);
        run_one(&env_fixed(&state), &mut fb, 0);
        assert_eq!(fb.depth.get_raw(0), before);
    }

    #[test]
    fn band_local_indexing() {
        // A band starting at row 1 of a 4x3 framebuffer must map global
        // indices onto its local slices correctly.
        let mut fb = Framebuffer::new(4, 3);
        let state = PipelineState {
            depth: crate::state::DepthState {
                test_enabled: true,
                func: CompareFunc::Always,
                write_enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let env = env_fixed(&state);
        {
            let color = fb.color.data_mut();
            let (_, color_band) = color.split_at_mut(4);
            // Reborrow depth/stencil similarly.
            let mut fb2 = Framebuffer::new(4, 2);
            let mut band = FbBand {
                color: color_band,
                depth: fb2.depth.raw_data_mut(),
                stencil: fb2.stencil.data_mut(),
                base: 4,
            };
            let fate = process_fixed(env.state, &mut band, 6, 0.5, env.draw_color);
            assert!(fate);
        }
        assert_eq!(fb.color.get(6), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(fb.color.get(2), [0.0; 4], "row 0 untouched");
    }
}
