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
//! The rasterizer runs both halves a row span of up to
//! [`SPAN`](crate::program::SPAN) fragments at a time. Step 1 is the draw's
//! compiled [`SpanKernel`](crate::program::SpanKernel). Steps 2–5 are
//! [`SpanTests`], lowered once per draw from the [`PipelineState`]: the
//! quad depth is quantized once, each compare function is matched once per
//! span instead of once per fragment, and `Keep` stencil ops are dropped
//! (`StencilState::write(s, Keep) == s` under any write mask). Each test
//! then yields a `u64` lane mask over the span's contiguous depth and
//! stencil slices, and each side effect is applied only to the lanes whose
//! outcome calls for it.
//!
//! Running the span stage by stage is indistinguishable from running each
//! fragment through all five steps in turn. The lanes of a span are
//! distinct pixels of one row, and every step reads and writes only its
//! own pixel's framebuffer values, so no lane can observe another lane's
//! side effects; within each lane the steps keep the order above. Shading
//! reads only textures and constants, never the framebuffer, so shading a
//! span before testing it is likewise unobservable. Every comparison uses
//! the same operator on the same operands as [`CompareFunc::eval`], which
//! matters for NaN alpha: `!(a < b)` is not `a >= b`.
//!
//! The pipeline operates on an [`FbBand`] — a mutable view over a
//! contiguous row range of the framebuffer — so that the rasterizer can
//! process disjoint row bands on parallel host threads, mirroring the
//! device's parallel pixel pipes.

use crate::buffers::{dequantize_depth, quantize_depth, Framebuffer};
use crate::program::isa::FragmentProgram;
use crate::program::SPAN;
use crate::state::{ColorMask, CompareFunc, PipelineState, StencilOp, StencilState};

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

/// The mask of the first `len` lanes of a span.
#[inline(always)]
pub(crate) fn span_lanes(len: usize) -> u64 {
    debug_assert!((1..=SPAN).contains(&len));
    u64::MAX >> (64 - len)
}

/// Pack one 0/1 byte per lane into a lane mask, eight lanes per multiply:
/// the multiplier moves byte `i`'s low bit to bit `56 + i`, and no two
/// partial products overlap, so no carry disturbs the top byte.
#[inline(always)]
fn pack(hits: &[u8; SPAN]) -> u64 {
    let (octets, _) = hits.as_chunks::<8>();
    octets.iter().enumerate().fold(0, |mask, (i, octet)| {
        let bits = u64::from_le_bytes(*octet).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask | bits << (8 * i)
    })
}

/// The lane mask of `pred` over a span's values: bit `l` is set iff
/// `pred(l, values[l])`. Lanes at or past `values.len()` are clear.
#[inline(always)]
fn lanes<T: Copy>(values: &[T], pred: impl Fn(usize, T) -> bool) -> u64 {
    let mut hits = [0u8; SPAN];
    for (l, (hit, &v)) in hits.iter_mut().zip(values).enumerate() {
        *hit = u8::from(pred(l, v));
    }
    pack(&hits)
}

/// The lanes where `func` passes, with `operands(l, values[l])` giving
/// the lane's (incoming, stored) pair. The function is matched once per
/// span, outside the lane loop, and each arm spells out
/// [`CompareFunc::eval`]'s operator for it (handing `eval` a constant
/// instead measured ~8% slower on fixed-function passes).
#[inline(always)]
fn compare<S: Copy, T: PartialOrd>(
    func: CompareFunc,
    values: &[S],
    operands: impl Fn(usize, S) -> (T, T),
) -> u64 {
    match func {
        CompareFunc::Never => 0,
        CompareFunc::Less => lanes(values, |l, v| {
            let (a, b) = operands(l, v);
            a < b
        }),
        CompareFunc::Equal => lanes(values, |l, v| {
            let (a, b) = operands(l, v);
            a == b
        }),
        CompareFunc::LessEqual => lanes(values, |l, v| {
            let (a, b) = operands(l, v);
            a <= b
        }),
        CompareFunc::Greater => lanes(values, |l, v| {
            let (a, b) = operands(l, v);
            a > b
        }),
        CompareFunc::NotEqual => lanes(values, |l, v| {
            let (a, b) = operands(l, v);
            a != b
        }),
        CompareFunc::GreaterEqual => lanes(values, |l, v| {
            let (a, b) = operands(l, v);
            a >= b
        }),
        CompareFunc::Always => span_lanes(values.len()),
    }
}

/// Visit the set lanes of `mask`, lowest first.
#[inline(always)]
fn for_each_lane(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// The stencil test of a draw, lowered.
struct StencilTests {
    state: StencilState,
    /// `reference & value_mask`.
    reference: u8,
    /// The three update ops, `None` where the op is `Keep`.
    fail: Option<StencilOp>,
    zfail: Option<StencilOp>,
    zpass: Option<StencilOp>,
}

impl StencilTests {
    /// Apply `op` (if any) to the `mask` lanes of a span's stencil values.
    #[inline(always)]
    fn update(&self, op: Option<StencilOp>, stencil: &mut [u8], mask: u64) {
        if let Some(op) = op {
            for_each_lane(mask, |l| stencil[l] = self.state.write(stencil[l], op));
        }
    }
}

/// The fixed-function tests of one draw (steps 2–5), lowered from its
/// [`PipelineState`] and run a row span at a time.
pub(crate) struct SpanTests {
    /// Alpha test: `(func, reference)` when enabled.
    alpha: Option<(CompareFunc, f32)>,
    /// Whether the draw's flat alpha passes the alpha test.
    flat_alpha_passes: bool,
    stencil: Option<StencilTests>,
    /// Depth bounds `(min, max)` when enabled.
    bounds: Option<(f64, f64)>,
    /// Depth test: `(func, compare_mask)` when enabled.
    depth_test: Option<(CompareFunc, u32)>,
    depth_write: bool,
    /// The quad depth, quantized.
    quad_depth: u32,
    color_mask: ColorMask,
}

impl SpanTests {
    /// Lower `state` for a draw at `quad_depth` whose fragments, unless
    /// shaded, carry alpha `flat_alpha`.
    pub fn lower(state: &PipelineState, quad_depth: f32, flat_alpha: f32) -> SpanTests {
        let keep = |op| (op != StencilOp::Keep).then_some(op);
        let st = &state.stencil;
        SpanTests {
            alpha: state
                .alpha
                .enabled
                .then_some((state.alpha.func, state.alpha.reference)),
            flat_alpha_passes: state.alpha.test(flat_alpha),
            stencil: st.enabled.then(|| StencilTests {
                state: *st,
                reference: st.reference & st.value_mask,
                fail: keep(st.op_fail),
                zfail: keep(st.op_zfail),
                zpass: keep(st.op_zpass),
            }),
            bounds: state
                .depth_bounds
                .enabled
                .then_some((state.depth_bounds.min, state.depth_bounds.max)),
            depth_test: state
                .depth
                .test_enabled
                .then_some((state.depth.func, state.depth.compare_mask)),
            depth_write: state.depth.write_enabled,
            quad_depth: quantize_depth(quad_depth as f64),
            color_mask: state.color_mask,
        }
    }

    /// Run the tests and their depth/stencil side effects on the `live`
    /// lanes of the span of `len` pixels starting at global index `first`,
    /// returning the lanes that pass. `depth` holds per-lane fragment depths
    /// (a program writing `result.depth`), else every lane is at the quad
    /// depth; `alpha` holds per-lane alphas (a shaded span), else every
    /// lane carries the flat alpha. Colors are written separately, by
    /// [`write_colors`](Self::write_colors).
    pub fn run(
        &self,
        band: &mut FbBand<'_>,
        first: usize,
        len: usize,
        mut live: u64,
        depth: Option<&[f32; SPAN]>,
        alpha: Option<&[f32; SPAN]>,
    ) -> u64 {
        debug_assert_eq!(live & !span_lanes(len), 0);
        // 2. Alpha test: discarded fragments have no further effect.
        match (self.alpha, alpha) {
            (Some((func, reference)), Some(alpha)) => {
                live &= compare(func, &alpha[..len], |_, a| (a, reference));
            }
            _ if !self.flat_alpha_passes => return 0,
            _ => {}
        }
        let i = band.local(first);
        let stored_depth = &mut band.depth[i..i + len];
        let stored_stencil = &mut band.stencil[i..i + len];

        // 3. Stencil test.
        if let Some(st) = &self.stencil {
            let (reference, value_mask) = (st.reference, st.state.value_mask);
            let pass = compare(st.state.func, stored_stencil, |_, s| {
                (reference, s & value_mask)
            });
            st.update(st.fail, stored_stencil, live & !pass);
            live &= pass;
        }

        // 4. Depth bounds test, on the *stored* depth; no stencil update.
        if let Some((min, max)) = self.bounds {
            live &= lanes(stored_depth, |_, d| {
                let d = dequantize_depth(d);
                d >= min && d <= max
            });
        }
        if live == 0 {
            return 0;
        }

        // 5. Depth test, in the quantized 24-bit integer domain, under the
        // (normally all-ones) depth compare mask.
        let lane_depths = depth
            .filter(|_| self.depth_test.is_some() || self.depth_write)
            .map(|d| d.map(|d| quantize_depth(d as f64)));
        let pass = match (self.depth_test, &lane_depths) {
            (None, _) => live,
            (Some((func, mask)), None) => {
                let q = self.quad_depth & mask;
                live & compare(func, stored_depth, |_, s| (q, s & mask))
            }
            (Some((func, mask)), Some(q)) => {
                live & compare(func, stored_depth, |l, s| (q[l] & mask, s & mask))
            }
        };
        if let Some(st) = &self.stencil {
            st.update(st.zfail, stored_stencil, live & !pass);
            st.update(st.zpass, stored_stencil, pass);
        }
        if self.depth_write {
            match &lane_depths {
                None => for_each_lane(pass, |l| stored_depth[l] = self.quad_depth),
                Some(q) => for_each_lane(pass, |l| stored_depth[l] = q[l]),
            }
        }
        pass
    }

    /// Whether passing fragments write any color channel.
    pub fn writes_color(&self) -> bool {
        self.color_mask.any()
    }

    /// Write the colors of the `pass` lanes of the span starting at global
    /// index `first`, honoring the color mask.
    pub fn write_colors(
        &self,
        band: &mut FbBand<'_>,
        first: usize,
        pass: u64,
        color: impl Fn(usize) -> [f32; 4],
    ) {
        if !self.writes_color() {
            return;
        }
        let i = band.local(first);
        for_each_lane(pass, |l| {
            write_color(self.color_mask, &mut band.color[i + l], color(l))
        });
    }
}

/// Write a passing fragment's color, honoring the color mask.
#[inline(always)]
fn write_color(mask: ColorMask, stored: &mut [f32; 4], color: [f32; 4]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar test sequence, one fragment through all four tests at a
    /// time: the oracle for [`SpanTests`].
    /// Returns whether the fragment passed alpha, stencil, bounds and
    /// depth; the caller writes color for passing fragments.
    fn run_tests(
        state: &PipelineState,
        band: &mut FbBand<'_>,
        idx: usize,
        frag_depth: f32,
        alpha: f32,
    ) -> bool {
        let idx = band.local(idx);
        if !state.alpha.test(alpha) {
            return false;
        }
        let stencil = &state.stencil;
        if stencil.enabled {
            let stored = band.stencil[idx];
            if !stencil.test(stored) {
                band.stencil[idx] = stencil.write(stored, stencil.op_fail);
                return false;
            }
        }
        if state.depth_bounds.enabled && !state.depth_bounds.test(dequantize_depth(band.depth[idx]))
        {
            return false;
        }
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

    /// Run one fixed-function fragment at global index `idx` through the
    /// span stage (a one-lane span); returns whether it passed.
    fn process_one(env: &FixedDraw<'_>, band: &mut FbBand<'_>, idx: usize) -> bool {
        let tests = SpanTests::lower(env.state, 0.5, env.draw_color[3]);
        let pass = tests.run(band, idx, 1, 1, None, None);
        tests.write_colors(band, idx, pass, |_| env.draw_color);
        pass == 1
    }

    fn run_one(env: &FixedDraw<'_>, fb: &mut Framebuffer, idx: usize) -> bool {
        process_one(env, &mut FbBand::full(fb), idx)
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
            assert!(process_one(&env, &mut band, 6));
        }
        assert_eq!(fb.color.get(6), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(fb.color.get(2), [0.0; 4], "row 0 untouched");
    }

    const FUNCS: [CompareFunc; 8] = [
        CompareFunc::Never,
        CompareFunc::Less,
        CompareFunc::Equal,
        CompareFunc::LessEqual,
        CompareFunc::Greater,
        CompareFunc::NotEqual,
        CompareFunc::GreaterEqual,
        CompareFunc::Always,
    ];

    const OPS: [StencilOp; 8] = [
        StencilOp::Keep,
        StencilOp::Zero,
        StencilOp::Replace,
        StencilOp::Incr,
        StencilOp::Decr,
        StencilOp::Invert,
        StencilOp::IncrWrap,
        StencilOp::DecrWrap,
    ];

    /// Width of the two-row framebuffer the proptest draws into.
    const FB_W: usize = 70;

    /// SplitMix64: state, framebuffer and fragments derive from one
    /// proptest seed.
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

        fn flip(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// A full-range mask or an arbitrary one.
        fn mask_u8(&mut self) -> u8 {
            if self.flip() {
                0xFF
            } else {
                self.next() as u8
            }
        }

        /// A fragment depth or alpha: NaN, ±0, below 0, above 1, a value
        /// on a 1/64 grid (so `Equal` ties with stored depths and alpha
        /// references occur) or any f32 bit pattern.
        fn lane_value(&mut self) -> f32 {
            match self.below(8) {
                0 => f32::NAN,
                1 => self.pick(&[0.0, -0.0]),
                2 => -(self.below(64) as f32) / 64.0 - 1e-3,
                3 => 1.0 + self.below(64) as f32 / 64.0,
                4 | 5 => self.below(65) as f32 / 64.0,
                _ => f32::from_bits(self.next() as u32),
            }
        }

        /// A stencil value: 0, 0x5A, 0xFF or any.
        fn stencil_value(&mut self) -> u8 {
            let any = self.next() as u8;
            self.pick(&[0, 0x5A, 0xFF, any])
        }

        /// A stored depth: on the same 1/64 grid, or any 24-bit value.
        fn stored_depth(&mut self) -> u32 {
            if self.flip() {
                quantize_depth(self.below(65) as f64 / 64.0)
            } else {
                self.next() as u32 & crate::buffers::DEPTH_MAX
            }
        }

        fn color(&mut self) -> [f32; 4] {
            std::array::from_fn(|_| self.lane_value())
        }

        fn state(&mut self) -> PipelineState {
            let mut st = PipelineState::default();
            st.alpha.enabled = self.flip();
            st.alpha.func = self.pick(&FUNCS);
            st.alpha.reference = self.lane_value();
            st.stencil = StencilState {
                enabled: self.flip(),
                func: self.pick(&FUNCS),
                reference: self.stencil_value(),
                value_mask: self.mask_u8(),
                write_mask: self.mask_u8(),
                op_fail: self.pick(&OPS),
                op_zfail: self.pick(&OPS),
                op_zpass: self.pick(&OPS),
            };
            st.depth.test_enabled = self.flip();
            st.depth.func = self.pick(&FUNCS);
            st.depth.write_enabled = self.flip();
            if self.flip() {
                st.depth.compare_mask = self.next() as u32 & crate::state::DEPTH_COMPARE_MASK_ALL;
            }
            st.depth_bounds.enabled = self.flip();
            st.depth_bounds.min = self.below(80) as f64 / 64.0 - 0.125;
            st.depth_bounds.max = self.below(80) as f64 / 64.0 - 0.125;
            st.color_mask = ColorMask {
                red: self.flip(),
                green: self.flip(),
                blue: self.flip(),
                alpha: self.flip(),
            };
            st
        }

        /// A framebuffer whose two rows hold seeded color, depth and
        /// stencil values.
        fn framebuffer(&mut self) -> Framebuffer {
            let mut fb = Framebuffer::new(FB_W, 2);
            fb.color
                .data_mut()
                .iter_mut()
                .for_each(|c| *c = self.color());
            let depth = fb.depth.raw_data_mut();
            depth.iter_mut().for_each(|d| *d = self.stored_depth());
            let stencil = fb.stencil.data_mut();
            stencil.iter_mut().for_each(|s| *s = self.stencil_value());
            fb
        }
    }

    /// The band over row 1 of `fb`, so global and local indices differ.
    fn row1(fb: &mut Framebuffer) -> FbBand<'_> {
        FbBand {
            color: &mut fb.color.data_mut()[FB_W..],
            depth: &mut fb.depth.raw_data_mut()[FB_W..],
            stencil: &mut fb.stencil.data_mut()[FB_W..],
            base: FB_W,
        }
    }

    fn fb_bits(fb: &Framebuffer) -> (Vec<[u32; 4]>, Vec<u32>, Vec<u8>) {
        (
            fb.color
                .data()
                .iter()
                .map(|c| c.map(f32::to_bits))
                .collect(),
            fb.depth.raw_data().to_vec(),
            fb.stencil.data().to_vec(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        // The span stage against the scalar oracle over random state,
        // stored depth/stencil/color and fragments: flat ones (the
        // fixed-function and early-z paths) or shaded ones with per-lane
        // alpha, optional per-lane depth and `KIL` flags. A row of 1, 63,
        // 64 or 65 fragments is cut into spans as the rasterizer cuts it;
        // pass masks and framebuffer bytes must match exactly.
        #[test]
        fn span_tests_match_scalar_oracle(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let state = rng.state();
            let mut span_fb = rng.framebuffer();
            let mut oracle_fb = span_fb.clone();
            let len = rng.pick(&[1, 63, 64, 65]);
            let x0 = rng.below(FB_W - len + 1);
            let quad_depth = rng.lane_value();
            let flat = rng.color();
            let shaded = rng.flip();
            let colors: Vec<[f32; 4]> = (0..len)
                .map(|_| if shaded { rng.color() } else { flat })
                .collect();
            let depths: Option<Vec<f32>> =
                (shaded && rng.flip()).then(|| (0..len).map(|_| rng.lane_value()).collect());
            let killed: Vec<bool> = (0..len).map(|_| shaded && rng.below(5) == 0).collect();

            let tests = SpanTests::lower(&state, quad_depth, flat[3]);
            for start in (0..len).step_by(SPAN) {
                let n = (len - start).min(SPAN);
                let first = FB_W + x0 + start;
                let lanes = |f: &dyn Fn(usize) -> f32| -> [f32; SPAN] {
                    std::array::from_fn(|l| if l < n { f(start + l) } else { f32::NAN })
                };
                let depth_lanes = depths.as_ref().map(|d| lanes(&|i| d[i]));
                let alpha_lanes = shaded.then(|| lanes(&|i| colors[i][3]));
                let kills = (0..n).fold(0u64, |m, l| m | u64::from(killed[start + l]) << l);

                let mut band = row1(&mut span_fb);
                let live = span_lanes(n) & !kills;
                let pass = tests.run(
                    &mut band,
                    first,
                    n,
                    live,
                    depth_lanes.as_ref(),
                    alpha_lanes.as_ref(),
                );
                tests.write_colors(&mut band, first, pass, |l| colors[start + l]);

                let mut band = row1(&mut oracle_fb);
                let mut want = 0u64;
                for l in (0..n).filter(|&l| !killed[start + l]) {
                    let depth = depth_lanes.map_or(quad_depth, |d| d[l]);
                    let alpha = alpha_lanes.map_or(flat[3], |a| a[l]);
                    if run_tests(&state, &mut band, first + l, depth, alpha) {
                        let i = band.local(first + l);
                        write_color(state.color_mask, &mut band.color[i], colors[start + l]);
                        want |= 1 << l;
                    }
                }
                prop_assert_eq!(pass, want, "seed {:#x}, span at lane {}", seed, start);
            }
            prop_assert_eq!(fb_bits(&span_fb), fb_bits(&oracle_fb), "seed {:#x}", seed);
        }
    }
}
