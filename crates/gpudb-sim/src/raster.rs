//! Screen-aligned quad rasterization.
//!
//! The paper's algorithms drive the GPU exclusively by rendering
//! screen-filling quadrilaterals ("To perform computations on the values
//! stored in a texture, we render a single quadrilateral that covers the
//! window" — §3.3). The rasterizer turns a set of axis-aligned rectangles
//! into fragments and pushes each through the per-fragment pipeline. A
//! bound fragment program is compiled once per draw into a
//! [`SpanKernel`], which shades each row span of up to [`SPAN`] fragments
//! before the fixed-function tests run on its outputs.

use crate::buffers::Framebuffer;
use crate::cost::{DrawCost, HardwareProfile};
use crate::pipeline::{early_tests_eligible, process_fixed, run_tests, write_color, FbBand};
use crate::program::compiled::{SpanKernel, SpanRegisters, SPAN};
use crate::program::interp::FragmentContext;
use crate::program::isa::FragmentProgram;
use crate::state::PipelineState;
use crate::texture::Texture;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// An axis-aligned pixel rectangle, the rasterizer's primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x: usize,
    /// Top edge (inclusive).
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Rect {
    /// Construct a rectangle.
    pub fn new(x: usize, y: usize, width: usize, height: usize) -> Rect {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// A rectangle covering an entire `width`×`height` framebuffer.
    pub fn full(width: usize, height: usize) -> Rect {
        Rect::new(0, 0, width, height)
    }

    /// Pixel count.
    pub fn area(&self) -> usize {
        self.width * self.height
    }

    /// Whether the rectangle fits within a `width`×`height` framebuffer.
    pub fn fits(&self, width: usize, height: usize) -> bool {
        self.x.checked_add(self.width).is_some_and(|r| r <= width)
            && self.y.checked_add(self.height).is_some_and(|b| b <= height)
    }

    /// Rectangles covering exactly the first `count` pixels of a row-major
    /// `width`-wide grid: full rows first, then a partial last row. This is
    /// how the database layer renders a quad over exactly `n` records when
    /// `n` is not a multiple of the texture width.
    pub fn covering_prefix(count: usize, width: usize) -> Vec<Rect> {
        assert!(width > 0, "grid width must be positive");
        let full_rows = count / width;
        let remainder = count % width;
        let mut rects = Vec::with_capacity(2);
        if full_rows > 0 {
            rects.push(Rect::new(0, 0, width, full_rows));
        }
        if remainder > 0 {
            rects.push(Rect::new(0, full_rows, remainder, 1));
        }
        rects
    }
}

/// Everything a draw call needs, borrowed from the device.
pub(crate) struct DrawInputs<'a> {
    pub state: &'a PipelineState,
    pub program: Option<&'a FragmentProgram>,
    pub textures: &'a [Option<&'a Texture>],
    pub env: &'a [[f32; 4]],
    /// Depth at which the quad is rendered (the paper's `RenderQuad(d)`).
    pub quad_depth: f32,
    /// Flat primary color of the quad.
    pub draw_color: [f32; 4],
    /// Whether the early-z optimization is enabled on the device.
    pub early_z: bool,
}

/// Minimum total fragment count before the rasterizer fans out across
/// host threads (below this, thread startup dominates).
const PARALLEL_THRESHOLD: usize = 1 << 15;

/// Host threads a large draw fans out across, at most 8. Computed once:
/// `available_parallelism` reads cgroup files on Linux, tens of
/// microseconds per call.
fn raster_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

/// A draw's program, compiled, with one thread's register file.
struct Shader<'k, 'a> {
    kernel: &'k SpanKernel<'a>,
    regs: SpanRegisters,
    /// Whether the early-z path applies: test first, shade survivors.
    early: bool,
}

/// Rasterize one row band: process every rect pixel whose row falls in
/// `[row_start, row_end)`.
fn rasterize_band(
    inputs: &DrawInputs<'_>,
    kernel: Option<&SpanKernel<'_>>,
    band: &mut FbBand<'_>,
    rects: &[Rect],
    fb_width: usize,
    row_start: usize,
    row_end: usize,
) -> DrawCost {
    let state = inputs.state;
    let mut shader = kernel.zip(inputs.program).map(|(kernel, program)| Shader {
        kernel,
        regs: kernel.registers(),
        early: early_tests_eligible(state, program, inputs.early_z),
    });
    let mut cost = DrawCost::default();
    for rect in rects {
        let y0 = rect.y.max(row_start);
        let y1 = (rect.y + rect.height).min(row_end);
        for y in y0..y1 {
            let xs = state.scissor.clip_row(y, rect.x, rect.x + rect.width);
            if xs.is_empty() {
                continue;
            }
            cost.fragments += xs.len() as u64;
            let row_base = y * fb_width;
            match &mut shader {
                None => {
                    for x in xs {
                        if process_fixed(
                            state,
                            band,
                            row_base + x,
                            inputs.quad_depth,
                            inputs.draw_color,
                        ) {
                            cost.passed += 1;
                        }
                    }
                }
                Some(shader) => {
                    for x in xs.clone().step_by(SPAN) {
                        let len = (xs.end - x).min(SPAN);
                        shade_span(inputs, shader, band, x, y, row_base, len, &mut cost);
                    }
                }
            }
        }
    }
    cost
}

/// Shade and test the `len` fragments at pixels `(x..x + len, y)`.
#[allow(clippy::too_many_arguments)]
fn shade_span(
    inputs: &DrawInputs<'_>,
    shader: &mut Shader<'_, '_>,
    band: &mut FbBand<'_>,
    x: usize,
    y: usize,
    row_base: usize,
    len: usize,
    cost: &mut DrawCost,
) {
    let state = inputs.state;
    let first = row_base + x;
    if shader.early {
        // Early path: the incoming depth is the quad depth and the program
        // cannot discard, so run all tests first and shade only spans with
        // survivors (this is what makes early depth-culling "a significant
        // performance increase", §6.2.1).
        let mut survivors = 0u64;
        for lane in 0..len {
            if run_tests(
                state,
                band,
                first + lane,
                inputs.quad_depth,
                inputs.draw_color[3],
            ) {
                survivors |= 1 << lane;
            }
        }
        let passed = u64::from(survivors.count_ones());
        cost.passed += passed;
        cost.early_rejected += len as u64 - passed;
        // With every color channel masked nothing the program computes is
        // observable: the hardware passes the fragments but skips shading.
        if survivors == 0 || !state.color_mask.any() {
            return;
        }
        cost.shaded += passed;
        let out = shader.kernel.shade(&mut shader.regs, x, y);
        while survivors != 0 {
            let lane = survivors.trailing_zeros() as usize;
            survivors &= survivors - 1;
            write_color(state, band, first + lane, out.color(lane));
        }
    } else {
        // Late path: shade first, then test.
        cost.shaded += len as u64;
        let out = shader.kernel.shade(&mut shader.regs, x, y);
        for lane in 0..len {
            if out.killed(lane) {
                continue;
            }
            let depth = out.depth(lane).unwrap_or(inputs.quad_depth);
            let color = out.color(lane);
            if run_tests(state, band, first + lane, depth, color[3]) {
                write_color(state, band, first + lane, color);
                cost.passed += 1;
            }
        }
    }
}

/// Rasterize `rects` into `fb`, returning the pass accounting.
///
/// Rectangles must already be validated against the framebuffer size.
/// Large draws are split into disjoint row bands processed on parallel
/// host threads — the simulation analogue of the device's parallel pixel
/// pipes (results are identical: bands never share pixels).
pub(crate) fn rasterize(
    inputs: &DrawInputs<'_>,
    fb: &mut Framebuffer,
    rects: &[Rect],
    profile: &HardwareProfile,
) -> DrawCost {
    let fb_width = fb.width();
    let fb_height = fb.height();
    let area: usize = rects.iter().map(Rect::area).sum();
    let threads = raster_workers();
    let ctx = FragmentContext {
        textures: inputs.textures,
        env: inputs.env,
    };
    let kernel = inputs
        .program
        .map(|p| SpanKernel::compile(p, &ctx, inputs.quad_depth, inputs.draw_color));
    let kernel = kernel.as_ref();

    let mut cost = if area < PARALLEL_THRESHOLD || threads < 2 || fb_height < 2 {
        let mut band = FbBand::full(fb);
        rasterize_band(inputs, kernel, &mut band, rects, fb_width, 0, fb_height)
    } else {
        // Split the framebuffer into contiguous row bands, one per worker.
        let bands = threads.min(fb_height);
        let rows_per_band = fb_height.div_ceil(bands);
        let mut color_rest = fb.color.data_mut();
        let mut depth_rest = fb.depth.raw_data_mut();
        let mut stencil_rest = fb.stencil.data_mut();

        let mut partials: Vec<DrawCost> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(bands);
            let mut row = 0usize;
            while row < fb_height {
                let row_end = (row + rows_per_band).min(fb_height);
                let band_px = (row_end - row) * fb_width;
                let (color_band, c_rest) = color_rest.split_at_mut(band_px);
                let (depth_band, d_rest) = depth_rest.split_at_mut(band_px);
                let (stencil_band, s_rest) = stencil_rest.split_at_mut(band_px);
                color_rest = c_rest;
                depth_rest = d_rest;
                stencil_rest = s_rest;
                let base = row * fb_width;
                let row_start = row;
                handles.push(scope.spawn(move |_| {
                    let mut band = FbBand {
                        color: color_band,
                        depth: depth_band,
                        stencil: stencil_band,
                        base,
                    };
                    rasterize_band(
                        inputs, kernel, &mut band, rects, fb_width, row_start, row_end,
                    )
                }));
                row = row_end;
            }
            partials = handles
                .into_iter()
                .map(|h| h.join().expect("raster worker panicked"))
                .collect();
        })
        .expect("raster scope panicked");

        let mut total = DrawCost::default();
        for p in partials {
            total.fragments += p.fragments;
            total.shaded += p.shaded;
            total.early_rejected += p.early_rejected;
            total.passed += p.passed;
        }
        total
    };

    let program_cycles = inputs.program.map_or(0, |p| p.cycle_cost);
    cost.instructions = cost.shaded * inputs.program.map_or(0, |p| p.len() as u64);
    cost.modeled_seconds = profile.raster_seconds(cost.fragments, cost.shaded, program_cycles)
        + profile.draw_call_overhead_s;
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_area_and_fit() {
        let r = Rect::new(1, 2, 3, 4);
        assert_eq!(r.area(), 12);
        assert!(r.fits(4, 6));
        assert!(!r.fits(3, 6));
        assert!(!r.fits(4, 5));
        assert!(Rect::full(10, 10).fits(10, 10));
    }

    #[test]
    fn covering_prefix_exact_rows() {
        let rects = Rect::covering_prefix(20, 5);
        assert_eq!(rects, vec![Rect::new(0, 0, 5, 4)]);
        assert_eq!(rects.iter().map(Rect::area).sum::<usize>(), 20);
    }

    #[test]
    fn covering_prefix_with_remainder() {
        let rects = Rect::covering_prefix(23, 5);
        assert_eq!(rects, vec![Rect::new(0, 0, 5, 4), Rect::new(0, 4, 3, 1)]);
        assert_eq!(rects.iter().map(Rect::area).sum::<usize>(), 23);
    }

    #[test]
    fn covering_prefix_small_count() {
        let rects = Rect::covering_prefix(3, 5);
        assert_eq!(rects, vec![Rect::new(0, 0, 3, 1)]);
    }

    #[test]
    fn covering_prefix_zero() {
        assert!(Rect::covering_prefix(0, 5).is_empty());
    }

    #[test]
    fn covering_prefix_covers_distinct_pixels() {
        // The rects must tile without overlap for any n.
        for n in [1usize, 4, 5, 6, 99, 100, 101] {
            let rects = Rect::covering_prefix(n, 10);
            let mut seen = std::collections::HashSet::new();
            for r in &rects {
                for y in r.y..r.y + r.height {
                    for x in r.x..r.x + r.width {
                        assert!(seen.insert((x, y)), "overlap at ({x},{y}) for n={n}");
                    }
                }
            }
            assert_eq!(seen.len(), n);
        }
    }
}
