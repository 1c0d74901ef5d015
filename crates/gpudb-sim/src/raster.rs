//! Screen-aligned quad rasterization.
//!
//! The paper's algorithms drive the GPU exclusively by rendering
//! screen-filling quadrilaterals ("To perform computations on the values
//! stored in a texture, we render a single quadrilateral that covers the
//! window" — §3.3). The rasterizer turns a set of axis-aligned rectangles
//! into fragments and pushes them through the per-fragment pipeline a row
//! span of up to [`SPAN`] fragments at a time. Per draw, a bound fragment
//! program is compiled into a [`SpanKernel`] and the fixed-function tests
//! are lowered into [`SpanTests`]; each span is shaded by the one and
//! tested by the other.

use crate::buffers::Framebuffer;
use crate::cost::{DrawCost, HardwareProfile};
use crate::pipeline::{early_tests_eligible, span_lanes, FbBand, SpanTests};
use crate::program::compiled::{SpanKernel, SpanRegisters, SPAN};
use crate::program::interp::FragmentContext;
use crate::program::isa::FragmentProgram;
use crate::state::PipelineState;
use crate::texture::Texture;
use serde::{Deserialize, Serialize};
use std::ops::Range;
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
/// `rows`, up to [`SPAN`] pixels of a row at a time.
fn rasterize_band(
    inputs: &DrawInputs<'_>,
    tests: &SpanTests,
    kernel: Option<&SpanKernel<'_>>,
    band: &mut FbBand<'_>,
    rects: &[Rect],
    fb_width: usize,
    rows: Range<usize>,
) -> DrawCost {
    let state = inputs.state;
    let mut shader = kernel.zip(inputs.program).map(|(kernel, program)| Shader {
        kernel,
        regs: kernel.registers(),
        early: early_tests_eligible(state, program, inputs.early_z),
    });
    let mut cost = DrawCost::default();
    for rect in rects {
        let y0 = rect.y.max(rows.start);
        let y1 = (rect.y + rect.height).min(rows.end);
        for y in y0..y1 {
            let xs = state.scissor.clip_row(y, rect.x, rect.x + rect.width);
            cost.fragments += xs.len() as u64;
            for x in xs.clone().step_by(SPAN) {
                let len = (xs.end - x).min(SPAN);
                let first = y * fb_width + x;
                match &mut shader {
                    None => {
                        let pass = tests.run(band, first, len, span_lanes(len), None, None);
                        cost.passed += u64::from(pass.count_ones());
                        tests.write_colors(band, first, pass, |_| inputs.draw_color);
                    }
                    Some(shader) => shade_span(tests, shader, band, x, y, first, len, &mut cost),
                }
            }
        }
    }
    cost
}

/// Shade and test the `len` fragments at pixels `(x..x + len, y)`, whose
/// global index starts at `first`.
#[allow(clippy::too_many_arguments)]
fn shade_span(
    tests: &SpanTests,
    shader: &mut Shader<'_, '_>,
    band: &mut FbBand<'_>,
    x: usize,
    y: usize,
    first: usize,
    len: usize,
    cost: &mut DrawCost,
) {
    if shader.early {
        // Early path: the incoming depth is the quad depth and the program
        // cannot discard, so run all tests first and shade only spans with
        // survivors (this is what makes early depth-culling "a significant
        // performance increase", §6.2.1).
        let survivors = tests.run(band, first, len, span_lanes(len), None, None);
        let passed = u64::from(survivors.count_ones());
        cost.passed += passed;
        cost.early_rejected += len as u64 - passed;
        // With every color channel masked nothing the program computes is
        // observable: the hardware passes the fragments but skips shading.
        if survivors == 0 || !tests.writes_color() {
            return;
        }
        cost.shaded += passed;
        let out = shader.kernel.shade(&mut shader.regs, x, y);
        tests.write_colors(band, first, survivors, |l| out.color(l));
    } else {
        // Late path: shade first, then test the lanes `KIL` spared.
        cost.shaded += len as u64;
        let out = shader.kernel.shade(&mut shader.regs, x, y);
        let live = span_lanes(len) & !out.killed;
        let pass = tests.run(band, first, len, live, out.depth, Some(out.color[3]));
        cost.passed += u64::from(pass.count_ones());
        tests.write_colors(band, first, pass, |l| out.color(l));
    }
}

/// Rasterize `rects` into `fb`, returning the pass accounting.
///
/// Rectangles must already be validated against the framebuffer size.
/// Large draws split the rows the rects cover into disjoint bands, one per
/// host thread, the last on the calling thread — the simulation analogue
/// of the device's parallel pixel pipes (results are identical: bands
/// never share pixels).
pub(crate) fn rasterize(
    inputs: &DrawInputs<'_>,
    fb: &mut Framebuffer,
    rects: &[Rect],
    profile: &HardwareProfile,
) -> DrawCost {
    let fb_width = fb.width();
    let area: usize = rects.iter().map(Rect::area).sum();
    let rows = rects.iter().map(|r| r.y).min().unwrap_or(0)
        ..rects.iter().map(|r| r.y + r.height).max().unwrap_or(0);
    let threads = raster_workers();
    let ctx = FragmentContext {
        textures: inputs.textures,
        env: inputs.env,
    };
    let kernel = inputs
        .program
        .map(|p| SpanKernel::compile(p, &ctx, inputs.quad_depth, inputs.draw_color));
    let kernel = kernel.as_ref();
    let tests = SpanTests::lower(inputs.state, inputs.quad_depth, inputs.draw_color[3]);
    let tests = &tests;

    let mut cost = if area < PARALLEL_THRESHOLD || threads < 2 || rows.len() < 2 {
        let mut band = FbBand::full(fb);
        rasterize_band(inputs, tests, kernel, &mut band, rects, fb_width, rows)
    } else {
        // Split the covered rows into contiguous bands, one per worker.
        let bands = threads.min(rows.len());
        let rows_per_band = rows.len().div_ceil(bands);
        let skip = rows.start * fb_width;
        let mut color_rest = &mut fb.color.data_mut()[skip..];
        let mut depth_rest = &mut fb.depth.raw_data_mut()[skip..];
        let mut stencil_rest = &mut fb.stencil.data_mut()[skip..];

        let mut total = DrawCost::default();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(bands);
            let mut row = rows.start;
            while row < rows.end {
                let row_end = (row + rows_per_band).min(rows.end);
                let band_px = (row_end - row) * fb_width;
                let (color_band, c_rest) = color_rest.split_at_mut(band_px);
                let (depth_band, d_rest) = depth_rest.split_at_mut(band_px);
                let (stencil_band, s_rest) = stencil_rest.split_at_mut(band_px);
                color_rest = c_rest;
                depth_rest = d_rest;
                stencil_rest = s_rest;
                let mut band = FbBand {
                    color: color_band,
                    depth: depth_band,
                    stencil: stencil_band,
                    base: row * fb_width,
                };
                let band_rows = row..row_end;
                row = row_end;
                if row < rows.end {
                    handles.push(scope.spawn(move |_| {
                        rasterize_band(inputs, tests, kernel, &mut band, rects, fb_width, band_rows)
                    }));
                } else {
                    total = rasterize_band(
                        inputs, tests, kernel, &mut band, rects, fb_width, band_rows,
                    );
                }
            }
            for h in handles {
                let p = h.join().expect("raster worker panicked");
                total.fragments += p.fragments;
                total.shaded += p.shaded;
                total.early_rejected += p.early_rejected;
                total.passed += p.passed;
            }
        })
        .expect("raster scope panicked");
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
