//! Fixed-function per-fragment test state.
//!
//! Models the OpenGL 1.x state machine the paper's algorithms drive: alpha
//! test, stencil test, depth test, the `EXT_depth_bounds_test` extension,
//! scissor, and the color/depth/stencil write masks.

use serde::{Deserialize, Serialize};

/// A relational comparison operator, as accepted by `glDepthFunc`,
/// `glAlphaFunc` and `glStencilFunc`.
///
/// The paper (§3.1) lists the available operators as
/// `=, <, >, <=, >=, !=` plus `never` and `always`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompareFunc {
    /// Test never passes.
    Never,
    /// Passes when `incoming < stored`.
    Less,
    /// Passes when `incoming == stored`.
    Equal,
    /// Passes when `incoming <= stored`.
    LessEqual,
    /// Passes when `incoming > stored`.
    Greater,
    /// Passes when `incoming != stored`.
    NotEqual,
    /// Passes when `incoming >= stored`.
    GreaterEqual,
    /// Test always passes.
    Always,
}

impl CompareFunc {
    /// Evaluate the comparison with the GL convention: the *incoming*
    /// (reference / fragment) value on the left, the *stored* value on the
    /// right.
    #[inline(always)]
    pub fn eval<T: PartialOrd>(self, incoming: T, stored: T) -> bool {
        match self {
            CompareFunc::Never => false,
            CompareFunc::Less => incoming < stored,
            CompareFunc::Equal => incoming == stored,
            CompareFunc::LessEqual => incoming <= stored,
            CompareFunc::Greater => incoming > stored,
            CompareFunc::NotEqual => incoming != stored,
            CompareFunc::GreaterEqual => incoming >= stored,
            CompareFunc::Always => true,
        }
    }

    /// The *converse* operator: `a op b` holds iff `b op.converse() a`.
    ///
    /// The database layer uses this to translate a predicate
    /// `attribute op constant` into a depth function, because the depth test
    /// compares `fragment_depth op stored_attribute` — i.e. with the operand
    /// order flipped relative to the predicate.
    #[inline]
    pub fn converse(self) -> CompareFunc {
        match self {
            CompareFunc::Less => CompareFunc::Greater,
            CompareFunc::LessEqual => CompareFunc::GreaterEqual,
            CompareFunc::Greater => CompareFunc::Less,
            CompareFunc::GreaterEqual => CompareFunc::LessEqual,
            other => other,
        }
    }

    /// The *negated* operator: `a op b` fails iff `a op.negate() b` holds.
    ///
    /// Used to eliminate `NOT` from boolean expressions before CNF
    /// evaluation, as described in §4.2 of the paper.
    #[inline]
    pub fn negate(self) -> CompareFunc {
        match self {
            CompareFunc::Never => CompareFunc::Always,
            CompareFunc::Less => CompareFunc::GreaterEqual,
            CompareFunc::Equal => CompareFunc::NotEqual,
            CompareFunc::LessEqual => CompareFunc::Greater,
            CompareFunc::Greater => CompareFunc::LessEqual,
            CompareFunc::NotEqual => CompareFunc::Equal,
            CompareFunc::GreaterEqual => CompareFunc::Less,
            CompareFunc::Always => CompareFunc::Never,
        }
    }
}

/// Stencil buffer update operation (`glStencilOp`), per §3.4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StencilOp {
    /// Keep the current stencil value.
    Keep,
    /// Set the stencil value to zero.
    Zero,
    /// Replace the stencil value with the reference value.
    Replace,
    /// Increment, clamping at the maximum representable value.
    Incr,
    /// Decrement, clamping at zero.
    Decr,
    /// Bitwise-invert the stencil value.
    Invert,
    /// Increment with wrap-around (`GL_INCR_WRAP`).
    IncrWrap,
    /// Decrement with wrap-around (`GL_DECR_WRAP`).
    DecrWrap,
}

impl StencilOp {
    /// Apply the operation to an 8-bit stencil value.
    #[inline(always)]
    pub fn apply(self, value: u8, reference: u8) -> u8 {
        match self {
            StencilOp::Keep => value,
            StencilOp::Zero => 0,
            StencilOp::Replace => reference,
            StencilOp::Incr => value.saturating_add(1),
            StencilOp::Decr => value.saturating_sub(1),
            StencilOp::Invert => !value,
            StencilOp::IncrWrap => value.wrapping_add(1),
            StencilOp::DecrWrap => value.wrapping_sub(1),
        }
    }
}

/// Full stencil test state: function, reference, masks and the three update
/// operations (`Op1`/`Op2`/`Op3` in the paper's `StencilOp` pseudo-code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StencilState {
    /// Whether the stencil test is enabled at all.
    pub enabled: bool,
    /// Comparison applied as `(reference & value_mask) func (stored & value_mask)`.
    pub func: CompareFunc,
    /// Reference value.
    pub reference: u8,
    /// Mask ANDed with both reference and stored value before comparison.
    pub value_mask: u8,
    /// Mask restricting which stencil bits a stencil op may write.
    pub write_mask: u8,
    /// Operation when the fragment fails the stencil test (paper's `Op1`).
    pub op_fail: StencilOp,
    /// Operation when the fragment passes the stencil test but fails the
    /// depth test (paper's `Op2`).
    pub op_zfail: StencilOp,
    /// Operation when the fragment passes both tests (paper's `Op3`).
    pub op_zpass: StencilOp,
}

impl Default for StencilState {
    fn default() -> Self {
        StencilState {
            enabled: false,
            func: CompareFunc::Always,
            reference: 0,
            value_mask: 0xFF,
            write_mask: 0xFF,
            op_fail: StencilOp::Keep,
            op_zfail: StencilOp::Keep,
            op_zpass: StencilOp::Keep,
        }
    }
}

impl StencilState {
    /// Evaluate the stencil test against a stored stencil value.
    #[inline(always)]
    pub fn test(&self, stored: u8) -> bool {
        if !self.enabled {
            return true;
        }
        self.func
            .eval(self.reference & self.value_mask, stored & self.value_mask)
    }

    /// Apply a stencil operation respecting the write mask.
    #[inline(always)]
    pub fn write(&self, stored: u8, op: StencilOp) -> u8 {
        let new = op.apply(stored, self.reference);
        (new & self.write_mask) | (stored & !self.write_mask)
    }
}

/// Depth test state (`glDepthFunc`, `glDepthMask`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthState {
    /// Whether the depth test is enabled.
    pub test_enabled: bool,
    /// Comparison `fragment_depth func stored_depth`.
    pub func: CompareFunc,
    /// Whether passing fragments write their depth.
    pub write_enabled: bool,
    /// Bit mask ANDed with both quantized depth values before comparison —
    /// the *depth compare mask* the paper wishes for in §6.1 ("Such a mask
    /// would make it easier to test if a number has i-th bit set"). Real
    /// 2004 hardware lacked it; the device only allows non-default values
    /// on profiles with the capability enabled.
    pub compare_mask: u32,
}

/// The all-bits depth compare mask (ordinary depth testing).
pub const DEPTH_COMPARE_MASK_ALL: u32 = (1 << 24) - 1;

impl Default for DepthState {
    fn default() -> Self {
        DepthState {
            test_enabled: false,
            func: CompareFunc::Less,
            write_enabled: true,
            compare_mask: DEPTH_COMPARE_MASK_ALL,
        }
    }
}

/// Alpha test state (`glAlphaFunc`).
///
/// The paper's `Accumulator` (Routine 4.6) relies on the alpha test to
/// reject fragments whose tested bit is 0: "We use the alpha test for
/// rejecting fragments with alpha less than 0.5."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaState {
    /// Whether the alpha test is enabled.
    pub enabled: bool,
    /// Comparison `fragment_alpha func reference`.
    pub func: CompareFunc,
    /// Reference alpha value.
    pub reference: f32,
}

impl Default for AlphaState {
    fn default() -> Self {
        AlphaState {
            enabled: false,
            func: CompareFunc::Always,
            reference: 0.0,
        }
    }
}

impl AlphaState {
    /// Evaluate the alpha test on a fragment's alpha value.
    #[inline(always)]
    pub fn test(&self, alpha: f32) -> bool {
        !self.enabled || self.func.eval(alpha, self.reference)
    }
}

/// `EXT_depth_bounds_test` state.
///
/// Per the extension specification, the test compares the depth value
/// **stored in the framebuffer** at the fragment's location (not the
/// fragment's own depth) against `[min, max]`, and runs after the stencil
/// test but before the depth test; failing fragments are discarded without
/// any stencil update. Routine 4.4 of the paper uses this to evaluate a
/// range query in a single pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthBoundsState {
    /// Whether the depth-bounds test is enabled.
    pub enabled: bool,
    /// Lower bound (inclusive), in normalized depth units.
    pub min: f64,
    /// Upper bound (inclusive), in normalized depth units.
    pub max: f64,
}

impl Default for DepthBoundsState {
    fn default() -> Self {
        DepthBoundsState {
            enabled: false,
            min: 0.0,
            max: 1.0,
        }
    }
}

impl DepthBoundsState {
    /// Evaluate the bounds test against a stored (normalized) depth value.
    #[inline(always)]
    pub fn test(&self, stored: f64) -> bool {
        !self.enabled || (stored >= self.min && stored <= self.max)
    }
}

/// Scissor rectangle restricting rasterization (`glScissor`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScissorState {
    /// Whether scissoring is enabled.
    pub enabled: bool,
    /// Left edge (inclusive).
    pub x: usize,
    /// Top edge (inclusive).
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Default for ScissorState {
    fn default() -> Self {
        ScissorState {
            enabled: false,
            x: 0,
            y: 0,
            width: usize::MAX,
            height: usize::MAX,
        }
    }
}

impl ScissorState {
    /// Whether pixel `(x, y)` survives the scissor test.
    #[inline(always)]
    pub fn contains(&self, x: usize, y: usize) -> bool {
        !self.enabled
            || (x >= self.x && y >= self.y && x - self.x < self.width && y - self.y < self.height)
    }

    /// The pixels of row `y`'s range `x0..x1` that survive the test: the
    /// same pixels [`contains`](Self::contains) accepts, as one range.
    #[inline]
    pub fn clip_row(&self, y: usize, x0: usize, x1: usize) -> std::ops::Range<usize> {
        if !self.enabled {
            return x0..x1;
        }
        if y < self.y || y - self.y >= self.height {
            return x0..x0;
        }
        x0.max(self.x)..x1.min(self.x.saturating_add(self.width))
    }
}

/// Per-channel color write mask (`glColorMask`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColorMask {
    /// Whether the red channel is writable.
    pub red: bool,
    /// Whether the green channel is writable.
    pub green: bool,
    /// Whether the blue channel is writable.
    pub blue: bool,
    /// Whether the alpha channel is writable.
    pub alpha: bool,
}

impl Default for ColorMask {
    fn default() -> Self {
        ColorMask {
            red: true,
            green: true,
            blue: true,
            alpha: true,
        }
    }
}

impl ColorMask {
    /// A mask disabling all color writes — the common configuration for the
    /// paper's algorithms, which only care about depth/stencil side effects
    /// and occlusion counts.
    pub const NONE: ColorMask = ColorMask {
        red: false,
        green: false,
        blue: false,
        alpha: false,
    };

    /// Whether any channel is written at all.
    #[inline(always)]
    pub fn any(&self) -> bool {
        self.red || self.green || self.blue || self.alpha
    }
}

/// The complete fixed-function pipeline state of the simulated device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineState {
    /// Alpha test state.
    pub alpha: AlphaState,
    /// Stencil test state.
    pub stencil: StencilState,
    /// Depth test state.
    pub depth: DepthState,
    /// Depth-bounds test state.
    pub depth_bounds: DepthBoundsState,
    /// Scissor state.
    pub scissor: ScissorState,
    /// Color write mask.
    pub color_mask: ColorMask,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_func_eval_matches_operator() {
        use CompareFunc::*;
        assert!(Less.eval(1, 2));
        assert!(!Less.eval(2, 2));
        assert!(LessEqual.eval(2, 2));
        assert!(Greater.eval(3, 2));
        assert!(!Greater.eval(2, 2));
        assert!(GreaterEqual.eval(2, 2));
        assert!(Equal.eval(5, 5));
        assert!(NotEqual.eval(5, 6));
        assert!(Always.eval(0, 100));
        assert!(!Never.eval(0, 0));
    }

    #[test]
    fn converse_flips_operand_order() {
        use CompareFunc::*;
        for op in [
            Never,
            Less,
            Equal,
            LessEqual,
            Greater,
            NotEqual,
            GreaterEqual,
            Always,
        ] {
            for a in 0..4 {
                for b in 0..4 {
                    assert_eq!(op.eval(a, b), op.converse().eval(b, a), "{op:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn negate_is_logical_complement() {
        use CompareFunc::*;
        for op in [
            Never,
            Less,
            Equal,
            LessEqual,
            Greater,
            NotEqual,
            GreaterEqual,
            Always,
        ] {
            for a in 0..4 {
                for b in 0..4 {
                    assert_eq!(op.eval(a, b), !op.negate().eval(a, b), "{op:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn stencil_ops_clamp_and_wrap() {
        assert_eq!(StencilOp::Incr.apply(255, 0), 255);
        assert_eq!(StencilOp::IncrWrap.apply(255, 0), 0);
        assert_eq!(StencilOp::Decr.apply(0, 0), 0);
        assert_eq!(StencilOp::DecrWrap.apply(0, 0), 255);
        assert_eq!(StencilOp::Invert.apply(0b1010_0101, 0), 0b0101_1010);
        assert_eq!(StencilOp::Replace.apply(7, 42), 42);
        assert_eq!(StencilOp::Zero.apply(7, 42), 0);
        assert_eq!(StencilOp::Keep.apply(7, 42), 7);
    }

    #[test]
    fn stencil_write_respects_write_mask() {
        let st = StencilState {
            write_mask: 0x0F,
            reference: 0xFF,
            ..Default::default()
        };
        assert_eq!(st.write(0xA0, StencilOp::Replace), 0xAF);
    }

    #[test]
    fn stencil_test_respects_value_mask() {
        let st = StencilState {
            enabled: true,
            func: CompareFunc::Equal,
            reference: 0x12,
            value_mask: 0x0F,
            ..Default::default()
        };
        // Only low nibble compared: 0x2 == 0x2.
        assert!(st.test(0xF2));
        assert!(!st.test(0xF3));
    }

    #[test]
    fn disabled_tests_always_pass() {
        let st = StencilState::default();
        assert!(st.test(123));
        let al = AlphaState::default();
        assert!(al.test(-1.0));
        let db = DepthBoundsState::default();
        assert!(db.test(0.5));
    }

    #[test]
    fn depth_bounds_inclusive() {
        let db = DepthBoundsState {
            enabled: true,
            min: 0.25,
            max: 0.75,
        };
        assert!(db.test(0.25));
        assert!(db.test(0.75));
        assert!(!db.test(0.249));
        assert!(!db.test(0.751));
    }

    #[test]
    fn scissor_contains() {
        let sc = ScissorState {
            enabled: true,
            x: 2,
            y: 3,
            width: 4,
            height: 2,
        };
        assert!(sc.contains(2, 3));
        assert!(sc.contains(5, 4));
        assert!(!sc.contains(1, 3));
        assert!(!sc.contains(6, 4));
        assert!(!sc.contains(2, 5));
    }

    #[test]
    fn scissor_clip_row_matches_contains() {
        let scissors = [
            ScissorState::default(),
            ScissorState {
                enabled: true,
                x: 2,
                y: 3,
                width: 4,
                height: 2,
            },
            ScissorState {
                enabled: true,
                x: 5,
                y: 0,
                width: usize::MAX,
                height: usize::MAX,
            },
        ];
        for sc in scissors {
            for y in 0..8 {
                for (x0, x1) in [(0, 10), (3, 4), (6, 9), (4, 4)] {
                    let clipped = sc.clip_row(y, x0, x1);
                    let want: Vec<usize> = (x0..x1).filter(|&x| sc.contains(x, y)).collect();
                    assert_eq!(clipped.collect::<Vec<_>>(), want, "{sc:?} y={y} {x0}..{x1}");
                }
            }
        }
    }
}
