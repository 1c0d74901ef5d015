//! Texture objects: the GPU-resident data representation.
//!
//! §3.3 of the paper: "Data is stored on the GPU as textures. Textures are
//! 2D arrays of values. [...] We store data in textures in the
//! floating-point format. This format can precisely represent integers up
//! to 24 bits."

use crate::error::{GpuError, GpuResult};
use crate::raster::Rect;
use serde::{Deserialize, Serialize};

/// Maximum texture edge supported by the simulated device.
///
/// The GeForce FX generation supported 4096×4096; the paper uses 1000×1000
/// textures holding one million records each.
pub const MAX_TEXTURE_DIM: usize = 4096;

/// Number of bits a single-precision float can represent exactly for
/// integers (the paper relies on this for its 24-bit integer encoding).
pub const EXACT_INT_BITS: u32 = 24;

/// Opaque handle to a device texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TextureId(pub(crate) u32);

impl TextureId {
    /// Raw id, mainly for diagnostics.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Texture channel layout. An RGBA texture packs four attributes per texel,
/// which is how the paper stores multi-attribute records ("we store the
/// attributes of each record in multiple channels of a single texel").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TextureFormat {
    /// One channel (luminance / R).
    R,
    /// Two channels.
    Rg,
    /// Three channels.
    Rgb,
    /// Four channels.
    Rgba,
}

impl TextureFormat {
    /// Number of f32 channels per texel.
    #[inline]
    pub fn channels(self) -> usize {
        match self {
            TextureFormat::R => 1,
            TextureFormat::Rg => 2,
            TextureFormat::Rgb => 3,
            TextureFormat::Rgba => 4,
        }
    }

    /// Build a format from a channel count.
    pub fn from_channels(channels: u8) -> GpuResult<TextureFormat> {
        match channels {
            1 => Ok(TextureFormat::R),
            2 => Ok(TextureFormat::Rg),
            3 => Ok(TextureFormat::Rgb),
            4 => Ok(TextureFormat::Rgba),
            other => Err(GpuError::InvalidChannelCount(other)),
        }
    }
}

/// A 2-D floating-point texture.
///
/// Texels are stored row-major, channels interleaved. Sampling is
/// nearest-neighbor with integer texel coordinates — the only addressing
/// mode the paper's screen-aligned-quad rendering needs, where "the
/// individual elements of the texture, texels, line up with the pixels in
/// the frame-buffer".
///
/// A texture also knows whether it is [plain](Texture::is_plain): whether
/// every texel channel is finite with its sign bit clear. Every
/// constructor and every write keeps that fact current, and texel storage
/// is only written through them, so the compiled fragment kernels may rely
/// on it. Textures of unsigned integer attributes are always plain.
#[derive(Debug, Clone, PartialEq)]
pub struct Texture {
    width: usize,
    height: usize,
    format: TextureFormat,
    data: Vec<f32>,
    plain: bool,
}

/// Whether `v` is finite with its sign bit clear: +0.0 up to `f32::MAX`,
/// subnormals included. The bit patterns of −0.0, negatives, infinities
/// and NaNs all lie at or above that of +inf.
#[inline(always)]
pub(crate) fn is_plain_value(v: f32) -> bool {
    v.to_bits() < f32::INFINITY.to_bits()
}

/// Whether every value is plain: one branch-free pass that the optimizer
/// vectorizes.
fn is_plain(values: &[f32]) -> bool {
    values
        .iter()
        .fold(true, |plain, &v| plain & is_plain_value(v))
}

impl Texture {
    /// Reject texture dimensions the device cannot hold: zero, or wider
    /// or taller than [`MAX_TEXTURE_DIM`].
    pub(crate) fn check_size(width: usize, height: usize) -> GpuResult<()> {
        if width == 0 || height == 0 || width > MAX_TEXTURE_DIM || height > MAX_TEXTURE_DIM {
            return Err(GpuError::InvalidTextureSize { width, height });
        }
        Ok(())
    }

    /// Create a texture from raw interleaved texel data.
    pub fn from_data(
        width: usize,
        height: usize,
        format: TextureFormat,
        data: Vec<f32>,
    ) -> GpuResult<Texture> {
        Texture::check_size(width, height)?;
        let expected = width * height * format.channels();
        if data.len() != expected {
            return Err(GpuError::TextureDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Texture {
            width,
            height,
            format,
            plain: is_plain(&data),
            data,
        })
    }

    /// Create a zero-filled texture.
    pub fn zeroed(width: usize, height: usize, format: TextureFormat) -> GpuResult<Texture> {
        Texture::check_size(width, height)?;
        Ok(Texture {
            width,
            height,
            format,
            data: vec![0.0; width * height * format.channels()],
            plain: true,
        })
    }

    /// Texture width in texels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Texture height in texels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Channel layout.
    #[inline]
    pub fn format(&self) -> TextureFormat {
        self.format
    }

    /// Total number of texels.
    #[inline]
    pub fn texel_count(&self) -> usize {
        self.width * self.height
    }

    /// Size of the texture in bytes on the device (f32 per channel).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Fetch a texel as an RGBA vector; missing channels read as 0 except
    /// alpha which reads as 1, matching GL's expansion rules.
    #[inline(always)]
    pub fn fetch(&self, x: usize, y: usize) -> [f32; 4] {
        debug_assert!(x < self.width && y < self.height);
        let c = self.format.channels();
        let base = (y * self.width + x) * c;
        let mut out = [0.0, 0.0, 0.0, 1.0];
        out[..c].copy_from_slice(&self.data[base..base + c]);
        out
    }

    /// Fetch a single channel of a texel.
    #[inline(always)]
    pub fn fetch_channel(&self, x: usize, y: usize, channel: usize) -> f32 {
        self.fetch(x, y)[channel]
    }

    /// Raw texel storage (row-major, interleaved).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Whether every texel channel is finite and sign-clear (+0.0 up to
    /// `f32::MAX`, subnormals included): no −0.0, negative, infinite or
    /// NaN value anywhere in the texture.
    #[inline]
    pub fn is_plain(&self) -> bool {
        self.plain
    }

    /// Overwrite a rectangular sub-region (like `glTexSubImage2D`).
    pub fn update_sub_image(
        &mut self,
        x: usize,
        y: usize,
        width: usize,
        height: usize,
        data: &[f32],
    ) -> GpuResult<()> {
        let c = self.format.channels();
        if !Rect::new(x, y, width, height).fits(self.width, self.height) {
            return Err(GpuError::InvalidTextureSize { width, height });
        }
        let expected = width * height * c;
        if data.len() != expected {
            return Err(GpuError::TextureDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        for row in 0..height {
            let src = &data[row * width * c..(row + 1) * width * c];
            let dst_base = ((y + row) * self.width + x) * c;
            self.data[dst_base..dst_base + width * c].copy_from_slice(src);
        }
        self.refresh_plain(is_plain(data));
        Ok(())
    }

    /// Overwrite the leading texels of the texture's first rows with
    /// `rows`, one slice of RGBA pixels per texture row, keeping each
    /// pixel's leading channels (the color-buffer copy). Rows must be no
    /// wider than the texture and no more numerous than its rows.
    pub(crate) fn copy_rgba_rows<'p>(&mut self, rows: impl IntoIterator<Item = &'p [[f32; 4]]>) {
        let c = self.format.channels();
        let mut written_plain = true;
        for (row, pixels) in rows.into_iter().enumerate() {
            let base = row * self.width * c;
            let dst = &mut self.data[base..base + pixels.len() * c];
            for (texel, pixel) in dst.chunks_exact_mut(c).zip(pixels) {
                texel.copy_from_slice(&pixel[..c]);
            }
            written_plain &= is_plain(dst);
        }
        self.refresh_plain(written_plain);
    }

    /// Update the plain fact after a write whose own texels were
    /// `written_plain`: an impure write makes the texture impure, and a
    /// plain write over an impure texture rescans it (the write may have
    /// covered every impure texel).
    fn refresh_plain(&mut self, written_plain: bool) {
        self.plain = written_plain && (self.plain || is_plain(&self.data));
    }
}

/// The texel row or column a texel-space coordinate samples along an edge
/// of `size` texels: nearest-neighbor filtering with clamp-to-edge
/// addressing (negative and NaN coordinates clamp to 0).
#[inline(always)]
pub(crate) fn texel_coord(coord: f32, size: usize) -> usize {
    (coord.floor().max(0.0) as usize).min(size - 1)
}

/// Encode an unsigned integer attribute value into the f32 texel domain.
///
/// Values must fit in [`EXACT_INT_BITS`] bits to be represented exactly;
/// larger values silently lose precision exactly as they would on the real
/// hardware, so callers that care should validate first (see
/// [`fits_exact`]).
#[inline]
pub fn encode_u32(value: u32) -> f32 {
    value as f32
}

/// Decode an f32 texel back to an unsigned integer (round-to-nearest).
/// The rounding is performed in f64 so that values near the 24-bit limit
/// are not perturbed by the addition itself.
#[inline]
pub fn decode_u32(texel: f32) -> u32 {
    debug_assert!(texel >= -0.5);
    (texel as f64 + 0.5) as u32
}

/// Whether an integer survives the f32 round-trip exactly (≤ 24 bits).
#[inline]
pub fn fits_exact(value: u32) -> bool {
    value < (1u32 << EXACT_INT_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_channel_counts() {
        assert_eq!(TextureFormat::R.channels(), 1);
        assert_eq!(TextureFormat::Rg.channels(), 2);
        assert_eq!(TextureFormat::Rgb.channels(), 3);
        assert_eq!(TextureFormat::Rgba.channels(), 4);
        assert_eq!(
            TextureFormat::from_channels(4).unwrap(),
            TextureFormat::Rgba
        );
        assert!(TextureFormat::from_channels(5).is_err());
        assert!(TextureFormat::from_channels(0).is_err());
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(Texture::zeroed(0, 4, TextureFormat::R).is_err());
        assert!(Texture::zeroed(4, 0, TextureFormat::R).is_err());
        assert!(Texture::zeroed(MAX_TEXTURE_DIM + 1, 4, TextureFormat::R).is_err());
        assert!(Texture::zeroed(MAX_TEXTURE_DIM, 1, TextureFormat::R).is_ok());
    }

    #[test]
    fn rejects_mismatched_data() {
        let err = Texture::from_data(2, 2, TextureFormat::Rg, vec![0.0; 7]).unwrap_err();
        assert_eq!(
            err,
            GpuError::TextureDataMismatch {
                expected: 8,
                actual: 7
            }
        );
    }

    #[test]
    fn fetch_expands_to_rgba() {
        let tex = Texture::from_data(2, 1, TextureFormat::Rg, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(tex.fetch(0, 0), [1.0, 2.0, 0.0, 1.0]);
        assert_eq!(tex.fetch(1, 0), [3.0, 4.0, 0.0, 1.0]);
    }

    #[test]
    fn fetch_rgba_interleaved() {
        let data: Vec<f32> = (0..2 * 2 * 4).map(|i| i as f32).collect();
        let tex = Texture::from_data(2, 2, TextureFormat::Rgba, data).unwrap();
        assert_eq!(tex.fetch(0, 0), [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(tex.fetch(1, 0), [4.0, 5.0, 6.0, 7.0]);
        assert_eq!(tex.fetch(0, 1), [8.0, 9.0, 10.0, 11.0]);
        assert_eq!(tex.fetch(1, 1), [12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn sub_image_update() {
        let mut tex = Texture::zeroed(4, 4, TextureFormat::R).unwrap();
        tex.update_sub_image(1, 1, 2, 2, &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        assert_eq!(tex.fetch_channel(1, 1, 0), 1.0);
        assert_eq!(tex.fetch_channel(2, 1, 0), 2.0);
        assert_eq!(tex.fetch_channel(1, 2, 0), 3.0);
        assert_eq!(tex.fetch_channel(2, 2, 0), 4.0);
        assert_eq!(tex.fetch_channel(0, 0, 0), 0.0);
        assert!(tex.update_sub_image(3, 3, 2, 2, &[0.0; 4]).is_err());
    }

    #[test]
    fn sub_image_offsets_that_overflow_are_rejected() {
        let mut tex = Texture::zeroed(4, 4, TextureFormat::R).unwrap();
        for (x, y) in [(usize::MAX, 0), (0, usize::MAX), (usize::MAX, usize::MAX)] {
            let err = tex.update_sub_image(x, y, 1, 1, &[1.0]).unwrap_err();
            assert_eq!(
                err,
                GpuError::InvalidTextureSize {
                    width: 1,
                    height: 1
                }
            );
        }
        let err = tex.update_sub_image(1, 0, usize::MAX, 1, &[]).unwrap_err();
        assert!(matches!(err, GpuError::InvalidTextureSize { .. }));
        assert!(tex.data().iter().all(|&v| v == 0.0));
    }

    /// Values that are not plain: the sign bit, infinities and NaNs.
    const IMPURE: [f32; 6] = [
        -0.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];

    #[test]
    fn plain_fact_after_construction() {
        let plain = [
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            16_777_215.0,
            f32::MAX,
        ];
        let tex = Texture::from_data(5, 1, TextureFormat::R, plain.to_vec()).unwrap();
        assert!(tex.is_plain());
        assert!(Texture::zeroed(3, 2, TextureFormat::Rgba)
            .unwrap()
            .is_plain());
        for bad in IMPURE {
            for at in [0, 3, 7] {
                let mut data = vec![1.0; 8];
                data[at] = bad;
                let tex = Texture::from_data(2, 1, TextureFormat::Rgba, data).unwrap();
                assert!(!tex.is_plain(), "{bad} at {at}");
            }
        }
    }

    #[test]
    fn plain_fact_follows_sub_image_updates() {
        let mut tex = Texture::zeroed(4, 4, TextureFormat::Rg).unwrap();
        tex.update_sub_image(1, 1, 2, 1, &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        assert!(tex.is_plain());
        for bad in IMPURE {
            tex.update_sub_image(3, 2, 1, 1, &[5.0, bad]).unwrap();
            assert!(!tex.is_plain(), "{bad}");
            // A plain write elsewhere leaves the impure texel in place.
            tex.update_sub_image(0, 0, 1, 1, &[6.0, 7.0]).unwrap();
            assert!(!tex.is_plain(), "{bad}");
            // Overwriting it makes the texture plain again.
            tex.update_sub_image(2, 2, 2, 1, &[1.0; 4]).unwrap();
            assert!(tex.is_plain(), "{bad}");
        }
        // A rejected update changes nothing.
        assert!(tex.update_sub_image(3, 3, 2, 1, &[-1.0; 4]).is_err());
        assert!(tex.is_plain());
    }

    #[test]
    fn plain_fact_follows_color_copies() {
        let mut tex = Texture::zeroed(3, 2, TextureFormat::Rg).unwrap();
        let rows: [&[[f32; 4]]; 2] = [&[[1.0, 2.0, -1.0, f32::NAN]; 2], &[[3.0, 4.0, 0.0, 0.0]]];
        // Only the leading two channels are copied.
        tex.copy_rgba_rows(rows);
        assert!(tex.is_plain());
        assert_eq!(tex.fetch(1, 0), [1.0, 2.0, 0.0, 1.0]);
        assert_eq!(tex.fetch(0, 1), [3.0, 4.0, 0.0, 1.0]);
        assert_eq!(tex.fetch(1, 1), [0.0, 0.0, 0.0, 1.0]);
        for bad in IMPURE {
            tex.copy_rgba_rows([&[[0.5, 0.5, 0.0, 0.0], [bad, 0.5, 0.0, 0.0]][..]]);
            assert!(!tex.is_plain(), "{bad}");
            tex.copy_rgba_rows([&[[0.5; 4]; 3][..]]);
            assert!(tex.is_plain(), "{bad}");
        }
    }

    #[test]
    fn integer_roundtrip_up_to_24_bits() {
        for v in [0u32, 1, 2, 1000, (1 << 24) - 1] {
            assert!(fits_exact(v));
            assert_eq!(decode_u32(encode_u32(v)), v);
        }
        assert!(!fits_exact(1 << 24));
        // 2^24 + 1 is NOT exactly representable in f32 — the hardware's
        // documented precision limit.
        assert_ne!(((1u32 << 24) + 1) as f32 as u32, (1 << 24) + 1);
    }

    #[test]
    fn byte_size_accounts_channels() {
        let tex = Texture::zeroed(10, 10, TextureFormat::Rgba).unwrap();
        assert_eq!(tex.byte_size(), 10 * 10 * 4 * 4);
    }
}
