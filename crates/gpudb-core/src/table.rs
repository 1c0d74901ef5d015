//! Relational tables on the GPU.
//!
//! §4 of the paper: "To perform these operations on a relational table
//! using GPUs, we store the attributes of each record in multiple channels
//! of a single texel, or the same texel location in multiple textures."
//! This module does both: attributes are packed four per RGBA texture, and
//! a table with more than four attributes spans several textures. Records
//! are laid out row-major in a `width × height` grid (the paper uses
//! 1000 × 1000 textures for its million-record database).

use crate::error::{EngineError, EngineResult};
use crate::ops::ATTRIBUTE_BITS;
use gpudb_sim::raster::Rect;
use gpudb_sim::texture::TextureFormat;
use gpudb_sim::{Gpu, Phase, TextureId};

/// Default texture width, matching the paper's 1000-wide layout.
pub const DEFAULT_WIDTH: usize = 1000;

/// Metadata for one attribute column resident on the GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Attribute name.
    pub name: String,
    /// Index into the table's texture list.
    pub texture_index: usize,
    /// Channel within that texture (0 = R … 3 = A).
    pub channel: usize,
    /// Bits required by the widest value (the `b_max` of the bitwise
    /// algorithms).
    pub bits: u32,
    /// Largest value present, for range planning.
    pub max_value: u32,
}

/// A table uploaded to the device.
#[derive(Debug)]
pub struct GpuTable {
    name: String,
    width: usize,
    height: usize,
    record_count: usize,
    columns: Vec<ColumnMeta>,
    textures: Vec<TextureId>,
    rects: Vec<Rect>,
}

impl GpuTable {
    /// Create a device sized to hold `records` records at the given grid
    /// width (the framebuffer must cover the record grid).
    pub fn device_for(records: usize, width: usize) -> Gpu {
        let width = width.max(1);
        let height = records.div_ceil(width).max(1);
        Gpu::geforce_fx_5900(width, height)
    }

    /// Upload columnar data as a new table. Columns must be non-ragged and
    /// every value must fit in 24 bits. The device framebuffer width fixes
    /// the record grid width. Each texture is staged only after the device
    /// admits it, and an upload that fails part-way deletes the textures it
    /// already created.
    pub fn upload(
        gpu: &mut Gpu,
        name: impl Into<String>,
        columns: &[(&str, &[u32])],
    ) -> EngineResult<GpuTable> {
        let name = name.into();
        let record_count = columns.first().map_or(0, |(_, v)| v.len());
        if columns.iter().any(|(_, v)| v.len() != record_count) {
            return Err(EngineError::MismatchedColumnLengths);
        }
        let mut metas = Vec::with_capacity(columns.len());
        for (index, (col_name, values)) in columns.iter().enumerate() {
            let max_value = values.iter().copied().max().unwrap_or(0);
            let bits = 32 - max_value.leading_zeros();
            if bits > ATTRIBUTE_BITS {
                return Err(EngineError::AttributeTooWide {
                    column: (*col_name).to_string(),
                    bits,
                });
            }
            metas.push(ColumnMeta {
                name: (*col_name).to_string(),
                texture_index: index / 4,
                channel: index % 4,
                bits,
                max_value,
            });
        }

        let width = gpu.width();
        let height = record_count.div_ceil(width).max(1);
        if height > gpu.height() {
            return Err(EngineError::FramebufferTooSmall {
                needed: height,
                available: gpu.height(),
            });
        }

        gpu.set_phase(Phase::Upload);
        let mut textures = Vec::with_capacity(columns.len().div_ceil(4));
        for group in columns.chunks(4) {
            let format = TextureFormat::from_channels(group.len() as u8)?;
            let created =
                gpu.create_texture_with(width, height, format, |data| interleave(data, group));
            match created {
                Ok(id) => textures.push(id),
                Err(e) => {
                    // Best effort: a device reset has already wiped them.
                    for id in textures {
                        let _ = gpu.delete_texture(id);
                    }
                    return Err(e.into());
                }
            }
        }

        Ok(GpuTable {
            name,
            width,
            height,
            record_count,
            columns: metas,
            textures,
            rects: Rect::covering_prefix(record_count, width),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record grid width in texels/pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Record grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Number of attribute columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column metadata by index.
    pub fn column(&self, index: usize) -> EngineResult<&ColumnMeta> {
        self.columns
            .get(index)
            .ok_or(EngineError::ColumnIndexOutOfRange(index))
    }

    /// Resolve a column name to its index.
    pub fn column_index(&self, name: &str) -> EngineResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| EngineError::ColumnNotFound(name.to_string()))
    }

    /// All column metadata.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// Device texture holding a column.
    pub fn texture_for(&self, column: usize) -> EngineResult<TextureId> {
        let meta = self.column(column)?;
        Ok(self.textures[meta.texture_index])
    }

    /// All device textures backing the table, in group order.
    pub fn textures(&self) -> &[TextureId] {
        &self.textures
    }

    /// The screen rectangles covering exactly this table's records.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Override a column's recorded bit width (the `b_max` driving the
    /// bitwise algorithms). Needed when texel contents change after upload
    /// (e.g. streaming sub-image updates) so that pass counts stay correct.
    /// Clamped to the 24-bit encoding limit; widening is always safe
    /// (extra passes count empty bit planes).
    pub fn override_column_bits(&mut self, column: usize, bits: u32) -> EngineResult<()> {
        let meta = self
            .columns
            .get_mut(column)
            .ok_or(EngineError::ColumnIndexOutOfRange(column))?;
        meta.bits = bits.min(ATTRIBUTE_BITS);
        Ok(())
    }

    /// Release the table's textures from the device.
    pub fn free(self, gpu: &mut Gpu) -> EngineResult<()> {
        for id in self.textures {
            gpu.delete_texture(id)?;
        }
        Ok(())
    }

    /// Read a column back from the device texture (host-side verification
    /// helper; the real hardware would pay a readback for this).
    pub fn read_column(&self, gpu: &Gpu, column: usize) -> EngineResult<Vec<u32>> {
        let meta = self.column(column)?;
        let tex = gpu.texture(self.textures[meta.texture_index])?;
        let channels = tex.format().channels();
        Ok(tex
            .data()
            .chunks_exact(channels)
            .take(self.record_count)
            .map(|texel| gpudb_sim::texture::decode_u32(texel[meta.channel]))
            .collect())
    }
}

/// Write a group of one to four equal-length columns into zeroed texel
/// storage, one texel per record in a single sequential pass; the texels
/// past the last record stay zero.
fn interleave(data: &mut [f32], group: &[(&str, &[u32])]) {
    match group.len() {
        1 => interleave_texels::<1>(data, group),
        2 => interleave_texels::<2>(data, group),
        3 => interleave_texels::<3>(data, group),
        4 => interleave_texels::<4>(data, group),
        n => unreachable!("a texture group holds 1 to 4 columns, not {n}"),
    }
}

/// [`interleave`] at a fixed channel count, so that the texel loop has
/// constant-length inner loops and no per-value bounds checks.
fn interleave_texels<const C: usize>(data: &mut [f32], group: &[(&str, &[u32])]) {
    let records = group[0].1.len();
    let columns: [&[u32]; C] = std::array::from_fn(|c| &group[c].1[..records]);
    let (texels, _) = data.as_chunks_mut::<C>();
    for (record, texel) in texels[..records].iter_mut().enumerate() {
        for (value, column) in texel.iter_mut().zip(&columns) {
            *value = column[record] as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table(gpu: &mut Gpu) -> GpuTable {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (0..10).map(|i| i * 100).collect();
        GpuTable::upload(gpu, "t", &[("a", &a), ("b", &b)]).unwrap()
    }

    #[test]
    fn upload_and_readback() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        assert_eq!(t.record_count(), 10);
        assert_eq!(t.column_count(), 2);
        assert_eq!(t.width(), 4);
        assert_eq!(t.height(), 3);
        assert_eq!(t.read_column(&gpu, 0).unwrap(), (0..10).collect::<Vec<_>>());
        assert_eq!(
            t.read_column(&gpu, 1).unwrap(),
            (0..10).map(|i| i * 100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uploaded_textures_are_plain() {
        let mut gpu = GpuTable::device_for(10, 4);
        let max = (1u32 << ATTRIBUTE_BITS) - 1;
        let columns: Vec<Vec<u32>> = (0..6)
            .map(|c| (0..10).map(|i| max - i * c).collect())
            .collect();
        let names = ["a", "b", "c", "d", "e", "f"];
        let named: Vec<(&str, &[u32])> = names
            .into_iter()
            .zip(columns.iter().map(Vec::as_slice))
            .collect();
        let t = GpuTable::upload(&mut gpu, "t", &named).unwrap();
        assert_eq!(t.textures().len(), 2);
        for &id in t.textures() {
            assert!(gpu.texture(id).unwrap().is_plain());
        }
    }

    #[test]
    fn texels_interleave_records_and_zero_the_grid_tail() {
        // 10 records on a 4-wide grid: 12 texels, the last two padding.
        let mut gpu = GpuTable::device_for(10, 4);
        let columns: Vec<Vec<u32>> = (0..7u32)
            .map(|c| (0..10).map(|i| 1 + 100 * c + i).collect())
            .collect();
        let names = ["a", "b", "c", "d", "e", "f", "g"];
        let named: Vec<(&str, &[u32])> = names
            .into_iter()
            .zip(columns.iter().map(Vec::as_slice))
            .collect();
        let t = GpuTable::upload(&mut gpu, "t", &named).unwrap();
        for (group, &id) in columns.chunks(4).zip(t.textures()) {
            let mut expected = vec![0.0f32; 12 * group.len()];
            for (channel, values) in group.iter().enumerate() {
                for (record, &v) in values.iter().enumerate() {
                    expected[record * group.len() + channel] = v as f32;
                }
            }
            assert_eq!(gpu.texture(id).unwrap().data(), expected.as_slice());
        }
    }

    #[test]
    fn rects_cover_records_exactly() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        let area: usize = t.rects().iter().map(Rect::area).sum();
        assert_eq!(area, 10);
    }

    #[test]
    fn two_columns_share_one_texture() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        assert_eq!(t.textures().len(), 1);
        assert_eq!(t.column(0).unwrap().channel, 0);
        assert_eq!(t.column(1).unwrap().channel, 1);
    }

    #[test]
    fn five_columns_span_two_textures() {
        let cols: Vec<Vec<u32>> = (0..5).map(|c| vec![c as u32; 6]).collect();
        let named: Vec<(&str, &[u32])> = ["a", "b", "c", "d", "e"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        let mut gpu = GpuTable::device_for(6, 3);
        let t = GpuTable::upload(&mut gpu, "wide", &named).unwrap();
        assert_eq!(t.textures().len(), 2);
        assert_eq!(t.column(4).unwrap().texture_index, 1);
        assert_eq!(t.column(4).unwrap().channel, 0);
        assert_eq!(t.read_column(&gpu, 4).unwrap(), vec![4; 6]);
    }

    #[test]
    fn column_lookup_by_name() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = small_table(&mut gpu);
        assert_eq!(t.column_index("b").unwrap(), 1);
        assert_eq!(
            t.column_index("zz").unwrap_err(),
            EngineError::ColumnNotFound("zz".into())
        );
        assert!(matches!(
            t.column(9).unwrap_err(),
            EngineError::ColumnIndexOutOfRange(9)
        ));
    }

    #[test]
    fn rejects_ragged_columns() {
        let mut gpu = GpuTable::device_for(4, 2);
        let a = vec![1u32, 2];
        let b = vec![1u32];
        let err = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("b", &b)]).unwrap_err();
        assert_eq!(err, EngineError::MismatchedColumnLengths);
    }

    #[test]
    fn rejects_values_wider_than_24_bits() {
        let mut gpu = GpuTable::device_for(2, 2);
        let a = vec![1u32 << 24];
        let err = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::AttributeTooWide { bits: 25, .. }
        ));
    }

    #[test]
    fn rejects_oversized_tables() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        let a: Vec<u32> = (0..100).collect();
        let err = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap_err();
        assert!(matches!(err, EngineError::FramebufferTooSmall { .. }));
    }

    #[test]
    fn bits_and_max_metadata() {
        let mut gpu = GpuTable::device_for(3, 3);
        let a = vec![5u32, 1000, 3];
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap();
        assert_eq!(t.column(0).unwrap().bits, 10);
        assert_eq!(t.column(0).unwrap().max_value, 1000);
    }

    #[test]
    fn empty_table_uploads() {
        let mut gpu = GpuTable::device_for(0, 4);
        let a: Vec<u32> = vec![];
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &a)]).unwrap();
        assert_eq!(t.record_count(), 0);
        assert!(t.rects().is_empty());
    }

    #[test]
    fn free_releases_textures() {
        let mut gpu = GpuTable::device_for(10, 4);
        let before = gpu.vram_used();
        let t = small_table(&mut gpu);
        assert!(gpu.vram_used() > before);
        t.free(&mut gpu).unwrap();
        assert_eq!(gpu.vram_used(), before);
    }

    #[test]
    fn failed_upload_frees_the_textures_it_created() {
        // Six columns: an RGBA texture (16 B/record) the budget admits,
        // then an RG texture (8 B/record) it refuses.
        let cols: Vec<Vec<u32>> = (0..6).map(|c| vec![c as u32; 40]).collect();
        let named: Vec<(&str, &[u32])> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        let mut gpu = GpuTable::device_for(40, 10);
        let framebuffer = gpu.vram_used();
        gpu.set_vram_budget(framebuffer + 20 * 40);
        let err = GpuTable::upload(&mut gpu, "wide", &named).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Gpu(gpudb_sim::GpuError::OutOfVideoMemory {
                requested: 320,
                available: 160,
            })
        ));
        assert_eq!(gpu.vram_used(), framebuffer);
        // The refused upload still charged the admitted texture, once.
        assert_eq!(gpu.stats().bytes_uploaded, 640);
        // The memory is usable again: a four-column table fits.
        let t = GpuTable::upload(&mut gpu, "narrow", &named[..4]).unwrap();
        assert_eq!(gpu.vram_used(), framebuffer + 640);
        t.free(&mut gpu).unwrap();

        // A reset between the two textures has already wiped the first:
        // its failed deletion does not mask the reset.
        gpu.set_vram_budget(usize::MAX);
        let after_first = gpu.modeled_clock_ns() + 1;
        gpu.attach_fault_injector(gpudb_sim::FaultInjector::with_schedule(vec![
            gpudb_sim::FaultEvent {
                at_ns: after_first,
                kind: gpudb_sim::FaultKind::DeviceReset,
            },
        ]));
        let uploaded = gpu.stats().bytes_uploaded;
        let err = GpuTable::upload(&mut gpu, "wide", &named).unwrap_err();
        assert_eq!(err, EngineError::Gpu(gpudb_sim::GpuError::DeviceReset));
        assert_eq!(gpu.stats().bytes_uploaded - uploaded, 640);
        assert_eq!(gpu.vram_used(), framebuffer);
        let t = GpuTable::upload(&mut gpu, "wide", &named).unwrap();
        assert_eq!(t.read_column(&gpu, 5).unwrap(), vec![5; 40]);
    }

    #[test]
    fn upload_attributed_to_upload_phase() {
        let mut gpu = GpuTable::device_for(10, 4);
        let _t = small_table(&mut gpu);
        assert!(gpu.stats().modeled.get(Phase::Upload) > 0.0);
    }
}
