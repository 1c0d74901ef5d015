//! Differential test of texture admission: `Gpu::create_texture_with`
//! (admit, then stage the texels) against `Gpu::create_texture` of the
//! same texels staged up front. Seeded cases vary the video-memory
//! budget, texture sizes (including invalid ones) and fault schedules
//! with allocation failures and device resets. After every operation
//! both devices must agree on the result, video memory, work counters,
//! modeled clock, fired faults, pending schedule, spans and texture
//! contents, and a refused texture must never be staged.

use gpudb_sim::span::{SpanKind, SpanSink};
use gpudb_sim::{
    FaultEvent, FaultInjector, FaultKind, Gpu, GpuError, Texture, TextureFormat, TextureId,
    WorkCounters,
};
use std::any::Any;
use std::cell::Cell;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Records span events with their modeled clocks.
#[derive(Default)]
struct Spans(Vec<String>);

impl SpanSink for Spans {
    fn begin_span(&mut self, kind: SpanKind, name: &str, clock_ns: u64, _: &WorkCounters) {
        self.0
            .push(format!("begin {} {name} @{clock_ns}", kind.name()));
    }

    fn end_span(&mut self, clock_ns: u64, _: &WorkCounters) {
        self.0.push(format!("end @{clock_ns}"));
    }

    fn instant(&mut self, name: &str, detail: &str, clock_ns: u64) {
        self.0.push(format!("instant {name} {detail} @{clock_ns}"));
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

fn spans(gpu: &mut Gpu) -> Vec<String> {
    let sink = gpu.take_span_sink().expect("sink attached");
    let events = sink.into_any().downcast::<Spans>().expect("Spans sink").0;
    gpu.attach_span_sink(Box::new(Spans::default()));
    events
}

/// A texel value: mostly small integers, sometimes one that clears the
/// plain fact.
fn texel(rng: &mut Rng) -> f32 {
    match rng.below(64) {
        0 => -0.0,
        1 => f32::NAN,
        2 => -1.0,
        _ => rng.below(1 << 24) as f32,
    }
}

fn dimension(rng: &mut Rng) -> usize {
    match rng.below(32) {
        0 => 0,
        1 => gpudb_sim::texture::MAX_TEXTURE_DIM + 1,
        _ => 1 + rng.below(48) as usize,
    }
}

fn assert_same(a: &mut Gpu, b: &mut Gpu, ids: &[TextureId], context: &str) {
    assert_eq!(a.vram_used(), b.vram_used(), "{context}: vram_used");
    assert_eq!(
        a.stats().counters(),
        b.stats().counters(),
        "{context}: work counters"
    );
    assert_eq!(a.stats().modeled, b.stats().modeled, "{context}: modeled");
    assert_eq!(
        a.modeled_clock_ns(),
        b.modeled_clock_ns(),
        "{context}: clock"
    );
    assert_eq!(a.fault_stats(), b.fault_stats(), "{context}: faults fired");
    assert_eq!(spans(a), spans(b), "{context}: spans");
    for &id in ids {
        match (a.texture(id), b.texture(id)) {
            (Ok(ta), Ok(tb)) => {
                assert_eq!(ta.width(), tb.width(), "{context}: texture width");
                assert_eq!(ta.format(), tb.format(), "{context}: texture format");
                assert_eq!(ta.is_plain(), tb.is_plain(), "{context}: plain fact");
                let bits = |t: &Texture| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ta), bits(tb), "{context}: texels");
            }
            (ra, rb) => assert_eq!(ra.err(), rb.err(), "{context}: texture lookup"),
        }
    }
}

/// Outcomes of the uploads a case made: admitted, refused for memory,
/// refused by a reset, and rejected dimensions.
#[derive(Default)]
struct Outcomes([u32; 4]);

fn run_case(seed: u64, outcomes: &mut Outcomes) {
    let mut rng = Rng(seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
    let (fw, fh) = (1 + rng.below(32) as usize, 1 + rng.below(32) as usize);
    let mut a = Gpu::geforce_fx_5900(fw, fh);
    let mut b = Gpu::geforce_fx_5900(fw, fh);
    let budget = a.vram_used() + rng.below(48 * 48 * 16 * 3) as usize;
    // Allocation failures and resets spread over the first modeled
    // milliseconds, where the uploads below land.
    let schedule: Vec<FaultEvent> = (0..rng.below(6))
        .map(|_| FaultEvent {
            at_ns: rng.below(200_000),
            kind: if rng.below(3) == 0 {
                FaultKind::DeviceReset
            } else {
                FaultKind::AllocationFail
            },
        })
        .collect();
    for gpu in [&mut a, &mut b] {
        gpu.set_vram_budget(budget);
        gpu.attach_fault_injector(FaultInjector::with_schedule(schedule.clone()));
        gpu.attach_span_sink(Box::new(Spans::default()));
    }

    let mut ids = Vec::new();
    for step in 0..12 {
        let context = format!("seed {seed} step {step}");
        match rng.below(8) {
            0 if !ids.is_empty() => {
                let id = ids[rng.below(ids.len() as u64) as usize];
                assert_eq!(a.delete_texture(id), b.delete_texture(id), "{context}");
            }
            1 => {
                let pause = rng.below(50_000) as f64 * 1e-9;
                a.charge_backoff(pause);
                b.charge_backoff(pause);
            }
            _ => {
                let (w, h) = (dimension(&mut rng), dimension(&mut rng));
                let format = TextureFormat::from_channels(1 + rng.below(4) as u8).unwrap();
                let len = w * h * format.channels();
                let texels: Vec<f32> = if len <= 48 * 48 * 4 {
                    (0..len).map(|_| texel(&mut rng)).collect()
                } else {
                    Vec::new()
                };
                let filled = Cell::new(false);
                let got = a.create_texture_with(w, h, format, |data| {
                    filled.set(true);
                    data.copy_from_slice(&texels);
                });
                let want =
                    Texture::from_data(w, h, format, texels).and_then(|t| b.create_texture(t));
                assert_eq!(got, want, "{context}: result");
                assert_eq!(filled.get(), got.is_ok(), "{context}: staged iff admitted");
                let slot = match got {
                    Ok(id) => {
                        ids.push(id);
                        0
                    }
                    Err(GpuError::OutOfVideoMemory { .. }) => 1,
                    Err(GpuError::DeviceReset) => 2,
                    Err(_) => 3,
                };
                outcomes.0[slot] += 1;
            }
        }
        assert_same(&mut a, &mut b, &ids, &context);
    }
    let pending = |gpu: &mut Gpu| gpu.take_fault_injector().unwrap().pending().to_vec();
    assert_eq!(
        pending(&mut a),
        pending(&mut b),
        "seed {seed}: pending faults"
    );
}

#[test]
fn admission_before_staging_matches_staged_uploads() {
    let mut outcomes = Outcomes::default();
    for seed in 0..512 {
        run_case(seed, &mut outcomes);
    }
    // Every path through admission is exercised many times.
    assert!(outcomes.0.iter().all(|&n| n >= 50), "{:?}", outcomes.0);
}

#[test]
fn refused_uploads_never_stage() {
    let mut gpu = Gpu::geforce_fx_5900(4, 4);
    gpu.set_vram_budget(gpu.vram_used() + 63);
    let staged = Cell::new(false);
    let err = gpu
        .create_texture_with(4, 1, TextureFormat::Rgba, |_| staged.set(true))
        .unwrap_err();
    assert_eq!(
        err,
        GpuError::OutOfVideoMemory {
            requested: 64,
            available: 63
        }
    );
    assert!(!staged.get());

    gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
        at_ns: 0,
        kind: FaultKind::DeviceReset,
    }]));
    let err = gpu
        .create_texture_with(1, 1, TextureFormat::R, |_| staged.set(true))
        .unwrap_err();
    assert_eq!(err, GpuError::DeviceReset);
    assert!(!staged.get());
}
