//! Gates on exact counts at the default seed: every workload answers
//! correctly and repeats itself bit for bit, the sharded answers equal a
//! single device's, and the workloads stress the layers they exist for.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use gpudb_core::resilience::ResiliencePath;
use gpudb_querybench::engine::{upload_device, Bench, Engine, Workload};
use gpudb_querybench::measure::{self, Reference};
use gpudb_querybench::mix;
use gpudb_querybench::spans::{LayerTotals, WallSink};
use gpudb_querybench::DEFAULT_SEED;
use gpudb_sim::WorkCounters;

/// Set up `workload`, run its reference pass with a wall-clock sink on
/// the device when there is one, and return the pass and the sink's
/// totals.
fn reference(workload: Workload) -> (Reference, LayerTotals) {
    let mut bench = Bench::setup(workload, DEFAULT_SEED).expect("setup");
    let mix = mix::build(workload.mix(), &bench.host, DEFAULT_SEED);
    if let Some(gpu) = bench.device() {
        gpu.attach_span_sink(Box::new(WallSink::new()));
    }
    let mut twin = (workload == Workload::Sharded).then(|| measure::twin(&bench));
    let reference = measure::reference(&mut bench, &mix, twin.as_mut());
    let totals = bench
        .device()
        .and_then(|gpu| gpu.take_span_sink())
        .and_then(WallSink::recover)
        .unwrap_or_default();
    (reference, totals)
}

fn counters(reference: &Reference) -> WorkCounters {
    reference
        .answers
        .iter()
        .flatten()
        .fold(WorkCounters::default(), |sum, a| sum.plus(&a.counters))
}

fn shaded_frac(reference: &Reference) -> f64 {
    let c = counters(reference);
    c.fragments_shaded as f64 / c.fragments_generated as f64
}

#[test]
fn workloads_are_correct_and_repeat_exactly() {
    for workload in Workload::ALL {
        let (first, _) = reference(workload);
        assert!(
            first.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            first.failures
        );
        let (second, _) = reference(workload);
        assert_eq!(first.digest, second.digest, "{}", workload.name());
        assert_eq!(first.answers, second.answers, "{}", workload.name());
        for s in &first.selectivity {
            assert!(*s >= 0.005, "{}: selectivity {s}", workload.name());
        }
    }
}

#[test]
fn sharded_digest_equals_single_device_digest() {
    let (sharded, _) = reference(Workload::Sharded);
    let mut bench = Bench::setup(Workload::Sharded, DEFAULT_SEED).expect("setup");
    let (gpu, table) = upload_device(&bench.host).expect("upload");
    bench.engine = Engine::Device { gpu, table };
    let mix = mix::build(Workload::Sharded.mix(), &bench.host, DEFAULT_SEED);
    let single = measure::reference(&mut bench, &mix, None);
    assert!(single.failures.is_empty(), "{:?}", single.failures);
    assert_eq!(sharded.digest, single.digest);
}

#[test]
fn workloads_separate_the_layers() {
    let (accumulate, passes) = reference(Workload::Accumulate);
    let shaded = shaded_frac(&accumulate);
    assert!(shaded >= 0.85, "accumulate sim.shaded_frac {shaded}");
    assert!(passes.pass_counts.get("pass:TestBit").copied().unwrap_or(0) > 0);

    let (orderstat, passes) = reference(Workload::OrderStat);
    let shaded = shaded_frac(&orderstat);
    assert!(shaded <= 0.25, "orderstat sim.shaded_frac {shaded}");
    assert!(passes.pass_counts.contains_key("pass:CopyToDepth"));
    assert!(!passes.pass_counts.contains_key("pass:TestBit"));

    let (out_of_core, _) = reference(Workload::OutOfCore);
    let paths: Vec<ResiliencePath> = out_of_core
        .answers
        .iter()
        .flatten()
        .flat_map(|a| a.paths.iter().copied())
        .collect();
    assert!(!paths.is_empty());
    assert!(
        paths.iter().all(|p| *p != ResiliencePath::Gpu),
        "out-of-core resilience.gpu_frac > 0"
    );
    assert!(paths.contains(&ResiliencePath::OutOfCore));
    assert!(paths.contains(&ResiliencePath::Cpu));
}
