//! Pins of both partitioned paths — out-of-core chunks under
//! `execute_resilient` and shard workers under `execute_sharded` — on
//! the shared differential workloads. Each query's answer, modeled
//! cost, work counters and recovery ledger are rendered to text and
//! compared with `tests/golden/partition_pins.txt`, so a change to how
//! partitions are staged and uploaded cannot move anything the model
//! or the caller sees. Rewrite the golden file with `BLESS=1` only for
//! an intended change of those outputs.

mod common;

use common::{query_shapes, workload};
use gpudb::core::metrics::MetricsRecord;
use gpudb::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 2] = [5, 17];
const WIDTH: usize = 16;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/partition_pins.txt")
}

fn render_metrics(out: &mut String, metrics: &[MetricsRecord]) {
    for m in metrics {
        writeln!(
            out,
            "    {} in={} {:?} {:?}",
            m.operator, m.input_records, m.counters, m.modeled_ns
        )
        .unwrap();
    }
}

/// `execute_resilient` on a device whose video memory holds the
/// framebuffer plus half the table: the full upload is refused, so
/// chunkable queries run out of core and holistic ones on the CPU.
fn render_resilient(out: &mut String, host: &HostTable, query: &Query) {
    let mut gpu = GpuTable::device_for(host.record_count(), WIDTH);
    let table_bytes = {
        let mut probe = GpuTable::device_for(host.record_count(), WIDTH);
        let before = probe.vram_used();
        host.upload(&mut probe)
            .expect("the table fits its own device");
        probe.vram_used() - before
    };
    let framebuffer = gpu.vram_used();
    gpu.set_vram_budget(framebuffer + table_bytes / 2);
    let r = execute_resilient(
        &mut gpu,
        host,
        query,
        ExecuteOptions::default(),
        &RetryPolicy::default(),
    )
    .expect("resilient execution answers");
    let modeled_ns = (gpu.stats().modeled.total() * 1e9).round() as u64;
    writeln!(
        out,
        "  resilient path={:?} attempts={} retries={} matched={} rows={:?}",
        r.report.path, r.report.attempts, r.report.retries, r.output.matched, r.output.rows
    )
    .unwrap();
    writeln!(
        out,
        "    device modeled_ns={modeled_ns} vram_leaked={} {:?}",
        gpu.vram_used() - framebuffer,
        gpu.stats().counters()
    )
    .unwrap();
    for d in &r.report.degradations {
        writeln!(out, "    degradation: {d}").unwrap();
    }
    render_metrics(out, &r.output.metrics);
}

fn render_sharded(out: &mut String, label: &str, s: &ShardedOutput) {
    writeln!(
        out,
        "  {label} matched={} rows={:?} merge_ns={} merged_ns={}",
        s.output.matched, s.output.rows, s.report.merge_ns, s.report.merged_ns
    )
    .unwrap();
    for run in &s.report.shards {
        writeln!(
            out,
            "    shard start={} records={} path={:?} attempts={} modeled_ns={} degradations={:?}",
            run.start, run.records, run.path, run.attempts, run.modeled_ns, run.degradations
        )
        .unwrap();
    }
    render_metrics(out, &s.output.metrics);
}

fn render_all() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let host = workload(seed);
        for (shape, query) in query_shapes(seed).iter().enumerate() {
            writeln!(out, "seed {seed} shape {shape}").unwrap();
            render_resilient(&mut out, &host, query);
            for shards in [2, 3] {
                let opts = ShardOptions {
                    shards,
                    device_width: WIDTH,
                    ..ShardOptions::default()
                };
                let s = execute_sharded(&host, query, &opts).expect("sharded execution");
                render_sharded(&mut out, &format!("sharded x{shards}"), &s);
            }
            // The middle of three shards is refused its upload and
            // answers from its host rows on the CPU.
            let opts = ShardOptions {
                shards: 3,
                device_width: WIDTH,
                ..ShardOptions::default()
            };
            let refused = FaultInjector::with_schedule(vec![FaultEvent {
                at_ns: 0,
                kind: FaultKind::AllocationFail,
            }]);
            let s = execute_sharded_with_faults(&host, query, &opts, vec![None, Some(refused)])
                .expect("sharded execution with a refused shard");
            render_sharded(&mut out, "sharded x3 refused", &s);
        }
    }
    out
}

#[test]
fn partitioned_paths_match_recorded_pins() {
    let rendered = render_all();
    let path = golden_path();
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run with BLESS=1", path.display()));
    for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "partition pins drifted at line {}", i + 1);
    }
    assert_eq!(rendered.lines().count(), expected.lines().count());
}
