//! The system under test, per workload: data set-up and the timed call
//! from SQL text to result through the workload's public entry point.

use std::time::{Duration, Instant};

use gpudb_core::parallel::{execute_sharded, ShardOptions, ShardReport};
use gpudb_core::query::{self, execute_with_options, AggValue, ExecuteOptions};
use gpudb_core::resilience::{execute_resilient, ResiliencePath, RetryPolicy};
use gpudb_core::{EngineResult, GpuTable, HostTable};
use gpudb_sim::{Gpu, WorkCounters};

use crate::mix::MixKind;

/// Records per row of the texture grid, for every workload.
pub const WIDTH: usize = 1000;

/// Shards of the `sharded` workload (capped at the host's core count).
pub const SHARDS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SUM/AVG mix, 100K records, in VRAM, `execute_with_options`.
    Accumulate,
    /// Order-statistics mix, 250K records, in VRAM, `execute_with_options`.
    OrderStat,
    /// Union mix, 250K records, `execute_sharded` on [`SHARDS`] devices.
    Sharded,
    /// Union mix, 250K records, `execute_resilient` on a device holding
    /// half the table.
    OutOfCore,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Accumulate,
        Workload::OrderStat,
        Workload::Sharded,
        Workload::OutOfCore,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Accumulate => "accumulate",
            Workload::OrderStat => "orderstat",
            Workload::Sharded => "sharded",
            Workload::OutOfCore => "out-of-core",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Table size.
    pub fn records(self) -> usize {
        match self {
            Workload::Accumulate => 100_000,
            _ => 250_000,
        }
    }

    /// The query mix the workload draws.
    pub fn mix(self) -> MixKind {
        match self {
            Workload::Accumulate => MixKind::Accumulate,
            Workload::OrderStat => MixKind::OrderStat,
            Workload::Sharded | Workload::OutOfCore => MixKind::Union,
        }
    }

    /// The public entry point each query goes through.
    pub fn entry_point(self) -> &'static str {
        match self {
            Workload::Accumulate | Workload::OrderStat => "execute_with_options",
            Workload::Sharded => "execute_sharded",
            Workload::OutOfCore => "execute_resilient",
        }
    }
}

/// Shard count actually used: [`SHARDS`], but never more than the host
/// has cores.
pub fn shard_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    SHARDS.min(cores)
}

/// Everything a query returned that must repeat exactly: the answer,
/// its modeled cost and its work counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Records matching the filter.
    pub matched: u64,
    /// Aggregate rows in SELECT order.
    pub rows: Vec<(String, AggValue)>,
    /// Modeled 2004-device cost, nanoseconds.
    pub modeled_ns: u64,
    /// Device work counts.
    pub counters: WorkCounters,
    /// Resilience rung per answering device: one entry on a single
    /// device, one per shard when sharded.
    pub paths: Vec<ResiliencePath>,
    /// Device attempts, summed over the answering devices.
    pub attempts: u32,
    /// Modeled merge cost (sharded only), nanoseconds.
    pub merge_ns: u64,
    /// Max over mean of per-shard modeled cost (1 on a single device).
    pub skew: f64,
}

/// How queries reach the engine.
pub enum Engine {
    /// A device holding the whole table.
    Device { gpu: Gpu, table: GpuTable },
    /// Fresh devices per query, one per shard.
    Sharded { opts: ShardOptions },
    /// A device too small for the table; every query re-uploads.
    OutOfCore { gpu: Gpu, policy: RetryPolicy },
}

/// A set-up workload: host data plus the engine that answers queries.
pub struct Bench {
    /// Which workload.
    pub workload: Workload,
    /// The host copy of the table (also the oracle's input).
    pub host: HostTable,
    /// The engine under test.
    pub engine: Engine,
}

/// The host table of the seeded tcpip trace.
pub fn host_table(records: usize, seed: u64) -> EngineResult<HostTable> {
    let data = gpudb_data::tcpip::generate(records, seed);
    HostTable::new(
        data.name,
        data.columns
            .into_iter()
            .map(|c| (c.name, c.values))
            .collect::<Vec<_>>(),
    )
}

/// A device holding `host` in full.
pub fn upload_device(host: &HostTable) -> EngineResult<(Gpu, GpuTable)> {
    let mut gpu = GpuTable::device_for(host.record_count(), WIDTH);
    let table = host.upload(&mut gpu)?;
    Ok((gpu, table))
}

impl Bench {
    /// Data generation, `HostTable` build, device creation and upload:
    /// everything before the first query.
    pub fn setup(workload: Workload, seed: u64) -> EngineResult<Bench> {
        let host = host_table(workload.records(), seed)?;
        let engine = match workload {
            Workload::Accumulate | Workload::OrderStat => {
                let (gpu, table) = upload_device(&host)?;
                Engine::Device { gpu, table }
            }
            Workload::Sharded => Engine::Sharded {
                opts: ShardOptions {
                    shards: shard_count(),
                    device_width: WIDTH,
                    options: ExecuteOptions::default(),
                    policy: RetryPolicy::default(),
                },
            },
            Workload::OutOfCore => {
                let mut gpu = GpuTable::device_for(host.record_count(), WIDTH);
                let framebuffer = gpu.vram_used();
                // Measure the table's texture footprint with one upload,
                // then leave room for only half of it.
                let table = host.upload(&mut gpu)?;
                let texture_bytes = gpu.vram_used() - framebuffer;
                table.free(&mut gpu)?;
                gpu.set_vram_budget(framebuffer + texture_bytes / 2);
                gpu.reset_stats();
                Engine::OutOfCore {
                    gpu,
                    policy: RetryPolicy::default(),
                }
            }
        };
        Ok(Bench {
            workload,
            host,
            engine,
        })
    }

    /// The device queries run on, for attaching a span sink; `None` when
    /// devices are created inside the entry point (sharded).
    pub fn device(&mut self) -> Option<&mut Gpu> {
        match &mut self.engine {
            Engine::Device { gpu, .. } | Engine::OutOfCore { gpu, .. } => Some(gpu),
            Engine::Sharded { .. } => None,
        }
    }

    /// Run one query from SQL text to result. The returned duration
    /// covers parsing and the entry-point call only.
    pub fn run(&mut self, sql: &str) -> (EngineResult<Answer>, Duration) {
        let host = &self.host;
        match &mut self.engine {
            Engine::Device { gpu, table } => {
                gpu.reset_stats();
                let start = Instant::now();
                let result = query::parse(sql).and_then(|stmt| {
                    execute_with_options(gpu, table, &stmt.query, ExecuteOptions::default())
                });
                let elapsed = start.elapsed();
                let answer = result
                    .map(|out| device_answer(gpu, out.matched, out.rows, ResiliencePath::Gpu, 1));
                (answer, elapsed)
            }
            Engine::OutOfCore { gpu, policy } => {
                gpu.reset_stats();
                let start = Instant::now();
                let result = query::parse(sql).and_then(|stmt| {
                    execute_resilient(gpu, host, &stmt.query, ExecuteOptions::default(), policy)
                });
                let elapsed = start.elapsed();
                let answer = result.map(|r| {
                    let (out, report) = (r.output, r.report);
                    device_answer(gpu, out.matched, out.rows, report.path, report.attempts)
                });
                (answer, elapsed)
            }
            Engine::Sharded { opts } => {
                let start = Instant::now();
                let result =
                    query::parse(sql).and_then(|stmt| execute_sharded(host, &stmt.query, opts));
                let elapsed = start.elapsed();
                let answer = result.map(|s| {
                    let counters = s
                        .output
                        .metrics
                        .iter()
                        .fold(WorkCounters::default(), |sum, r| sum.plus(&r.counters));
                    sharded_answer(s.output.matched, s.output.rows, counters, &s.report)
                });
                (answer, elapsed)
            }
        }
    }
}

/// An answer whose cost and counts are the device's statistics since
/// the last reset.
fn device_answer(
    gpu: &Gpu,
    matched: u64,
    rows: Vec<(String, AggValue)>,
    path: ResiliencePath,
    attempts: u32,
) -> Answer {
    let stats = gpu.stats();
    Answer {
        matched,
        rows,
        modeled_ns: (stats.modeled_total() * 1e9).round() as u64,
        counters: stats.counters(),
        paths: vec![path],
        attempts,
        merge_ns: 0,
        skew: 1.0,
    }
}

fn sharded_answer(
    matched: u64,
    rows: Vec<(String, AggValue)>,
    counters: WorkCounters,
    report: &ShardReport,
) -> Answer {
    let costs: Vec<f64> = report.shards.iter().map(|s| s.modeled_ns as f64).collect();
    let mean = costs.iter().sum::<f64>() / costs.len().max(1) as f64;
    let max = costs.iter().copied().fold(0.0, f64::max);
    Answer {
        matched,
        rows,
        modeled_ns: report.merged_ns,
        counters,
        paths: report.shards.iter().map(|s| s.path).collect(),
        attempts: report.shards.iter().map(|s| s.attempts).sum(),
        merge_ns: report.merge_ns,
        skew: if mean > 0.0 { max / mean } else { 1.0 },
    }
}
