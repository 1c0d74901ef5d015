//! Seeded SQL query mixes.
//!
//! Every workload is a fixed list of query *templates*; the seed only
//! picks the constants. Constants sit at column quantiles of the
//! generated table, at target selectivities taken from a fixed ladder
//! (jittered by the seed), so each mix spans roughly 1–90% selectivity
//! and two seeds exercise the same plan shapes at similar costs. That
//! stratification is what keeps run-to-run spread low across seeds.

use gpudb_core::HostTable;

const DC: usize = 0; // data_count: 19 bits, log-normal
const LOSS: usize = 1; // data_loss: ~14 bits, zero for ~65% of records
const RATE: usize = 2; // flow_rate: ~17 bits, exponential
const RETX: usize = 3; // retransmissions: ~13 bits, mostly small

/// Target selectivities; template `t`, instance `i` uses entry
/// `(t + 3 i) % len`, jittered by ±15%.
const LADDER: [f64; 6] = [0.02, 0.08, 0.2, 0.4, 0.6, 0.85];

/// SplitMix64: a small, dependency-free deterministic generator.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// Sorted copies of each column, for quantile constants.
struct Quantiles {
    sorted: Vec<Vec<u32>>,
}

impl Quantiles {
    fn new(host: &HostTable) -> Quantiles {
        let sorted = (0..host.column_count())
            .map(|c| {
                let mut v = host
                    .column_values(c)
                    .expect("column index within column_count")
                    .to_vec();
                v.sort_unstable();
                v
            })
            .collect();
        Quantiles { sorted }
    }

    /// The value at quantile `q` of column `col`.
    fn at(&self, col: usize, q: f64) -> u32 {
        let v = &self.sorted[col];
        v[(q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize]
    }

    /// `c` such that `col >= c` selects about `s`.
    fn ge(&self, col: usize, s: f64) -> u32 {
        self.at(col, 1.0 - s)
    }

    /// `c` such that `col <= c` selects about `s`.
    fn le(&self, col: usize, s: f64) -> u32 {
        self.at(col, s)
    }
}

/// Template context: quantiles plus the seeded generator.
struct Ctx<'a> {
    q: &'a Quantiles,
    rng: &'a mut Rng,
}

impl Ctx<'_> {
    /// `lo AND hi` bounds for `col BETWEEN` selecting about `s`.
    fn between(&mut self, col: usize, s: f64) -> String {
        let start = self.rng.range(0.0, 1.0 - s);
        format!(
            "{} AND {}",
            self.q.at(col, start),
            self.q.at(col, start + s)
        )
    }

    fn k(&mut self) -> u64 {
        1 + self.rng.next_u64() % 100
    }

    fn p(&mut self) -> f64 {
        (self.rng.range(0.05, 0.95) * 100.0).round() / 100.0
    }

    /// Two to four distinct `retransmissions` values from the lower
    /// three quarters of the column, where each value is frequent. One
    /// Equal predicate pass per value, so the list length also varies
    /// the modeled cost with the seed.
    fn in_list(&mut self) -> String {
        let len = 2 + self.rng.next_u64() % 3;
        let mut values: Vec<u32> = (0..len)
            .map(|_| {
                let q = self.rng.range(0.0, 0.75);
                self.q.at(RETX, q)
            })
            .collect();
        values.sort_unstable();
        values.dedup();
        let v: Vec<String> = values.iter().map(u32::to_string).collect();
        v.join(", ")
    }
}

/// Per-predicate selectivity of a two-way AND selecting about `s`.
fn and2(s: f64) -> f64 {
    s.sqrt()
}

/// Per-predicate selectivity of a two-way OR selecting about `s`.
fn or2(s: f64) -> f64 {
    1.0 - (1.0 - s).sqrt()
}

struct Template {
    /// Unfiltered templates run once per mix, filtered ones twice (at
    /// two ladder levels).
    filtered: bool,
    sql: fn(&mut Ctx, f64) -> String,
}

const fn all(sql: fn(&mut Ctx, f64) -> String) -> Template {
    Template {
        filtered: false,
        sql,
    }
}

const fn with(sql: fn(&mut Ctx, f64) -> String) -> Template {
    Template {
        filtered: true,
        sql,
    }
}

/// SUM and AVG over all four columns, unfiltered and behind range, CNF
/// and IN filters: the bitwise Accumulator (Routine 4.6) dominates.
const ACCUMULATE: [Template; 8] = [
    all(|_, _| "SELECT SUM(data_count) FROM tcpip".into()),
    all(|_, _| "SELECT AVG(flow_rate), SUM(retransmissions) FROM tcpip".into()),
    with(|c, s| {
        let r = c.between(DC, s);
        format!("SELECT SUM(data_loss) FROM tcpip WHERE data_count BETWEEN {r}")
    }),
    with(|c, s| {
        let r = c.between(RATE, s);
        format!("SELECT AVG(data_count) FROM tcpip WHERE flow_rate BETWEEN {r}")
    }),
    with(|c, s| {
        format!(
            "SELECT SUM(flow_rate), AVG(data_loss) FROM tcpip \
             WHERE data_count >= {} AND flow_rate <= {}",
            c.q.ge(DC, and2(s)),
            c.q.le(RATE, and2(s))
        )
    }),
    with(|c, s| {
        let t = and2(s);
        format!(
            "SELECT SUM(retransmissions) FROM tcpip \
             WHERE (flow_rate <= {} OR data_loss >= {}) AND data_count >= {}",
            c.q.le(RATE, or2(t)),
            c.q.ge(LOSS, or2(t).min(0.3)),
            c.q.ge(DC, t)
        )
    }),
    with(|c, _| {
        let list = c.in_list();
        format!(
            "SELECT SUM(flow_rate), AVG(retransmissions) FROM tcpip \
             WHERE retransmissions IN ({list})"
        )
    }),
    with(|c, s| {
        format!(
            "SELECT SUM(data_count), SUM(flow_rate) FROM tcpip \
             WHERE data_count <= {} AND flow_rate >= {}",
            c.q.le(DC, and2(s)),
            c.q.ge(RATE, and2(s))
        )
    }),
];

/// COUNT, MIN, MAX, MEDIAN, KTH_LARGEST and PERCENTILE under BETWEEN,
/// AND, OR and IN filters: KthLargest's fixed-function bit descent
/// (Routine 4.5), depth copies and occlusion syncs; no TestBit pass.
const ORDERSTAT: [Template; 9] = [
    with(|c, s| {
        let r = c.between(DC, s);
        format!("SELECT COUNT(*) FROM tcpip WHERE data_count BETWEEN {r}")
    }),
    with(|c, s| {
        format!(
            "SELECT MIN(flow_rate), MAX(flow_rate) FROM tcpip \
             WHERE data_count >= {} AND flow_rate <= {}",
            c.q.ge(DC, and2(s)),
            c.q.le(RATE, and2(s))
        )
    }),
    with(|c, s| {
        let r = c.between(RATE, s);
        format!("SELECT MEDIAN(data_count) FROM tcpip WHERE flow_rate BETWEEN {r}")
    }),
    with(|c, s| {
        let k = c.k();
        format!(
            "SELECT KTH_LARGEST(flow_rate, {k}) FROM tcpip \
             WHERE data_count <= {} OR flow_rate >= {}",
            c.q.le(DC, or2(s)),
            c.q.ge(RATE, or2(s))
        )
    }),
    with(|c, _| {
        let p = c.p();
        let list = c.in_list();
        format!("SELECT PERCENTILE(data_count, {p}) FROM tcpip WHERE retransmissions IN ({list})")
    }),
    with(|c, s| {
        format!(
            "SELECT COUNT(*), MAX(data_count) FROM tcpip \
             WHERE flow_rate <= {} OR data_count >= {}",
            c.q.le(RATE, or2(s)),
            c.q.ge(DC, or2(s))
        )
    }),
    with(|c, s| {
        let r = c.between(DC, and2(s));
        format!(
            "SELECT MEDIAN(flow_rate), MIN(data_count) FROM tcpip \
             WHERE data_count BETWEEN {r} AND flow_rate >= {}",
            c.q.ge(RATE, and2(s))
        )
    }),
    with(|c, s| {
        let (k, p) = (c.k(), c.p());
        format!(
            "SELECT KTH_LARGEST(data_count, {k}), PERCENTILE(flow_rate, {p}) FROM tcpip \
             WHERE flow_rate >= {}",
            c.q.ge(RATE, s)
        )
    }),
    all(|_, _| "SELECT MEDIAN(retransmissions), MAX(data_loss) FROM tcpip".into()),
];

/// Column–column (`a < b`) predicates, planned as semi-linear queries
/// (Routine 4.2).
const SEMILINEAR: [Template; 2] = [
    all(|_, _| {
        "SELECT COUNT(*), SUM(flow_rate) FROM tcpip WHERE data_loss < retransmissions".into()
    }),
    all(|_, _| {
        "SELECT MAX(data_count), MEDIAN(flow_rate) FROM tcpip WHERE flow_rate < data_count".into()
    }),
];

/// Which templates a mix draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// SUM/AVG only, two instances per filtered template.
    Accumulate,
    /// Order statistics and COUNT, two instances per filtered template.
    OrderStat,
    /// Every template once, plus the semi-linear ones.
    Union,
}

/// Build the mix for `kind` over `host`'s data, constants drawn from
/// `seed`.
pub fn build(kind: MixKind, host: &HostTable, seed: u64) -> Vec<String> {
    let q = Quantiles::new(host);
    let mut rng = Rng::new(seed);
    let mut ctx = Ctx {
        q: &q,
        rng: &mut rng,
    };
    let (templates, instances): (Vec<&Template>, usize) = match kind {
        MixKind::Accumulate => (ACCUMULATE.iter().collect(), 2),
        MixKind::OrderStat => (ORDERSTAT.iter().collect(), 2),
        MixKind::Union => (
            ACCUMULATE
                .iter()
                .chain(ORDERSTAT.iter())
                .chain(SEMILINEAR.iter())
                .collect(),
            1,
        ),
    };
    let mut mix = Vec::new();
    for instance in 0..instances {
        for (t, template) in templates.iter().enumerate() {
            if !template.filtered && instance > 0 {
                continue;
            }
            let level = LADDER[(t + 3 * instance) % LADDER.len()];
            let s = (level * ctx.rng.range(0.85, 1.15)).clamp(0.01, 0.9);
            mix.push((template.sql)(&mut ctx, s));
        }
    }
    mix
}
