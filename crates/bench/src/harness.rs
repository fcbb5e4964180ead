//! The perf-baseline harness behind `reproduce bench`.
//!
//! Each workload drives a **real** pipeline layer — wire decode,
//! `MovementDetector` stepping, OvO SVM prediction, KDE threshold
//! fitting, the full `StreamingEngine` — on inputs derived from a
//! fixed seed, measures it through the [`Clock`] seam (so tests can
//! substitute a [`fadewich_telemetry::ManualClock`] and get exact,
//! deterministic medians), and reports median-of-k per-unit times.
//!
//! The JSON report follows one hard rule: every field whose value
//! depends on wall time carries a `wall_` prefix, and everything else
//! is **byte-identical across runs of the same seed**. The CI smoke
//! gate compares two runs with all `"wall_` lines filtered out; the
//! hot-path rows additionally carry checksums proving the fast and
//! reference paths computed the same answers.

use std::sync::Arc;

use fadewich_core::auth::KeyTable;
use fadewich_core::config::FadewichParams;
use fadewich_core::controller::{Action, Controller};
use fadewich_core::features::{extract_features, TrainingSample};
use fadewich_core::kma::Kma;
use fadewich_core::md::{MdVerdict, MovementDetector};
use fadewich_core::re::RadioEnvironment;
use fadewich_fleet::FleetRuntime;
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_runtime::engine::EngineConfig;
use fadewich_runtime::{Frame, StreamingEngine};
use fadewich_stats::kde::GaussianKde;
use fadewich_stats::rng::Rng;
use fadewich_telemetry::{Clock, SloEngine, Telemetry};
use fadewich_testkit::bench::{alloc_counts, black_box};

/// Schema tag of the emitted JSON; bump on incompatible layout change.
pub const SCHEMA: &str = "fadewich-bench-v1";

/// Knobs of one harness run. All counts must be nonzero; see
/// [`BenchConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Seed every workload derives its inputs from.
    pub seed: u64,
    /// Untimed iterations before sampling starts (warms caches,
    /// allocator pools, and the MD profile).
    pub warmup_iters: u64,
    /// Timed iterations per sample.
    pub iters: u64,
    /// Samples per workload; the report carries the median.
    pub samples: u64,
    /// Ticks per engine-throughput iteration.
    pub engine_ticks: u64,
    /// Ticks per MD-step iteration.
    pub md_ticks: u64,
    /// Frames per wire-decode iteration.
    pub n_frames: u64,
    /// Feature rows per SVM-prediction iteration.
    pub svm_rows: u64,
    /// Samples per KDE threshold fit.
    pub kde_points: u64,
    /// Ticks the allocation probe steps one by one.
    pub alloc_ticks: u64,
    /// Marks the report as a reduced-size smoke run.
    pub smoke: bool,
}

impl BenchConfig {
    /// The full baseline configuration.
    pub fn standard(seed: u64) -> BenchConfig {
        BenchConfig {
            seed,
            warmup_iters: 2,
            iters: 3,
            samples: 5,
            engine_ticks: 2_000,
            md_ticks: 4_000,
            n_frames: 4_096,
            svm_rows: 512,
            kde_points: 1_500,
            alloc_ticks: 300,
            smoke: false,
        }
    }

    /// Tiny iteration counts for the CI smoke gate: same code paths,
    /// seconds of wall time.
    pub fn smoke(seed: u64) -> BenchConfig {
        BenchConfig {
            seed,
            warmup_iters: 1,
            iters: 1,
            samples: 2,
            engine_ticks: 150,
            md_ticks: 400,
            n_frames: 256,
            svm_rows: 64,
            kde_points: 300,
            alloc_ticks: 120,
            smoke: true,
        }
    }

    /// Rejects degenerate configurations instead of emitting garbage
    /// (zero iterations would divide by zero; zero workload sizes
    /// would report medians of nothing).
    ///
    /// # Errors
    ///
    /// Names the first offending knob.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("iters", self.iters),
            ("samples", self.samples),
            ("engine_ticks", self.engine_ticks),
            ("md_ticks", self.md_ticks),
            ("n_frames", self.n_frames),
            ("svm_rows", self.svm_rows),
            ("kde_points", self.kde_points),
            ("alloc_ticks", self.alloc_ticks),
        ];
        for (name, v) in checks {
            if v == 0 {
                return Err(format!("bench config: {name} must be nonzero"));
            }
        }
        if self.kde_points < 2 {
            return Err("bench config: kde_points must be at least 2".to_string());
        }
        Ok(())
    }
}

/// Median-of-samples timing of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Timed samples taken.
    pub samples: u64,
    /// Iterations per sample.
    pub iters: u64,
    /// Work units (ticks, frames, rows…) per iteration.
    pub units_per_iter: u64,
    /// Median per-unit time across samples, in nanoseconds.
    pub wall_median_ns_per_unit: f64,
    /// Total time spent in timed iterations, in nanoseconds.
    pub wall_total_ns: u64,
}

/// Runs `f` `warmup` times untimed, then `samples` times `iters`
/// timed calls, and reports the median per-unit nanoseconds. All
/// timing flows through `clock`, so a manual clock produces exact,
/// reproducible measurements.
///
/// # Errors
///
/// Rejects zero `iters`, `samples`, or `units_per_iter`.
pub fn measure(
    clock: &dyn Clock,
    warmup: u64,
    iters: u64,
    samples: u64,
    units_per_iter: u64,
    mut f: impl FnMut(),
) -> Result<Measurement, String> {
    if iters == 0 || samples == 0 || units_per_iter == 0 {
        return Err("measure: iters, samples and units_per_iter must be nonzero".to_string());
    }
    for _ in 0..warmup {
        f();
    }
    let mut per_unit = Vec::with_capacity(samples as usize);
    let mut total_ns = 0u64;
    for _ in 0..samples {
        let t0 = clock.now_ns();
        for _ in 0..iters {
            f();
        }
        let dt = clock.now_ns().saturating_sub(t0);
        total_ns += dt;
        per_unit.push(dt as f64 / (iters * units_per_iter) as f64);
    }
    per_unit.sort_by(f64::total_cmp);
    Ok(Measurement {
        samples,
        iters,
        units_per_iter,
        wall_median_ns_per_unit: per_unit[per_unit.len() / 2],
        wall_total_ns: total_ns,
    })
}

/// One field of a bench row. Fields whose name starts with `wall_`
/// are wall-time-dependent and excluded from determinism comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An exact integer.
    U64(u64),
    /// A float, rendered with six decimals (`0.0` when non-finite).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A short identifier-like string.
    Str(String),
}

/// One workload's results.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Stable row name (`wire_decode`, `md_step`, …).
    pub name: String,
    /// Fields in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl BenchRow {
    fn new(name: &str) -> BenchRow {
        BenchRow { name: name.to_string(), fields: Vec::new() }
    }

    fn push(&mut self, key: &str, value: FieldValue) {
        self.fields.push((key.to_string(), value));
    }

    fn push_measurement(&mut self, m: &Measurement) {
        self.push("samples", FieldValue::U64(m.samples));
        self.push("iters", FieldValue::U64(m.iters));
        self.push("units_per_iter", FieldValue::U64(m.units_per_iter));
        self.push("wall_median_ns_per_unit", FieldValue::F64(m.wall_median_ns_per_unit));
        self.push("wall_total_ns", FieldValue::U64(m.wall_total_ns));
    }

    /// Looks a field up by name.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// The complete report of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Seed the workloads were derived from.
    pub seed: u64,
    /// Whether this was a reduced smoke run.
    pub smoke: bool,
    /// One row per workload, in a fixed order.
    pub rows: Vec<BenchRow>,
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() { format!("{v:.6}") } else { "0.000000".to_string() }
}

impl BenchReport {
    /// Renders the machine-readable JSON: one `"key": value` per
    /// line, `wall_`-prefixed keys carrying everything wall-time
    /// dependent, parseable by [`fadewich_telemetry::json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("\"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("\"seed\": {},\n", self.seed));
        out.push_str(&format!("\"smoke\": {},\n", self.smoke));
        out.push_str("\"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("{\n");
            out.push_str(&format!("\"name\": \"{}\"", row.name));
            for (key, value) in &row.fields {
                out.push_str(",\n");
                let rendered = match value {
                    FieldValue::U64(v) => v.to_string(),
                    FieldValue::F64(v) => fmt_f64(*v),
                    FieldValue::Bool(v) => v.to_string(),
                    FieldValue::Str(v) => format!("\"{v}\""),
                };
                out.push_str(&format!("\"{key}\": {rendered}"));
            }
            out.push_str("\n}");
            out.push_str(if i + 1 == self.rows.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the human-readable stdout table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "FADEWICH perf baseline (seed {:#x}{})\n",
            self.seed,
            if self.smoke { ", smoke" } else { "" }
        ));
        out.push_str(&format!("{:<24} {:<28} {:>18}\n", "workload", "metric", "value"));
        out.push_str(&format!("{:-<24} {:-<28} {:->18}\n", "", "", ""));
        for row in &self.rows {
            for (key, value) in &row.fields {
                let rendered = match value {
                    FieldValue::U64(v) => v.to_string(),
                    FieldValue::F64(v) => fmt_f64(*v),
                    FieldValue::Bool(v) => v.to_string(),
                    FieldValue::Str(v) => v.clone(),
                };
                out.push_str(&format!("{:<24} {:<28} {:>18}\n", row.name, key, rendered));
            }
        }
        out
    }

    /// Looks a row up by name.
    pub fn row(&self, name: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

const N_STREAMS: usize = 4;
const TICK_HZ: f64 = 5.0;

fn bench_params() -> FadewichParams {
    FadewichParams { profile_init_s: 30.0, ..Default::default() }
}

/// A small classifier trained through the real feature/SMO layers on
/// seeded synthetic windows (quiet vs burst), exactly like the
/// runtime fixtures.
fn trained_re(seed: u64) -> RadioEnvironment {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7E);
    let params = FadewichParams::default();
    let mut samples = Vec::new();
    for i in 0..24 {
        let sd = if i % 2 == 1 { 4.0 } else { 0.6 };
        let mut day = DayTrace::with_capacity(N_STREAMS, 30);
        for _ in 0..30 {
            let row: Vec<f64> = (0..N_STREAMS).map(|_| -50.0 + rng.normal() * sd).collect();
            day.push_row(&row);
        }
        let streams: Vec<usize> = (0..N_STREAMS).collect();
        let features = extract_features(&day, &streams, 0, TICK_HZ, &params);
        samples.push(TrainingSample { features, label: i % 2 });
    }
    RadioEnvironment::train(&samples, None, &mut rng).expect("seeded training set is valid")
}

/// Quiet RSSI rows (flattened tick-major) with a short burst in the
/// middle so MD opens at least one variation window.
fn seeded_rows(seed: u64, n_ticks: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x505);
    let burst = (n_ticks / 2)..(n_ticks / 2 + 25);
    let mut rows = Vec::with_capacity(n_ticks as usize * N_STREAMS);
    for tick in 0..n_ticks {
        let sd = if burst.contains(&tick) { 4.0 } else { 0.6 };
        for _ in 0..N_STREAMS {
            rows.push(-50.0 + rng.normal() * sd);
        }
    }
    rows
}

/// A typing schedule long enough to cover `n_ticks` at [`TICK_HZ`].
fn busy_inputs(n_ticks: u64) -> InputTrace {
    let day_s = n_ticks as f64 / TICK_HZ + 120.0;
    let busy: Vec<f64> = (0..day_s as usize).step_by(3).map(|s| s as f64).collect();
    InputTrace::from_times(vec![busy.clone(), busy])
}

fn wire_decode_row(cfg: &BenchConfig, clock: &dyn Clock) -> Result<BenchRow, String> {
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xDEC);
    let mut bytes = Vec::new();
    for i in 0..cfg.n_frames {
        let frame = Frame::rssi(
            (i % 4) as u16,
            i as u32,
            i / 4,
            (0..2).map(|_| (-60.0 + 20.0 * rng.f64()) as f32).collect(),
        );
        bytes.extend_from_slice(&frame.encode());
    }
    let mut decoded = 0u64;
    let m = measure(clock, cfg.warmup_iters, cfg.iters, cfg.samples, cfg.n_frames, || {
        let mut rest: &[u8] = &bytes;
        decoded = 0;
        while !rest.is_empty() {
            let (frame, used) = Frame::decode(rest).expect("pre-encoded frames decode");
            black_box(&frame);
            rest = &rest[used..];
            decoded += 1;
        }
    })?;
    let mut row = BenchRow::new("wire_decode");
    row.push("frames", FieldValue::U64(cfg.n_frames));
    row.push("bytes", FieldValue::U64(bytes.len() as u64));
    row.push("frames_decoded", FieldValue::U64(decoded));
    row.push_measurement(&m);
    Ok(row)
}

/// Digest over a frame's header fields — proves the borrowed and
/// owned decode paths read the same frames without storing them.
fn header_digest(digest: &mut u64, office: u16, sensor: u16, seq: u32, tick: u64) {
    *digest = digest
        .wrapping_mul(0x100000001b3)
        .wrapping_add(u64::from(office))
        .wrapping_add(u64::from(sensor) << 16)
        .wrapping_add(u64::from(seq) << 32)
        .wrapping_add(tick);
}

fn wire_decode_borrowed_row(cfg: &BenchConfig, clock: &dyn Clock) -> Result<BenchRow, String> {
    // Same seeded frame stream as `wire_decode`, but with non-zero
    // office ids so the v2 header (the fleet demux path) is what gets
    // measured.
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xDEC);
    let mut bytes = Vec::new();
    let mut owned_digest = 0u64;
    for i in 0..cfg.n_frames {
        let frame = Frame {
            office: (i % 7) as u16 + 1,
            ..Frame::rssi(
                (i % 4) as u16,
                i as u32,
                i / 4,
                (0..2).map(|_| (-60.0 + 20.0 * rng.f64()) as f32).collect(),
            )
        };
        bytes.extend_from_slice(&frame.encode());
    }
    // Reference pass through the owned decoder.
    {
        let mut rest: &[u8] = &bytes;
        while !rest.is_empty() {
            let (frame, used) = Frame::decode(rest).map_err(|e| format!("bench wire: {e}"))?;
            header_digest(&mut owned_digest, frame.office, frame.sensor, frame.seq, frame.tick);
            rest = &rest[used..];
        }
    }
    let mut decoded = 0u64;
    let mut digest = 0u64;
    let m = measure(clock, cfg.warmup_iters, cfg.iters, cfg.samples, cfg.n_frames, || {
        let mut rest: &[u8] = &bytes;
        decoded = 0;
        digest = 0;
        while !rest.is_empty() {
            let (view, used) =
                Frame::decode_borrowed(rest).expect("pre-encoded frames decode");
            header_digest(&mut digest, view.office, view.sensor, view.seq, view.tick);
            black_box(&view);
            rest = &rest[used..];
            decoded += 1;
        }
    })?;
    if digest != owned_digest {
        return Err(format!(
            "borrowed decode diverged from owned decode: digest {digest:#x} vs {owned_digest:#x}"
        ));
    }
    let mut row = BenchRow::new("wire_decode_borrowed");
    row.push("frames", FieldValue::U64(cfg.n_frames));
    row.push("bytes", FieldValue::U64(bytes.len() as u64));
    row.push("frames_decoded", FieldValue::U64(decoded));
    row.push("matches_owned", FieldValue::Bool(digest == owned_digest));
    row.push_measurement(&m);
    Ok(row)
}

/// Authenticated ingest's marginal cost: decode + SipHash-2-4 MAC
/// verification of pre-encoded v4 frames against the per-sensor key
/// table — the work `StreamingEngine::set_auth` adds per frame at the
/// untrusted boundary.
fn mac_verify_row(cfg: &BenchConfig, clock: &dyn Clock) -> Result<BenchRow, String> {
    let keys = KeyTable::derive(cfg.seed ^ 0x3AC, N_STREAMS as u16);
    // Same seeded frame stream as `wire_decode`, signed.
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xDEC);
    let mut bytes = Vec::new();
    for i in 0..cfg.n_frames {
        let sensor = (i % 4) as u16;
        let frame = Frame::rssi(
            sensor,
            i as u32,
            i / 4,
            (0..2).map(|_| (-60.0 + 20.0 * rng.f64()) as f32).collect(),
        );
        let key = keys.get(sensor).expect("derived table covers the bench sensors");
        bytes.extend_from_slice(&frame.encode_auth(key));
    }
    let mut verified = 0u64;
    let m = measure(clock, cfg.warmup_iters, cfg.iters, cfg.samples, cfg.n_frames, || {
        let mut rest: &[u8] = &bytes;
        verified = 0;
        while !rest.is_empty() {
            let (view, used) =
                Frame::decode_borrowed(rest).expect("pre-encoded frames decode");
            let key = keys.get(view.sensor).expect("key present for every sensor");
            if view.verify_mac(key) {
                verified += 1;
            }
            black_box(&view);
            rest = &rest[used..];
        }
    })?;
    if verified != cfg.n_frames {
        return Err(format!(
            "mac verify: only {verified}/{} genuine frames verified",
            cfg.n_frames
        ));
    }
    let mut row = BenchRow::new("mac_verify");
    row.push("frames", FieldValue::U64(cfg.n_frames));
    row.push("bytes", FieldValue::U64(bytes.len() as u64));
    row.push("frames_verified", FieldValue::U64(verified));
    row.push_measurement(&m);
    Ok(row)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a digest.
fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        digest = (digest ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// FNV-1a digest of an action log (each action's time bits and kind):
/// equal digests certify that two runs made the same decisions at the
/// same instants.
fn action_digest(actions: &[Action]) -> u64 {
    actions.iter().fold(FNV_OFFSET, |digest, a| {
        let digest = fnv1a(digest, &a.t.to_bits().to_le_bytes());
        fnv1a(digest, format!("{:?}", a.kind).as_bytes())
    })
}

/// Digest of a verdict stream: enough to prove two MD runs made the
/// same decisions without storing them.
fn verdict_digest(digest: &mut u64, v: &MdVerdict) {
    *digest = digest
        .wrapping_mul(0x100000001b3)
        .wrapping_add(v.st.to_bits())
        .wrapping_add(u64::from(v.anomalous));
}

fn md_step_row(cfg: &BenchConfig, clock: &dyn Clock) -> Result<BenchRow, String> {
    let rows_flat = seeded_rows(cfg.seed, cfg.md_ticks);
    let mut md = MovementDetector::new(N_STREAMS, TICK_HZ, bench_params())
        .map_err(|e| format!("bench md: {e}"))?;
    let mut tick = 0usize;
    let mut digest = 0u64;
    let m = measure(clock, cfg.warmup_iters, cfg.iters, cfg.samples, cfg.md_ticks, || {
        for row in rows_flat.chunks_exact(N_STREAMS) {
            verdict_digest(&mut digest, &md.step(tick, row));
            tick += 1;
        }
    })?;
    let mut row = BenchRow::new("md_step");
    row.push("ticks", FieldValue::U64(cfg.md_ticks));
    row.push("verdict_digest", FieldValue::U64(digest));
    row.push_measurement(&m);
    Ok(row)
}

fn svm_rows_bench(cfg: &BenchConfig, clock: &dyn Clock) -> Result<Vec<BenchRow>, String> {
    let re = trained_re(cfg.seed);
    let svm = re.svm();
    let dim = N_STREAMS * fadewich_core::features::FEATURES_PER_STREAM;
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x5F);
    let batch: Vec<Vec<f64>> = (0..cfg.svm_rows)
        .map(|_| (0..dim).map(|_| rng.normal() * 3.0).collect())
        .collect();
    let mut results = Vec::new();
    let mut medians = [0.0f64; 2];
    let mut sums = [0u64; 2];
    for (slot, batched) in [(0usize, false), (1usize, true)] {
        let mut label_sum = 0u64;
        let m = measure(clock, cfg.warmup_iters, cfg.iters, cfg.samples, cfg.svm_rows, || {
            label_sum = if batched {
                svm.predict_batch(&batch).iter().map(|&l| l as u64).sum()
            } else {
                batch.iter().map(|x| svm.predict(x) as u64).sum()
            };
            black_box(label_sum);
        })?;
        medians[slot] = m.wall_median_ns_per_unit;
        sums[slot] = label_sum;
        let mut row =
            BenchRow::new(if batched { "svm_predict_batch" } else { "svm_predict_scalar" });
        row.push("rows", FieldValue::U64(cfg.svm_rows));
        row.push("feature_dim", FieldValue::U64(dim as u64));
        row.push("label_sum", FieldValue::U64(label_sum));
        if batched {
            row.push("matches_reference", FieldValue::Bool(label_sum == sums[0]));
            row.push(
                "wall_speedup_vs_reference",
                FieldValue::F64(if medians[1] > 0.0 { medians[0] / medians[1] } else { 0.0 }),
            );
        }
        row.push_measurement(&m);
        results.push(row);
    }
    if sums[0] != sums[1] {
        return Err(format!(
            "svm batched path diverged from scalar: label sum {} vs {}",
            sums[1], sums[0]
        ));
    }
    Ok(results)
}

fn kde_fit_row(cfg: &BenchConfig, clock: &dyn Clock) -> Result<BenchRow, String> {
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xEDE);
    let points: Vec<f64> = (0..cfg.kde_points).map(|_| 2.0 + rng.normal() * 0.5).collect();
    let mut threshold = 0.0f64;
    let m = measure(clock, cfg.warmup_iters, cfg.iters, cfg.samples, 1, || {
        let kde = GaussianKde::fit(&points).expect("seeded KDE input is valid");
        threshold = kde.quantile(0.99);
        black_box(threshold);
    })?;
    let mut row = BenchRow::new("kde_fit");
    row.push("points", FieldValue::U64(cfg.kde_points));
    row.push("threshold", FieldValue::F64(threshold));
    row.push("threshold_bits", FieldValue::U64(threshold.to_bits()));
    row.push_measurement(&m);
    Ok(row)
}

/// The `engine` workload's layout: two sensors × two streams.
fn engine_groups() -> Vec<(u16, Vec<usize>)> {
    vec![(0, vec![0, 1]), (1, vec![2, 3])]
}

/// The `engine` workload's day as encoded v1 frames, tick-major.
fn engine_frames(cfg: &BenchConfig, groups: &[(u16, Vec<usize>)]) -> Vec<Vec<u8>> {
    let rows_flat = seeded_rows(cfg.seed ^ 0xE6, cfg.engine_ticks);
    let mut frames = Vec::new();
    for tick in 0..cfg.engine_ticks {
        let row = &rows_flat[tick as usize * N_STREAMS..(tick as usize + 1) * N_STREAMS];
        for (sensor, positions) in groups {
            let values = positions.iter().map(|&p| row[p] as f32).collect();
            frames.push(Frame::rssi(*sensor, tick as u32, tick, values).encode());
        }
    }
    frames
}

/// The `engine` workload: a fresh engine takes the whole pre-encoded
/// day in one `ingest_bytes` call. `instrumented` runs it the way
/// `fadewichd serve --metrics-addr` does (`engine_telemetry_on`):
/// metrics-only telemetry with the standard SLO set, and the day's
/// counters exported at its end. That row's wall time next to the
/// `engine` row's prices the instrumentation, and it adds an FNV
/// digest of the deterministic metrics dump.
fn engine_row(
    cfg: &BenchConfig,
    clock: &dyn Clock,
    instrumented: bool,
) -> Result<BenchRow, String> {
    let re = trained_re(cfg.seed);
    let inputs = busy_inputs(cfg.engine_ticks);
    let groups = engine_groups();
    let engine_cfg = EngineConfig::new(TICK_HZ, bench_params());
    // Pre-encode the whole day's frames so only ingest+step is timed.
    let bytes = engine_frames(cfg, &groups).concat();
    let mut actions_total = 0u64;
    let mut digest = 0u64;
    let mut frames_in = 0u64;
    let mut metrics_digest = 0u64;
    let m = measure(clock, cfg.warmup_iters, cfg.iters, cfg.samples, cfg.engine_ticks, || {
        let kma = Kma::new(&inputs);
        let mut engine = StreamingEngine::new(engine_cfg, groups.clone(), &re, kma)
            .expect("bench engine layout is valid");
        let telemetry = if instrumented {
            let t = Telemetry::metrics_only();
            t.set_slo(SloEngine::standard(TICK_HZ));
            engine.set_telemetry(t.clone());
            t
        } else {
            Telemetry::disabled()
        };
        engine.ingest_bytes(&bytes);
        engine.finish(cfg.engine_ticks);
        engine.counters().export_into(&telemetry);
        actions_total = engine.actions().len() as u64;
        digest = action_digest(engine.actions());
        frames_in = engine.counters().frames_in;
        if let Some(json) = telemetry.metrics_json(false) {
            metrics_digest = fnv1a(FNV_OFFSET, json.as_bytes());
        }
    })?;
    let mut row = BenchRow::new(if instrumented { "engine_telemetry_on" } else { "engine" });
    row.push("ticks", FieldValue::U64(cfg.engine_ticks));
    row.push("frames_in", FieldValue::U64(frames_in));
    row.push("actions_total", FieldValue::U64(actions_total));
    row.push("action_digest", FieldValue::U64(digest));
    if instrumented {
        row.push("metrics_digest", FieldValue::U64(metrics_digest));
    }
    row.push_measurement(&m);
    row.push(
        "wall_ticks_per_sec",
        FieldValue::F64(if m.wall_median_ns_per_unit > 0.0 {
            1e9 / m.wall_median_ns_per_unit
        } else {
            0.0
        }),
    );
    Ok(row)
}

/// Streams the `engine` workload through a small fleet — every office
/// is the same seeded tenant behind the demux front — and requires
/// each office to produce exactly the standalone engine's actions.
fn fleet_demux_row(cfg: &BenchConfig, clock: &dyn Clock) -> Result<BenchRow, String> {
    const OFFICES: usize = 8;
    const SHARDS: usize = 4;
    let re = trained_re(cfg.seed);
    let inputs = busy_inputs(cfg.engine_ticks);
    let groups = engine_groups();
    let engine_cfg = EngineConfig::new(TICK_HZ, bench_params());
    // One merged blob: each tick's frames for all offices, interleaved
    // the way a shared ingestion front would see them.
    let rows_flat = seeded_rows(cfg.seed ^ 0xE6, cfg.engine_ticks);
    let mut bytes = Vec::new();
    for tick in 0..cfg.engine_ticks {
        let row = &rows_flat[tick as usize * N_STREAMS..(tick as usize + 1) * N_STREAMS];
        for office in 0..OFFICES as u16 {
            for (sensor, positions) in &groups {
                let frame = Frame {
                    office,
                    ..Frame::rssi(
                        *sensor,
                        tick as u32,
                        tick,
                        positions.iter().map(|&p| row[p] as f32).collect(),
                    )
                };
                bytes.extend_from_slice(&frame.encode());
            }
        }
    }
    // Standalone reference: the same tenant outside the fleet.
    let reference_digest = {
        let kma = Kma::new(&inputs);
        let mut engine = StreamingEngine::new(engine_cfg, groups.clone(), &re, kma)
            .expect("bench engine layout is valid");
        engine.ingest_bytes(&engine_frames(cfg, &groups).concat());
        engine.finish(cfg.engine_ticks);
        action_digest(engine.actions())
    };
    let mut demuxed = 0u64;
    let mut matches = true;
    let m = measure(
        clock,
        cfg.warmup_iters,
        cfg.iters,
        cfg.samples,
        cfg.engine_ticks * OFFICES as u64,
        || {
            let engines: Vec<StreamingEngine> = (0..OFFICES)
                .map(|_| {
                    StreamingEngine::new(engine_cfg, groups.clone(), &re, Kma::new(&inputs))
                        .expect("bench engine layout is valid")
                })
                .collect();
            let mut fleet =
                FleetRuntime::new(SHARDS, engines).expect("bench fleet layout is valid");
            fleet.ingest(&bytes);
            fleet.advance();
            fleet.finish_day(cfg.engine_ticks);
            demuxed = fleet.counters().frames_demuxed;
            matches = true;
            fleet.for_each_office(|_, engine| {
                matches &= action_digest(engine.actions()) == reference_digest;
            });
        },
    )?;
    if !matches {
        return Err(
            "fleet demux diverged: an office's actions differ from the standalone engine"
                .to_string(),
        );
    }
    let mut row = BenchRow::new("fleet_demux");
    row.push("offices", FieldValue::U64(OFFICES as u64));
    row.push("shards", FieldValue::U64(SHARDS as u64));
    row.push("ticks_per_office", FieldValue::U64(cfg.engine_ticks));
    row.push("frames_demuxed", FieldValue::U64(demuxed));
    row.push("action_digest", FieldValue::U64(reference_digest));
    row.push("matches_single_office", FieldValue::Bool(matches));
    row.push_measurement(&m);
    // One unit is one office-tick: the aggregate rate divided by the
    // office count is what a single tenant experiences.
    let aggregate =
        if m.wall_median_ns_per_unit > 0.0 { 1e9 / m.wall_median_ns_per_unit } else { 0.0 };
    row.push("wall_office_ticks_per_sec", FieldValue::F64(aggregate));
    row.push(
        "wall_ticks_per_sec_per_office",
        FieldValue::F64(aggregate / OFFICES as f64),
    );
    Ok(row)
}

/// Whether the counting allocator is the global allocator.
fn counting_active() -> bool {
    let before = alloc_counts();
    black_box(Box::new(0x5EEDu64));
    alloc_counts().since(before).calls > 0
}

/// Steps a warmed-up quiet controller one tick at a time and counts
/// allocator traffic per tick. With the counting allocator registered
/// (the `reproduce` binary does), steady-state quiet ticks are
/// allocation-free except at MD batch-flush boundaries; without it
/// the row reports `counting_active = false` and zeros.
fn alloc_row(cfg: &BenchConfig) -> Result<BenchRow, String> {
    let counting_active = counting_active();
    let re = trained_re(cfg.seed);
    let inputs = busy_inputs(cfg.alloc_ticks + 1_000);
    let kma = Kma::new(&inputs);
    let mut ctl = Controller::new(N_STREAMS, TICK_HZ, bench_params(), &re, kma)
        .map_err(|e| format!("bench controller: {e}"))?;
    // Quiet rows only: the probe measures the steady-state tick loop.
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA110C);
    let warm_ticks = 600usize;
    let total = warm_ticks + cfg.alloc_ticks as usize;
    let rows: Vec<f64> =
        (0..total * N_STREAMS).map(|_| -50.0 + rng.normal() * 0.6).collect();
    for tick in 0..warm_ticks {
        ctl.step(tick, &rows[tick * N_STREAMS..(tick + 1) * N_STREAMS]);
    }
    let mut zero_ticks = 0u64;
    let before = alloc_counts();
    for tick in warm_ticks..total {
        let t0 = alloc_counts();
        ctl.step(tick, &rows[tick * N_STREAMS..(tick + 1) * N_STREAMS]);
        if alloc_counts().since(t0).calls == 0 {
            zero_ticks += 1;
        }
    }
    let delta = alloc_counts().since(before);
    let mut row = BenchRow::new("controller_tick_allocs");
    row.push("counting_active", FieldValue::Bool(counting_active));
    row.push("ticks", FieldValue::U64(cfg.alloc_ticks));
    row.push("zero_alloc_ticks", FieldValue::U64(zero_ticks));
    row.push("alloc_calls", FieldValue::U64(delta.calls));
    row.push("alloc_bytes", FieldValue::U64(delta.bytes));
    row.push(
        "alloc_calls_per_tick",
        FieldValue::F64(delta.calls as f64 / cfg.alloc_ticks as f64),
    );
    Ok(row)
}

/// Feeds the `engine` workload through `ingest_bytes` one frame per
/// call, as `fadewichd serve` delivers them, and counts allocator
/// traffic per frame and per tick: the ingest-path probe next to
/// `controller_tick_allocs`. The whole day is counted — profile init,
/// Algorithm-1 flushes and the burst's RE classifications included.
/// Like that row it needs the counting allocator, and reports
/// `counting_active = false` and zeros without it.
fn ingest_alloc_row(cfg: &BenchConfig) -> Result<BenchRow, String> {
    let counting_active = counting_active();
    let re = trained_re(cfg.seed);
    let inputs = busy_inputs(cfg.engine_ticks);
    let groups = engine_groups();
    let frames = engine_frames(cfg, &groups);
    let engine_cfg = EngineConfig::new(TICK_HZ, bench_params());
    let mut engine = StreamingEngine::new(engine_cfg, groups, &re, Kma::new(&inputs))
        .map_err(|e| format!("bench engine: {e}"))?;
    let mut zero_frames = 0u64;
    let before = alloc_counts();
    for bytes in &frames {
        let t0 = alloc_counts();
        engine.ingest_bytes(bytes);
        if alloc_counts().since(t0).calls == 0 {
            zero_frames += 1;
        }
    }
    let delta = alloc_counts().since(before);
    engine.finish(cfg.engine_ticks);
    let n_frames = frames.len() as u64;
    let mut row = BenchRow::new("engine_ingest_allocs");
    row.push("counting_active", FieldValue::Bool(counting_active));
    row.push("frames", FieldValue::U64(n_frames));
    row.push("ticks", FieldValue::U64(cfg.engine_ticks));
    row.push("zero_alloc_frames", FieldValue::U64(zero_frames));
    row.push("alloc_calls", FieldValue::U64(delta.calls));
    row.push("alloc_bytes", FieldValue::U64(delta.bytes));
    row.push("alloc_calls_per_frame", FieldValue::F64(delta.calls as f64 / n_frames as f64));
    row.push(
        "alloc_calls_per_tick",
        FieldValue::F64(delta.calls as f64 / cfg.engine_ticks as f64),
    );
    row.push("action_digest", FieldValue::U64(action_digest(engine.actions())));
    Ok(row)
}

/// Runs every workload and assembles the report. Purely seed- and
/// clock-driven: a manual clock yields a fully deterministic report,
/// a wall clock yields deterministic non-`wall_` fields.
///
/// # Errors
///
/// Invalid configs, workload construction failures, and any fast-path
/// divergence from the reference arithmetic.
pub fn run(cfg: &BenchConfig, clock: &Arc<dyn Clock>) -> Result<BenchReport, String> {
    cfg.validate()?;
    let clock = clock.as_ref();
    let engine = engine_row(cfg, clock, false)?;
    let instrumented = engine_row(cfg, clock, true)?;
    if instrumented.get("action_digest") != engine.get("action_digest") {
        return Err("telemetry changed the engine's decisions: engine_telemetry_on's \
                    action_digest differs from engine's"
            .to_string());
    }
    let mut rows = vec![engine, instrumented];
    rows.push(wire_decode_row(cfg, clock)?);
    rows.push(wire_decode_borrowed_row(cfg, clock)?);
    rows.push(mac_verify_row(cfg, clock)?);
    rows.push(md_step_row(cfg, clock)?);
    rows.extend(svm_rows_bench(cfg, clock)?);
    rows.push(kde_fit_row(cfg, clock)?);
    rows.push(fleet_demux_row(cfg, clock)?);
    rows.push(alloc_row(cfg)?);
    rows.push(ingest_alloc_row(cfg)?);
    Ok(BenchReport { seed: cfg.seed, smoke: cfg.smoke, rows })
}

/// `YYYY-MM-DD` from a Unix timestamp (proleptic Gregorian, UTC) —
/// enough calendar math to stamp the report filename without a date
/// dependency.
pub fn civil_date(unix_secs: u64) -> String {
    let days = unix_secs / 86_400;
    // Howard Hinnant's civil-from-days algorithm.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}
