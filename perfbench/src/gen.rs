//! The seeded generator, kept apart from the system under test.
//!
//! One generation serves all workloads: simulate three paper-scale
//! days (nine sensors, 72 streams at 5 Hz), train on days 0–1 with
//! `replay::train_model`, and keep what serving day 2 needs — the
//! recorded day, its keyboard/mouse activity and the artifact bytes.
//! The system under test later receives only the artifact bytes and
//! delivery streams built from these.
//!
//! Simulation and training take seconds, so a generation is cached in
//! `.bench_cache/` under the checkout, keyed by seed and by a hash of
//! the benchmark executable: any rebuild that changes the program
//! regenerates.

use std::path::{Path, PathBuf};

use fadewich_core::config::FadewichParams;
use fadewich_geometry::{Point, Segment};
use fadewich_officesim::{DayTrace, InputTrace, Scenario, ScenarioConfig, Trace};
use fadewich_rfchannel::LinkId;
use fadewich_runtime::replay;

/// Days simulated per generation: two to train on, one to serve.
const DAYS: usize = 3;
/// The recorded day every workload serves.
const SERVED_DAY: usize = 2;
/// Sensors monitored (the paper's full deployment: 72 streams).
const SENSORS: usize = 9;
/// Seed variants tried before giving up on a seed that trains no
/// classifier.
const SEED_ATTEMPTS: u64 = 8;

/// Everything generated for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Generated {
    /// Sampling rate of the deployment.
    pub tick_hz: f64,
    /// Stream identities of the recording.
    pub link_ids: Vec<LinkId>,
    /// Stream geometry of the recording.
    pub segments: Vec<Segment>,
    /// Monitored stream indices.
    pub streams: Vec<usize>,
    /// The served day's recording.
    pub day: DayTrace,
    /// The served day's keyboard/mouse activity (KMA input).
    pub inputs: InputTrace,
    /// The trained model as `ModelBundle` bytes (no key table).
    pub artifact: Vec<u8>,
}

impl Generated {
    /// A one-day trace holding the first `n_ticks` ticks of the served
    /// day — what delivery framing and schema validation read.
    ///
    /// # Panics
    ///
    /// If `n_ticks` exceeds the served day.
    pub fn trace(&self, n_ticks: usize) -> Trace {
        assert!(
            n_ticks <= self.day.n_ticks(),
            "slice longer than the served day"
        );
        let day = if n_ticks == self.day.n_ticks() {
            self.day.clone()
        } else {
            let mut slice = DayTrace::with_capacity(self.day.n_streams(), n_ticks);
            let mut row = vec![0.0f64; self.day.n_streams()];
            for tick in 0..n_ticks {
                for (dst, &v) in row.iter_mut().zip(self.day.row(tick)) {
                    *dst = f64::from(v);
                }
                slice.push_row(&row);
            }
            slice
        };
        Trace::new(
            self.tick_hz,
            vec![day],
            self.link_ids.clone(),
            self.segments.clone(),
        )
    }
}

/// Simulates and trains the paper-scale generation for `seed`.
///
/// A seed whose scenario yields no trainable label set moves on to a
/// deterministic variant, so every seed produces valid workloads.
///
/// # Errors
///
/// When no variant of `seed` trains.
pub fn paper_scale(seed: u64) -> Result<Generated, String> {
    let mut last_err = String::new();
    for attempt in 0..SEED_ATTEMPTS {
        let config = ScenarioConfig {
            seed: splitmix(seed ^ attempt.wrapping_mul(0x9E37_79B9)),
            days: DAYS,
            ..ScenarioConfig::default()
        };
        let scenario = Scenario::generate(config).map_err(|e| format!("scenario: {e:?}"))?;
        let trace = scenario
            .simulate()
            .map_err(|e| format!("simulation: {e:?}"))?;
        let subset = scenario.layout().sensor_subset(SENSORS);
        let streams = trace.stream_indices_for_subset(&subset);
        let params = FadewichParams::default();
        match replay::train_model(&scenario, &trace, &streams, SERVED_DAY, &params) {
            Ok(bundle) => {
                return Ok(Generated {
                    tick_hz: trace.tick_hz(),
                    link_ids: trace.link_ids().to_vec(),
                    segments: trace.link_segments().to_vec(),
                    streams,
                    day: trace.days()[SERVED_DAY].clone(),
                    inputs: scenario.input_trace(SERVED_DAY, 0),
                    artifact: bundle.encode(),
                })
            }
            Err(e) => last_err = e,
        }
    }
    Err(format!(
        "no trainable scenario in {SEED_ATTEMPTS} variants of seed {seed}: {last_err}"
    ))
}

/// SplitMix64 finalizer: spreads small seeds over the whole space.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

const MAGIC: &[u8; 8] = b"FWPBGEN1";

/// Loads `seed`'s generation from `dir`, or generates and stores it.
/// A missing, stale or damaged cache file is regenerated.
///
/// # Errors
///
/// Generation failures; a cache that cannot be written is reported on
/// stderr and skipped.
pub fn load_or_generate(dir: &Path, seed: u64) -> Result<Generated, String> {
    let key = fnv(program_hash(), &seed.to_le_bytes());
    let path = cache_path(dir, seed);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Some(generated) = decode(&bytes, key) {
            return Ok(generated);
        }
    }
    let generated = paper_scale(seed)?;
    let bytes = encode(&generated, key);
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let stored = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&tmp, &bytes))
        .and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = stored {
        let _ = std::fs::remove_file(&tmp);
        eprintln!(
            "perfbench: not caching generation at {}: {e}",
            path.display()
        );
    }
    Ok(generated)
}

fn cache_path(dir: &Path, seed: u64) -> PathBuf {
    dir.join(format!("gen-{seed}.bin"))
}

/// Hash of the running executable, so a rebuilt program never reads a
/// generation made by another build. 0 when the executable is
/// unreadable (the seed still keys the cache).
fn program_hash() -> u64 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| fnv(FNV_OFFSET, &bytes))
}

fn encode(g: &Generated, key: u64) -> Vec<u8> {
    let mut w = Vec::with_capacity(64 + g.day.n_ticks() * g.day.n_streams() * 4 + g.artifact.len());
    w.extend_from_slice(MAGIC);
    put_u64(&mut w, key);
    w.extend_from_slice(&g.tick_hz.to_le_bytes());
    put_u64(&mut w, g.link_ids.len() as u64);
    for (id, seg) in g.link_ids.iter().zip(&g.segments) {
        put_u64(&mut w, id.tx as u64);
        put_u64(&mut w, id.rx as u64);
        for v in [seg.a.x, seg.a.y, seg.b.x, seg.b.y] {
            w.extend_from_slice(&v.to_le_bytes());
        }
    }
    put_u64(&mut w, g.streams.len() as u64);
    for &s in &g.streams {
        put_u64(&mut w, s as u64);
    }
    put_u64(&mut w, g.day.n_streams() as u64);
    put_u64(&mut w, g.day.n_ticks() as u64);
    for tick in 0..g.day.n_ticks() {
        for v in g.day.row(tick) {
            w.extend_from_slice(&v.to_le_bytes());
        }
    }
    put_u64(&mut w, g.inputs.n_workstations() as u64);
    for ws in 0..g.inputs.n_workstations() {
        let times = g.inputs.times(ws);
        put_u64(&mut w, times.len() as u64);
        for t in times {
            w.extend_from_slice(&t.to_le_bytes());
        }
    }
    put_u64(&mut w, g.artifact.len() as u64);
    w.extend_from_slice(&g.artifact);
    let sum = fnv(FNV_OFFSET, &w);
    put_u64(&mut w, sum);
    w
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a cache file.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.rest.len() < n {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// A count whose items take at least `item_bytes` each: bounded by
    /// the bytes left, so a damaged length cannot demand a huge
    /// allocation.
    fn len(&mut self, item_bytes: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n.checked_mul(item_bytes)? <= self.rest.len()).then_some(n)
    }
}

fn decode(bytes: &[u8], key: u64) -> Option<Generated> {
    let (body, sum) = bytes.split_at(bytes.len().checked_sub(8)?);
    if u64::from_le_bytes(sum.try_into().ok()?) != fnv(FNV_OFFSET, body) {
        return None;
    }
    let mut r = Reader { rest: body };
    if r.take(MAGIC.len())? != MAGIC || r.u64()? != key {
        return None;
    }
    let tick_hz = r.f64()?;
    let n_links = r.len(48)?;
    let mut link_ids = Vec::with_capacity(n_links);
    let mut segments = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        let tx = usize::try_from(r.u64()?).ok()?;
        let rx = usize::try_from(r.u64()?).ok()?;
        link_ids.push(LinkId { tx, rx });
        let (ax, ay, bx, by) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        segments.push(Segment {
            a: Point { x: ax, y: ay },
            b: Point { x: bx, y: by },
        });
    }
    let n_streams = r.len(8)?;
    let streams = (0..n_streams)
        .map(|_| r.u64().and_then(|s| usize::try_from(s).ok()))
        .collect::<Option<Vec<usize>>>()?;
    let width = usize::try_from(r.u64()?).ok()?;
    let n_ticks = r.len(width.checked_mul(4)?.max(1))?;
    if width != n_links || streams.iter().any(|&s| s >= width) {
        return None;
    }
    let raw = r.take(n_ticks * width * 4)?;
    let mut day = DayTrace::with_capacity(width, n_ticks);
    let mut row = vec![0.0f64; width];
    for tick_bytes in raw.chunks_exact(width * 4) {
        for (dst, b) in row.iter_mut().zip(tick_bytes.chunks_exact(4)) {
            *dst = f64::from(f32::from_le_bytes(b.try_into().ok()?));
        }
        day.push_row(&row);
    }
    let n_ws = r.len(8)?;
    let mut times = Vec::with_capacity(n_ws);
    for _ in 0..n_ws {
        let n = r.len(8)?;
        times.push((0..n).map(|_| r.f64()).collect::<Option<Vec<f64>>>()?);
    }
    let artifact_len = r.len(1)?;
    let artifact = r.take(artifact_len)?.to_vec();
    if !r.rest.is_empty() {
        return None;
    }
    Some(Generated {
        tick_hz,
        link_ids,
        segments,
        streams,
        day,
        inputs: InputTrace::from_times(times),
        artifact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_round_trips_and_rejects_damage() {
        let g = crate::testing::tiny_generation(3);
        let bytes = encode(&g, 42);
        assert_eq!(decode(&bytes, 42), Some(g.clone()));
        assert_eq!(decode(&bytes, 43), None, "another build's key must miss");
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(decode(&bytes[..cut], 42), None, "truncated at {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 3] ^= 0x10;
        assert_eq!(decode(&flipped, 42), None);
    }

    #[test]
    fn slices_keep_the_served_day_prefix() {
        let g = crate::testing::tiny_generation(5);
        let t = g.trace(10);
        assert_eq!(t.days()[0].n_ticks(), 10);
        assert_eq!(t.days()[0].row(9), g.day.row(9));
        assert_eq!(g.trace(g.day.n_ticks()).days()[0], g.day);
    }
}
