//! Microbenchmarks of the hot primitives: the per-tick work that a
//! real deployment would run continuously.

use fadewich_testkit::bench::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fadewich_core::config::FadewichParams;
use fadewich_core::features::extract_features;
use fadewich_core::md::MovementDetector;
use fadewich_geometry::{Point, Rect, Segment};
use fadewich_core::kma::Kma;
use fadewich_officesim::{DayTrace, InputTrace};
use fadewich_rfchannel::{Body, ChannelParams, ChannelSim};
use fadewich_runtime::Frame;
use fadewich_stats::kde::GaussianKde;
use fadewich_stats::rng::Rng;
use fadewich_stats::rolling::RollingStd;
use fadewich_svm::{BinarySvm, Kernel, SmoParams};

fn bench_rolling_std(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    let samples: Vec<f64> = (0..10_000).map(|_| rng.normal_with(-50.0, 1.0)).collect();
    c.bench_function("rolling_std_push_10k", |b| {
        b.iter_batched(
            || RollingStd::new(10),
            |mut w| {
                for &x in &samples {
                    w.push(x);
                }
                black_box(w.std_dev())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_kde(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(2);
    let profile: Vec<f64> = (0..1_500).map(|_| rng.normal_with(55.0, 4.0)).collect();
    c.bench_function("kde_fit_and_p99_1500", |b| {
        b.iter(|| {
            let kde = GaussianKde::fit(black_box(&profile)).unwrap();
            black_box(kde.quantile(0.99))
        })
    });
}

fn bench_channel_step(c: &mut Criterion) {
    let sensors: Vec<Point> = (0..9)
        .map(|i| Point::new(i as f64 * 0.7, if i % 2 == 0 { 0.0 } else { 3.0 }))
        .collect();
    let mut sim = ChannelSim::new(
        &sensors,
        Rect::with_size(6.0, 3.0),
        5.0,
        ChannelParams::default(),
        3,
    )
    .unwrap();
    let bodies = [
        Body::new(Point::new(2.0, 1.5), 1.0),
        Body::still(Point::new(4.0, 2.0)),
        Body::still(Point::new(1.0, 1.0)),
    ];
    c.bench_function("channel_step_72_streams_3_bodies", |b| {
        b.iter(|| black_box(sim.step(black_box(&bodies))[0]))
    });
}

fn bench_md_step(c: &mut Criterion) {
    let params = FadewichParams::default();
    let mut md = MovementDetector::new(72, 5.0, params).unwrap();
    let mut rng = Rng::seed_from_u64(4);
    // Warm past profile initialization.
    let mut tick = 0usize;
    let mut row = vec![0.0f64; 72];
    for _ in 0..400 {
        for r in row.iter_mut() {
            *r = -50.0 + rng.normal();
        }
        md.step(tick, &row);
        tick += 1;
    }
    c.bench_function("md_step_72_streams", |b| {
        b.iter(|| {
            for r in row.iter_mut() {
                *r = -50.0 + rng.normal();
            }
            let v = md.step(tick, &row);
            tick += 1;
            black_box(v.st)
        })
    });
}

fn bench_body_attenuation(c: &mut Criterion) {
    let link = Segment::new(Point::new(0.0, 2.0), Point::new(4.5, 0.0));
    let body = Point::new(2.0, 1.1);
    c.bench_function("point_segment_distance", |b| {
        b.iter(|| black_box(link.distance_to_point(black_box(body))))
    });
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(5);
    let mut day = DayTrace::with_capacity(72, 200);
    let mut row = vec![0.0f64; 72];
    for _ in 0..200 {
        for r in row.iter_mut() {
            *r = -50.0 + rng.normal();
        }
        day.push_row(&row);
    }
    let streams: Vec<usize> = (0..72).collect();
    let params = FadewichParams::default();
    c.bench_function("extract_features_72_streams", |b| {
        b.iter(|| black_box(extract_features(&day, &streams, 50, 5.0, &params)))
    });
}

/// A busy 8-workstation day: the KMA query load Rule 2 generates on
/// every alert tick.
fn kma_input_fixture() -> InputTrace {
    let mut rng = Rng::seed_from_u64(8);
    let times: Vec<Vec<f64>> = (0..8)
        .map(|_| {
            let mut t = 0.0;
            let mut events = Vec::new();
            while t < 7200.0 {
                t += 1.0 + 30.0 * rng.f64();
                events.push(t);
            }
            events
        })
        .collect();
    InputTrace::from_times(times)
}

fn bench_kma_idle_set(c: &mut Criterion) {
    // What Rule 2 used to do on every alert tick: materialize the
    // idle set, then membership-test each session against it.
    let inputs = kma_input_fixture();
    let kma = Kma::new(&inputs);
    c.bench_function("kma_rule2_via_idle_set_8ws", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for i in 0..100 {
                let s = black_box(10.0);
                let t = black_box(60.0 + i as f64 * 70.0);
                let set = kma.idle_set(s, t);
                for ws in 0..kma.n_workstations() {
                    hits += usize::from(set.contains(&ws));
                }
            }
            black_box(hits)
        })
    });
}

fn bench_kma_is_idle_scan(c: &mut Criterion) {
    // The allocation-free path the controller's Rule 2 hot loop uses
    // now: one is_idle query per session, no Vec.
    let inputs = kma_input_fixture();
    let kma = Kma::new(&inputs);
    c.bench_function("kma_rule2_via_is_idle_8ws", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for i in 0..100 {
                let s = black_box(10.0);
                let t = black_box(60.0 + i as f64 * 70.0);
                for ws in 0..kma.n_workstations() {
                    hits += usize::from(kma.is_idle(ws, s, t));
                }
            }
            black_box(hits)
        })
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let frame = Frame::rssi(3, 12_345, 9_999, (0..8).map(|i| -50.0 - i as f32).collect());
    let bytes = frame.encode();
    c.bench_function("wire_encode_decode_8_values", |b| {
        b.iter(|| {
            let enc = black_box(&frame).encode();
            let (dec, _) = Frame::decode(black_box(&enc)).unwrap();
            black_box(dec.tick)
        })
    });
    c.bench_function("wire_decode_8_values", |b| {
        b.iter(|| black_box(Frame::decode(black_box(&bytes)).unwrap().0.seq))
    });
}

fn bench_smo_training(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(6);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..100 {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let x: Vec<f64> =
            (0..216).map(|j| rng.normal() + y * f64::from(u8::from(j < 10))).collect();
        xs.push(x);
        ys.push(y);
    }
    c.bench_function("smo_train_100x216", |b| {
        b.iter(|| {
            let mut train_rng = Rng::seed_from_u64(7);
            black_box(
                BinarySvm::train(&xs, &ys, Kernel::Linear, SmoParams::default(), &mut train_rng)
                    .unwrap()
                    .n_support_vectors(),
            )
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_rolling_std, bench_kde, bench_channel_step, bench_md_step,
              bench_body_attenuation, bench_feature_extraction,
              bench_kma_idle_set, bench_kma_is_idle_scan, bench_wire_codec,
              bench_smo_training
}
criterion_main!(micro);
