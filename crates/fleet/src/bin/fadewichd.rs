//! `fadewichd` — train and serve the FADEWICH pipeline over officesim
//! scenarios, optionally through a lossy link.
//!
//! ```text
//! fadewichd train --out PATH [scenario flags]
//! fadewichd serve --model PATH [scenario flags] [link flags] [recovery flags]
//! fadewichd fleet --model PATH --offices N [--shards N] [scenario flags] [link flags] [recovery flags]
//! fadewichd replay [--model PATH] [scenario flags] [link flags]
//! fadewichd stats PATH
//! ```
//!
//! `train` runs the training phase (MD over the training days, KMA
//! auto-labeling, SMO) and writes a versioned model artifact; it
//! prints only to stderr. `serve` loads an artifact, validates its
//! feature schema against the scenario, and streams the remaining
//! days through the engine **without any training code** — no SMO, no
//! KDE fit at startup. `replay` is the legacy single-process flow:
//! train in memory (or load `--model`) and then stream. A `replay`
//! and a `serve --model` of the same trained scenario print
//! byte-identical decision streams, which `scripts/ci.sh` enforces.
//!
//! Scenario flags: `--days N --seed N --sensors N --train-days N`.
//! Link flags: `--drop P --dup P --corrupt P --jitter TICKS
//! --link-seed N --json`. Bare flags without a subcommand are
//! accepted as `replay` for backwards compatibility.
//!
//! # Telemetry
//!
//! Every subcommand accepts `--trace-out PATH` (structured span/event
//! records as JSONL, stamped with the logical tick clock) and
//! `--metrics-out PATH` (the deterministic metrics-registry dump as
//! JSON). Both are seed-deterministic: two runs with identical flags
//! produce byte-identical files, which `scripts/ci.sh` enforces with
//! `cmp`. Wall-clock latency histograms are deliberately excluded from
//! the dump. `fadewichd stats PATH` pretty-prints a previously written
//! metrics dump; `fadewichd stats --profile TRACE [--collapsed]` folds
//! a trace JSONL into the per-stage span profile (or flamegraph
//! collapsed stacks).
//!
//! # Ops plane
//!
//! `--metrics-addr HOST:PORT` (serve, fleet, replay) starts the
//! in-process HTTP scrape server: `/metrics` (Prometheus text),
//! `/metrics.json`, `/healthz` (503 once any attack-quarantine
//! signal is nonzero), and `/slo` (the standard SLO report, fed from
//! the decision audit trail). `--metrics-addr-file PATH` writes the
//! bound address (useful with port 0); `--hold-secs N` keeps the
//! endpoint up after the run so it can be scraped. The server reads
//! wall time only through the telemetry `Clock` seam and its scrape
//! counters stay out of the deterministic registry.
//!
//! # Crash recovery (serve only)
//!
//! With `--checkpoint-dir PATH`, serve persists a CRC-guarded engine
//! checkpoint every `--checkpoint-every` processed ticks (default: one
//! simulated minute) and tees every stdout line into
//! `PATH/decisions.log`. On startup it loads the newest valid
//! checkpoint, truncates the decision log to the checkpointed
//! committed length, skips the deliveries already ingested, and
//! resumes — the final decision log is **byte-identical** to an
//! uninterrupted run's. Corrupt checkpoints are reported to stderr and
//! skipped (falling back to the previous one, or a cold start).
//! `--crash-after-ticks N` aborts the process mid-stream, for
//! exercising exactly that path (see `scripts/ci.sh`).
//!
//! # Fleet mode
//!
//! `fleet` hosts `--offices N` tenants of the scenario inside one
//! process behind the fleet demux front (see `fadewich_fleet`): one
//! shared read-only model, per-office engines sharded over `--shards`
//! groups on the deterministic worker pool. Office 0 streams the
//! exact bytes a single-office `serve` with the same flags streams,
//! so its decision log is byte-identical to serve's — `scripts/ci.sh`
//! `cmp`s the two. With `--checkpoint-dir ROOT` each office
//! checkpoints under `ROOT/office-%05d/` with its own `decisions.log`,
//! and a crashed fleet resumes every office from its own newest valid
//! image. stdout carries only the deterministic fleet rollup.
//!
//! Exit codes: 2 usage, 3 scenario, 4 model artifact, 5 engine,
//! 6 checkpoint, 7 I/O failure (the message names the file or socket:
//! decision log, trace out, metrics out, ops server or stats input).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;

use fadewich_core::artifact::ModelBundle;
use fadewich_core::config::FadewichParams;
use fadewich_core::re::RadioEnvironment;
use fadewich_fleet::day::{
    office_dir, run_fleet_day, FleetDayEnv, FleetRecovery, FleetSink, OfficeRecovery, OfficeStart,
    DEFAULT_ADVANCE_EVERY,
};
use fadewich_officesim::{Scenario, ScenarioConfig, ScheduleParams, Trace};
use fadewich_runtime::checkpoint::{CheckpointStore, EngineSnapshot};
use fadewich_runtime::daylog::LineSink;
use fadewich_runtime::engine::{EngineConfig, EngineEvent};
use fadewich_runtime::link::LinkModel;
use fadewich_runtime::replay::{self, Checkpointing, CrashPoint, DayRun, Deployment};
use fadewich_telemetry::{json, OpsServer, Profile, SloEngine, Telemetry, Value, WallClock};

/// Everything that can take the daemon down, with a distinct exit
/// code per failure class so supervisors can tell a bad flag from a
/// bad disk.
#[derive(Debug)]
enum DaemonError {
    /// Bad command line (exit 2).
    Usage(String),
    /// Scenario generation or simulation failed (exit 3).
    Scenario(String),
    /// Model artifact load/save/schema failure (exit 4).
    Artifact(String),
    /// Engine construction, training, or streaming failure (exit 5).
    Engine(String),
    /// Checkpoint store failure (exit 6).
    Checkpoint(String),
    /// I/O failure (exit 7). The message names its subject itself
    /// (decision log, trace out, metrics out, ops server, stats input).
    Io(String),
}

impl DaemonError {
    fn exit_code(&self) -> i32 {
        match self {
            DaemonError::Usage(_) => 2,
            DaemonError::Scenario(_) => 3,
            DaemonError::Artifact(_) => 4,
            DaemonError::Engine(_) => 5,
            DaemonError::Checkpoint(_) => 6,
            DaemonError::Io(_) => 7,
        }
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Usage(m) => write!(f, "{m}"),
            DaemonError::Scenario(m) => write!(f, "scenario: {m}"),
            DaemonError::Artifact(m) => write!(f, "model artifact: {m}"),
            DaemonError::Engine(m) => write!(f, "engine: {m}"),
            DaemonError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
            DaemonError::Io(m) => write!(f, "{m}"),
        }
    }
}

enum Command {
    Train { out: PathBuf },
    Serve { model: PathBuf },
    Fleet { model: PathBuf },
    Replay { model: Option<PathBuf> },
    Stats { path: PathBuf, profile: bool, collapsed: bool },
}

struct Args {
    command: Command,
    days: usize,
    seed: u64,
    sensors: usize,
    train_days: usize,
    link: LinkModel,
    link_seed: u64,
    json: bool,
    offices: usize,
    shards: usize,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    crash_after_ticks: Option<u64>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    metrics_addr: Option<String>,
    metrics_addr_file: Option<PathBuf>,
    hold_secs: u64,
}

impl Args {
    fn default_args(command: Command) -> Args {
        Args {
            command,
            days: 2,
            seed: 0xD3B,
            sensors: 9,
            train_days: 1,
            link: LinkModel::lossless(),
            link_seed: 0xF10D,
            json: false,
            offices: 8,
            shards: 8,
            checkpoint_dir: None,
            checkpoint_every: None,
            crash_after_ticks: None,
            trace_out: None,
            metrics_out: None,
            metrics_addr: None,
            metrics_addr_file: None,
            hold_secs: 0,
        }
    }
}

const USAGE: &str = "usage: fadewichd <train --out PATH | serve --model PATH | fleet --model PATH | replay [--model PATH] | stats PATH | stats --profile TRACE [--collapsed]> \
[--days N] [--seed N] [--sensors N] [--train-days N] \
[--offices N] [--shards N] \
[--drop P] [--dup P] [--corrupt P] [--jitter TICKS] [--link-seed N] [--json] \
[--checkpoint-dir PATH] [--checkpoint-every TICKS] [--crash-after-ticks N] \
[--trace-out PATH] [--metrics-out PATH] \
[--metrics-addr HOST:PORT] [--metrics-addr-file PATH] [--hold-secs N]";

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("stats") {
        let mut profile = false;
        let mut collapsed = false;
        let mut path: Option<PathBuf> = None;
        for a in &raw[1..] {
            match a.as_str() {
                "--profile" => profile = true,
                "--collapsed" => collapsed = true,
                p if !p.starts_with('-') && path.is_none() => path = Some(PathBuf::from(p)),
                other => return Err(format!("stats: unexpected argument {other}\n{USAGE}")),
            }
        }
        let what = if profile { "a trace JSONL" } else { "a metrics JSON" };
        let path = path.ok_or_else(|| format!("stats needs {what} path\n{USAGE}"))?;
        if collapsed && !profile {
            return Err(format!("--collapsed only applies to stats --profile\n{USAGE}"));
        }
        return Ok(Args::default_args(Command::Stats { path, profile, collapsed }));
    }
    let (command_word, flag_start) = match raw.first().map(String::as_str) {
        Some("train") | Some("serve") | Some("fleet") | Some("replay") => (raw[0].clone(), 1),
        // Legacy flat-flag invocation: treat as replay.
        _ => ("replay".to_string(), 0),
    };
    let mut out: Option<PathBuf> = None;
    let mut model: Option<PathBuf> = None;
    let mut fleet_flags = false;
    let mut args = Args::default_args(Command::Replay { model: None });
    let mut it = raw[flag_start..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--model" => model = Some(PathBuf::from(value("--model")?)),
            "--days" => args.days = parse(&value("--days")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--sensors" => args.sensors = parse(&value("--sensors")?)?,
            "--train-days" => args.train_days = parse(&value("--train-days")?)?,
            "--drop" => args.link.drop_p = parse(&value("--drop")?)?,
            "--dup" => args.link.dup_p = parse(&value("--dup")?)?,
            "--corrupt" => args.link.corrupt_p = parse(&value("--corrupt")?)?,
            "--jitter" => args.link.jitter_ticks = parse(&value("--jitter")?)?,
            "--link-seed" => args.link_seed = parse(&value("--link-seed")?)?,
            "--json" => args.json = true,
            "--offices" => {
                args.offices = parse(&value("--offices")?)?;
                fleet_flags = true;
            }
            "--shards" => {
                args.shards = parse(&value("--shards")?)?;
                fleet_flags = true;
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?))
            }
            "--checkpoint-every" => {
                args.checkpoint_every = Some(parse(&value("--checkpoint-every")?)?)
            }
            "--crash-after-ticks" => {
                args.crash_after_ticks = Some(parse(&value("--crash-after-ticks")?)?)
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--metrics-addr-file" => {
                args.metrics_addr_file = Some(PathBuf::from(value("--metrics-addr-file")?))
            }
            "--hold-secs" => args.hold_secs = parse(&value("--hold-secs")?)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    args.command = match command_word.as_str() {
        "train" => {
            let out = out.ok_or_else(|| format!("train needs --out PATH\n{USAGE}"))?;
            Command::Train { out }
        }
        "serve" => {
            let model = model.ok_or_else(|| format!("serve needs --model PATH\n{USAGE}"))?;
            Command::Serve { model }
        }
        "fleet" => {
            let model = model.ok_or_else(|| format!("fleet needs --model PATH\n{USAGE}"))?;
            Command::Fleet { model }
        }
        _ => Command::Replay { model },
    };
    if !matches!(args.command, Command::Serve { .. } | Command::Fleet { .. })
        && (args.checkpoint_dir.is_some()
            || args.checkpoint_every.is_some()
            || args.crash_after_ticks.is_some())
    {
        return Err(format!(
            "--checkpoint-dir/--checkpoint-every/--crash-after-ticks only apply to serve and fleet\n{USAGE}"
        ));
    }
    if args.crash_after_ticks.is_some() && args.checkpoint_dir.is_none() {
        return Err(format!("--crash-after-ticks needs --checkpoint-dir\n{USAGE}"));
    }
    if fleet_flags && !matches!(args.command, Command::Fleet { .. }) {
        return Err(format!("--offices/--shards only apply to fleet\n{USAGE}"));
    }
    if matches!(args.command, Command::Fleet { .. }) && (args.offices == 0 || args.shards == 0) {
        return Err(format!("fleet needs at least one office and one shard\n{USAGE}"));
    }
    if args.metrics_addr.is_some() && matches!(args.command, Command::Train { .. }) {
        return Err(format!("--metrics-addr only applies to serve, fleet, and replay\n{USAGE}"));
    }
    if (args.metrics_addr_file.is_some() || args.hold_secs > 0) && args.metrics_addr.is_none() {
        return Err(format!("--metrics-addr-file/--hold-secs need --metrics-addr\n{USAGE}"));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value {s:?}: {e}"))
}

/// A decision log opened at its committed mark.
struct DecisionLog {
    file: std::fs::File,
    /// Bytes written so far — what a checkpoint records as committed.
    mark: u64,
}

impl DecisionLog {
    fn write_line(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .map_err(|e| format!("decision log: writing: {e}"))?;
        self.mark += line.len() as u64 + 1;
        Ok(())
    }
}

/// `serve`/`replay`'s decision stream: stdout, teed into the decision
/// log when recovering so a resumed run picks up exactly where the
/// bytes stop.
struct ServeSink(Option<DecisionLog>);

impl LineSink for ServeSink {
    fn emit(&mut self, line: &str) -> Result<(), String> {
        println!("{line}");
        self.0.as_mut().map_or(Ok(()), |log| log.write_line(line))
    }

    fn log_mark(&mut self) -> u64 {
        self.0.as_ref().map_or(0, |log| log.mark)
    }
}

/// Streams every post-training day through the engine, printing the
/// decision stream to stdout. Identical for `replay` and `serve`: the
/// only difference between them is where `re` came from. With a
/// recovery context the days checkpoint as they stream; days completed
/// before a crash are skipped and the checkpointed day resumes from
/// its recorded delivery position.
fn stream_days(
    deployment: Deployment<'_>,
    cfg: EngineConfig,
    args: &Args,
    recovery: Option<Recovery>,
    telemetry: &Telemetry,
) -> Result<(), DaemonError> {
    let (mut store, mut resume, mut sink) = match recovery {
        Some(rec) => (Some(rec.store), rec.resume.map(|(_, snap)| snap), ServeSink(Some(rec.log))),
        None => (None, None, ServeSink(None)),
    };
    let crash = args.crash_after_ticks.map(CrashPoint::AtStamp);
    let mut base_ticks: u64 = 0;
    for day in args.train_days..deployment.trace.days().len() {
        let n_ticks = deployment.trace.days()[day].n_ticks() as u64;
        if resume.as_ref().is_some_and(|s| day < s.day as usize) {
            // Fully committed before the crash: its output is already
            // in the decision log, below the checkpointed mark.
            base_ticks += n_ticks;
            continue;
        }
        let snap = resume.take_if(|s| s.day as usize == day);
        let checkpoint =
            store.as_mut().map(|store| Checkpointing { store, stamp_base: base_ticks, crash });
        let out = DayRun {
            telemetry: telemetry.clone(),
            resume: snap.as_ref(),
            checkpoint,
            lines: Some(&mut sink),
            ..DayRun::new(deployment, day, cfg, &args.link, args.link_seed)
        }
        .run()
        .map_err(daemon_err)?;
        if out.crashed {
            eprintln!(
                "fadewichd: injected crash at tick {} (--crash-after-ticks)",
                base_ticks + out.counters.ticks_processed
            );
            std::process::abort();
        }
        // Wall-clock latency goes to stderr so stdout stays
        // byte-comparable between `replay` and `serve --model`.
        eprintln!("{}", out.counters.latency_summary());
        if args.json {
            sink.emit(&out.counters.to_json()).map_err(daemon_err)?;
        }
        base_ticks += n_ticks;
    }
    Ok(())
}

/// A checkpoint namespace opened for a (re)start: its store, its
/// decision log truncated to the committed mark, and the newest valid
/// image with its stamp — none meaning cold start.
struct Recovery {
    store: CheckpointStore,
    log: DecisionLog,
    resume: Option<(u64, EngineSnapshot)>,
}

/// Opens the checkpoint namespace `dir` — serve's directory, or one
/// fleet office's (`who` names it in messages): reports and skips
/// corrupt images, validates the checkpointed day, and truncates the
/// decision log to the committed mark.
fn open_recovery(
    dir: &std::path::Path,
    who: &str,
    trace: &Trace,
    train_days: usize,
    telemetry: &Telemetry,
) -> Result<Recovery, DaemonError> {
    let mut store =
        CheckpointStore::open(dir).map_err(|e| DaemonError::Checkpoint(e.to_string()))?;
    let outcome = store.load_latest().map_err(|e| DaemonError::Checkpoint(e.to_string()))?;
    for (path, err) in &outcome.rejected {
        telemetry.counter_add("checkpoint_corrupt_skipped", 1);
        eprintln!("fadewichd: {who}skipping corrupt checkpoint {}: {err}", path.display());
    }
    if let Some((stamp, snap)) = &outcome.snapshot {
        let day = snap.day as usize;
        if day < train_days || day >= trace.days().len() {
            return Err(DaemonError::Checkpoint(format!(
                "{who}checkpoint is for day {day}, outside the served range {train_days}..{}",
                trace.days().len()
            )));
        }
        eprintln!(
            "fadewichd: {who}resuming day {day} from checkpoint stamp {stamp} \
             ({} deliveries ingested, {} log bytes committed)",
            snap.stream_pos, snap.log_mark
        );
        telemetry.counter_add("checkpoint_restores", 1);
    }
    let log_path = dir.join("decisions.log");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        // Deliberately not truncate(true): the committed prefix up to
        // the checkpointed mark must survive; set_len below trims only
        // the uncommitted tail.
        .truncate(false)
        .open(&log_path)
        .map_err(|e| {
            DaemonError::Io(format!("decision log: opening {}: {e}", log_path.display()))
        })?;
    let mark = outcome.snapshot.as_ref().map_or(0, |(_, s)| s.log_mark);
    file.set_len(mark)
        .and_then(|()| file.seek(SeekFrom::Start(mark)).map(|_| ()))
        .map_err(|e| {
            DaemonError::Io(format!("decision log: truncating {}: {e}", log_path.display()))
        })?;
    Ok(Recovery { store, log: DecisionLog { file, mark }, resume: outcome.snapshot })
}

/// Builds the run's telemetry handle from the `--trace-out` /
/// `--metrics-out` flags: a streaming JSONL writer when traces are
/// requested, metrics-only when just the registry matters, disabled
/// (zero overhead, bit-identical behavior) otherwise. Runs before any
/// training or streaming and creates both output files, so a bad path
/// fails before the run is spent; the metrics dump itself is written
/// by [`finish_telemetry`].
fn open_telemetry(args: &Args) -> Result<Telemetry, DaemonError> {
    if let Some(path) = &args.metrics_out {
        std::fs::File::create(path).map_err(|e| {
            DaemonError::Io(format!("metrics out: creating {}: {e}", path.display()))
        })?;
    }
    match (&args.trace_out, &args.metrics_out) {
        (Some(path), _) => {
            let f = std::fs::File::create(path).map_err(|e| {
                DaemonError::Io(format!("trace out: creating {}: {e}", path.display()))
            })?;
            Ok(Telemetry::to_writer(Box::new(std::io::BufWriter::new(f))))
        }
        (None, Some(_)) => Ok(Telemetry::metrics_only()),
        // A scrape endpoint needs a live registry even when nothing is
        // written to disk.
        (None, None) if args.metrics_addr.is_some() => Ok(Telemetry::metrics_only()),
        (None, None) => Ok(Telemetry::disabled()),
    }
}

/// Starts the ops-plane scrape server when `--metrics-addr` was
/// given: attaches the standard SLO set (fed from the audit trail as
/// the run emits it) and publishes the bound address for scripts that
/// asked for an ephemeral port.
fn open_ops_server(
    args: &Args,
    telemetry: &Telemetry,
    tick_hz: f64,
) -> Result<Option<OpsServer>, DaemonError> {
    let Some(addr) = &args.metrics_addr else { return Ok(None) };
    telemetry.set_slo(SloEngine::standard(tick_hz));
    let server = OpsServer::bind(addr, telemetry.clone(), std::sync::Arc::new(WallClock))
        .map_err(|e| DaemonError::Io(format!("ops server: binding {addr}: {e}")))?;
    eprintln!("fadewichd: ops server on http://{}/", server.local_addr());
    if let Some(path) = &args.metrics_addr_file {
        std::fs::write(path, format!("{}\n", server.local_addr())).map_err(|e| {
            DaemonError::Io(format!("ops server: writing {}: {e}", path.display()))
        })?;
    }
    Ok(Some(server))
}

/// End-of-run telemetry commit: flush the trace writer (surfacing any
/// deferred write error) and write the deterministic metrics dump.
fn finish_telemetry(args: &Args, telemetry: &Telemetry) -> Result<(), DaemonError> {
    telemetry
        .flush()
        .map_err(|e| DaemonError::Io(format!("trace out: writing: {e}")))?;
    if let Some(path) = &args.metrics_out {
        let body = telemetry.metrics_json(false).unwrap_or_default();
        std::fs::write(path, body + "\n")
            .map_err(|e| DaemonError::Io(format!("metrics out: writing {}: {e}", path.display())))?;
    }
    Ok(())
}

/// `fadewichd stats --profile TRACE`: folds a `--trace-out` JSONL into
/// the per-stage span profile — self/total tick tables, or collapsed
/// stacks (one `path self_ticks` line per call path, the flamegraph
/// input format) with `--collapsed`.
fn run_profile_stats(path: &std::path::Path, collapsed: bool) -> Result<(), DaemonError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| DaemonError::Io(format!("stats input: reading {}: {e}", path.display())))?;
    let profile = Profile::from_jsonl(&text)
        .map_err(|e| DaemonError::Usage(format!("{} is not a trace JSONL: {e}", path.display())))?;
    if profile.is_empty() {
        println!("(no spans in trace)");
        return Ok(());
    }
    if collapsed {
        print!("{}", profile.collapsed());
    } else {
        print!("{}", profile.table());
    }
    Ok(())
}

/// `fadewichd stats PATH`: parses a `--metrics-out` dump and
/// pretty-prints its counters, gauges, and histogram summaries.
fn run_stats(path: &std::path::Path) -> Result<(), DaemonError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| DaemonError::Io(format!("stats input: reading {}: {e}", path.display())))?;
    let root = json::parse(&text)
        .map_err(|e| DaemonError::Usage(format!("{} is not a metrics dump: {e}", path.display())))?;
    let section = |name: &str| -> Vec<(String, json::Json)> {
        root.get(name)
            .and_then(|s| s.members())
            .map(<[(String, json::Json)]>::to_vec)
            .unwrap_or_default()
    };
    let fmt_num = |j: &json::Json| -> String {
        j.as_num().map_or_else(|| "?".to_string(), |n| format!("{n}"))
    };
    let counters = section("counters");
    let gauges = section("gauges");
    let histos = section("histograms");
    if counters.is_empty() && gauges.is_empty() && histos.is_empty() {
        println!("(empty metrics dump)");
        return Ok(());
    }
    let width = counters
        .iter()
        .chain(&gauges)
        .chain(&histos)
        .map(|(k, _)| k.len())
        .max()
        .unwrap_or(0);
    if !counters.is_empty() {
        println!("counters");
        for (k, v) in &counters {
            println!("  {k:<width$}  {}", fmt_num(v));
        }
    }
    if !gauges.is_empty() {
        println!("gauges");
        for (k, v) in &gauges {
            println!("  {k:<width$}  {}", fmt_num(v));
        }
    }
    if !histos.is_empty() {
        println!("histograms");
        for (k, h) in &histos {
            let field = |f: &str| h.get(f).map_or_else(|| "?".to_string(), |v| fmt_num(v));
            println!(
                "  {k:<width$}  count {}  mean {}  p50 {}  p99 {}  max {}",
                field("count"),
                field("mean"),
                field("p50"),
                field("p99"),
                field("max"),
            );
        }
    }
    Ok(())
}

/// A [`FleetSink`] writing each office's decision stream to its own
/// `decisions.log` under the fleet checkpoint root. Without a root
/// (`logs[o]` is `None` everywhere) lines are dropped and only the
/// stdout rollup survives — fine for a fleet nobody intends to resume.
struct FleetLogSink {
    logs: Vec<Option<DecisionLog>>,
}

impl FleetSink for FleetLogSink {
    fn emit(&mut self, office: u16, line: &str) -> Result<(), String> {
        self.logs[usize::from(office)].as_mut().map_or(Ok(()), |log| log.write_line(line))
    }

    fn log_mark(&mut self, office: u16) -> u64 {
        self.logs[usize::from(office)].as_ref().map_or(0, |log| log.mark)
    }
}

/// Classifies a driver error string into the daemon's exit-code
/// taxonomy.
fn daemon_err(e: String) -> DaemonError {
    if e.contains("checkpoint") {
        DaemonError::Checkpoint(e)
    } else if e.contains("decision log") {
        DaemonError::Io(e)
    } else {
        DaemonError::Engine(e)
    }
}

/// `fadewichd fleet`: streams every served day through an
/// `--offices`-tenant fleet, printing the deterministic rollup to
/// stdout. Per-office decision streams go to
/// `<checkpoint-dir>/office-%05d/decisions.log` when a root is given.
fn run_fleet(
    scenario: &Scenario,
    trace: &Trace,
    streams: &[usize],
    re: &RadioEnvironment,
    cfg: EngineConfig,
    args: &Args,
    telemetry: &Telemetry,
) -> Result<(), DaemonError> {
    let n = args.offices;
    let mut logs: Vec<Option<DecisionLog>> = Vec::with_capacity(n);
    let mut resumes: Vec<Option<EngineSnapshot>> = vec![None; n];
    let mut recovery: Option<FleetRecovery> = match &args.checkpoint_dir {
        Some(root) => {
            let mut offices = Vec::with_capacity(n);
            for (o, resume) in resumes.iter_mut().enumerate() {
                let dir = office_dir(root, o as u16);
                let who = format!("office {o}: ");
                let rec = open_recovery(&dir, &who, trace, args.train_days, telemetry)?;
                offices.push(OfficeRecovery { store: rec.store });
                logs.push(Some(rec.log));
                *resume = rec.resume.map(|(_, snap)| snap);
            }
            if resumes.iter().all(Option::is_none) {
                eprintln!("fadewichd fleet: no usable checkpoints, cold start");
                telemetry.counter_add("checkpoint_cold_starts", 1);
            }
            Some(FleetRecovery {
                offices,
                base_ticks: 0,
                crash_after_ticks: args.crash_after_ticks,
            })
        }
        None => {
            logs.resize_with(n, || None);
            None
        }
    };
    let mut sink = FleetLogSink { logs };

    let mut base_ticks = 0u64;
    for day in args.train_days..trace.days().len() {
        let n_ticks = trace.days()[day].n_ticks() as u64;
        let starts: Vec<OfficeStart> =
            resumes.iter_mut().map(|r| OfficeStart::for_day(r, day)).collect();
        if let Some(rec) = recovery.as_mut() {
            rec.base_ticks = base_ticks;
        }
        let env = FleetDayEnv {
            scenario,
            trace,
            streams,
            re,
            cfg,
            link: &args.link,
            link_seed: args.link_seed,
            day,
            advance_every: DEFAULT_ADVANCE_EVERY,
        };
        let report = run_fleet_day(&env, starts, args.shards, recovery.as_mut(), &mut sink, telemetry)
            .map_err(daemon_err)?;
        if report.crashed {
            eprintln!(
                "fadewichd fleet: injected crash during day {day} (--crash-after-ticks)"
            );
            std::process::abort();
        }
        let decisions: u64 = report
            .offices
            .iter()
            .map(|o| {
                o.events.iter().filter(|e| matches!(e, EngineEvent::Decision { .. })).count() as u64
            })
            .sum();
        let active =
            report.offices.iter().filter(|o| o.counters.frames_in > 0).count();
        let quarantined = report
            .offices
            .iter()
            .filter(|o| o.counters.quarantines > o.counters.recoveries)
            .count();
        let max_lag = report.shard_tick_lags.iter().copied().max().unwrap_or(0);
        println!("== fleet day {day} ==");
        println!("{}", report.fleet.summary_line());
        println!(
            "offices {n}  active {active}  quarantined {quarantined}  decisions {decisions}"
        );
        println!("max shard tick lag {max_lag}  shards {}", args.shards);
        println!("{}", report.health.summary_line());
        if report.has_mixed_channels() {
            // Per-channel fleet rollup — printed only for mixed
            // deployments so RSSI-only fleets keep their exact
            // pre-fusion stdout.
            for kind in fadewich_core::stream::ChannelKind::ALL {
                let c = &report.channel_totals[kind.index()];
                println!(
                    "channel {:<5}  frames {}  gap-fills {}  masked {}  quarantines {}  recoveries {}",
                    kind.label(),
                    c.frames_in,
                    c.gap_fills,
                    c.masked_stream_ticks,
                    c.quarantines,
                    c.recoveries
                );
            }
        }
        if report.auth_totals.any() {
            // Auth rollup — printed only when some engine counted
            // spoof/replay/flood activity, so an unauthenticated fleet
            // keeps its exact pre-auth stdout.
            let a = &report.auth_totals;
            println!(
                "auth         unauthenticated {}  replayed {}  rate-limited {}  attack-quarantines {}",
                a.frames_unauthenticated,
                a.frames_replayed,
                a.frames_rate_limited,
                a.attack_quarantines
            );
        }
        base_ticks += n_ticks;
    }
    Ok(())
}

fn run() -> Result<(), DaemonError> {
    let args = parse_args().map_err(DaemonError::Usage)?;
    if let Command::Stats { path, profile, collapsed } = &args.command {
        return if *profile { run_profile_stats(path, *collapsed) } else { run_stats(path) };
    }
    let config = ScenarioConfig {
        seed: args.seed,
        days: args.days,
        schedule: ScheduleParams {
            day_seconds: 2.0 * 3600.0,
            departures_choices: [3, 3, 4, 4],
            min_seated_s: 400.0,
            absence_bounds_s: (90.0, 300.0),
            ..ScheduleParams::default()
        },
        ..ScenarioConfig::default()
    };
    let scenario = Scenario::generate(config).map_err(|e| DaemonError::Scenario(format!("{e:?}")))?;
    let trace = scenario.simulate().map_err(|e| DaemonError::Scenario(format!("{e:?}")))?;
    let subset = scenario.layout().sensor_subset(args.sensors);
    let streams = trace.stream_indices_for_subset(&subset);
    let params = FadewichParams::default();
    // Validate the full engine configuration up front for every
    // subcommand, so a degenerate knob fails fast instead of after
    // minutes of training or mid-serve.
    let mut cfg = EngineConfig::new(trace.tick_hz(), params);
    if let Some(every) = args.checkpoint_every {
        cfg.checkpoint_every_ticks = every;
    }
    cfg.validate().map_err(DaemonError::Engine)?;
    let telemetry = open_telemetry(&args)?;
    let ops = open_ops_server(&args, &telemetry, trace.tick_hz())?;

    let result = match &args.command {
        Command::Stats { .. } => unreachable!("handled before scenario generation"),
        Command::Train { out } => {
            eprintln!(
                "fadewichd train: {} day(s), {} sensors / {} streams, train {} day(s)",
                args.days,
                args.sensors,
                streams.len(),
                args.train_days
            );
            let bundle = replay::train_model(&scenario, &trace, &streams, args.train_days, &params)
                .map_err(DaemonError::Engine)?;
            bundle.save(out).map_err(|e| DaemonError::Artifact(e.to_string()))?;
            let svm = bundle.re.svm();
            eprintln!(
                "fadewichd train: wrote {} ({} bytes, {} classes, {} machines, {} support vectors, profile {} values)",
                out.display(),
                bundle.encode().len(),
                svm.classes().len(),
                svm.machines().len(),
                svm.machines().iter().map(|(_, _, m)| m.n_support_vectors()).sum::<usize>(),
                bundle.md.values.len(),
            );
            finish_telemetry(&args, &telemetry)
        }
        Command::Serve { model } => {
            let bundle = ModelBundle::load(model).map_err(|e| DaemonError::Artifact(e.to_string()))?;
            replay::validate_schema(&bundle, &trace, &streams).map_err(DaemonError::Artifact)?;
            eprintln!(
                "fadewichd serve: model {} over {} day(s), {} sensors / {} streams, link {:?}",
                model.display(),
                args.days,
                args.sensors,
                streams.len(),
                args.link
            );
            let recovery = match &args.checkpoint_dir {
                Some(dir) => {
                    let rec = open_recovery(dir, "", &trace, args.train_days, &telemetry)?;
                    match &rec.resume {
                        Some((stamp, snap)) => telemetry.event(
                            snap.counters.ticks_processed,
                            "checkpoint_restored",
                            None,
                            &[
                                ("stamp", Value::U64(*stamp)),
                                ("day", Value::U64(u64::from(snap.day))),
                                ("stream_pos", Value::U64(snap.stream_pos)),
                            ],
                        ),
                        None => {
                            eprintln!("fadewichd: no usable checkpoint, cold start");
                            telemetry.counter_add("checkpoint_cold_starts", 1);
                        }
                    }
                    Some(rec)
                }
                None => None,
            };
            let deployment =
                Deployment { scenario: &scenario, trace: &trace, streams: &streams, re: &bundle.re };
            stream_days(deployment, cfg, &args, recovery, &telemetry)?;
            finish_telemetry(&args, &telemetry)
        }
        Command::Fleet { model } => {
            let bundle = ModelBundle::load(model).map_err(|e| DaemonError::Artifact(e.to_string()))?;
            replay::validate_schema(&bundle, &trace, &streams).map_err(DaemonError::Artifact)?;
            eprintln!(
                "fadewichd fleet: model {} hosting {} office(s) over {} shard(s), {} day(s), {} sensors / {} streams, link {:?}",
                model.display(),
                args.offices,
                args.shards,
                args.days,
                args.sensors,
                streams.len(),
                args.link
            );
            run_fleet(&scenario, &trace, &streams, &bundle.re, cfg, &args, &telemetry)?;
            finish_telemetry(&args, &telemetry)
        }
        Command::Replay { model } => {
            eprintln!(
                "fadewichd: {} day(s), {} sensors / {} streams, train {} day(s), link {:?}",
                args.days,
                args.sensors,
                streams.len(),
                args.train_days,
                args.link
            );
            let re = match model {
                Some(path) => {
                    let bundle =
                        ModelBundle::load(path).map_err(|e| DaemonError::Artifact(e.to_string()))?;
                    replay::validate_schema(&bundle, &trace, &streams)
                        .map_err(DaemonError::Artifact)?;
                    bundle.re
                }
                None => replay::train_re(&scenario, &trace, &streams, args.train_days, &params)
                    .map_err(DaemonError::Engine)?,
            };
            let deployment =
                Deployment { scenario: &scenario, trace: &trace, streams: &streams, re: &re };
            stream_days(deployment, cfg, &args, None, &telemetry)?;
            finish_telemetry(&args, &telemetry)
        }
    };
    if let Some(server) = ops {
        if result.is_ok() && args.hold_secs > 0 {
            // Keep the scrape endpoint up after the run so operators
            // (and the CI curl smoke) can read the final registry.
            eprintln!("fadewichd: holding ops server for {}s (--hold-secs)", args.hold_secs);
            std::thread::sleep(std::time::Duration::from_secs(args.hold_secs));
        }
        server.shutdown();
    }
    result
}

fn main() {
    if let Err(e) = run() {
        eprintln!("fadewichd: {e}");
        std::process::exit(e.exit_code());
    }
}
