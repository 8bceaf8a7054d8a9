//! `cold-sweep`: an analyst sweeping the design space. Two connections
//! keep a fixed window of distinct M-S points outstanding against one
//! shard whose store replicates to a warm standby, so every answer is a
//! cold computation that spills to the store and the tee.

use crate::cluster::{Proc, RunDir, Shard};
use crate::gen::{self, PointGen};
use crate::stats::{self, quantile, us};
use crate::wire::{self, answer_id, compare, is_error, Conn};
use crate::{Ctx, Outcome};
use gbd_engine::{Engine, EvalRequest};
use gbd_serve::Json;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests each connection keeps outstanding.
const WINDOW: usize = 8;
const CONNECTIONS: usize = 2;
/// Independent set-ups per run: each is timed for `setup_s` and measured
/// for an equal share of the run.
const SETUPS: usize = 8;
/// Length of the windows a set-up's pass is split into.
const WINDOW_SECS: f64 = 0.5;
/// How long the standby may take to match the primary's digest.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Cluster {
    // Field order is drop order: processes stop before the directory goes.
    conns: Vec<Conn>,
    primary: Proc,
    standby: Proc,
    dir: RunDir,
}

pub fn setup(bin: &Path) -> Result<Cluster, String> {
    let dir = RunDir::new("cold-sweep")?;
    let standby = Shard {
        id: "standby",
        store: Some(dir.0.join("standby.gbdstore")),
        replica_listen: true,
        ..Shard::default()
    }
    .start(bin)?;
    let primary = Shard {
        id: "primary",
        store: Some(dir.0.join("primary.gbdstore")),
        replicate_to: Some(standby.addr("replica_addr")?),
        ..Shard::default()
    }
    .start(bin)?;
    let addr = primary.addr("addr")?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut conn = Conn::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let pong = conn.call("{\"id\":0,\"verb\":\"ping\"}")?;
        if pong.get("pong").and_then(Json::as_bool) != Some(true) {
            return Err(format!("bad ping answer {}", pong.render()));
        }
        conns.push(conn);
    }
    // The tee is live once the shipper has connected to the standby.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = wire::metrics(&addr, &["cluster"])?;
        if wire::path_u64(&m, "metrics.cluster.replication.ship_connects")? >= 1 {
            break;
        }
        if Instant::now() > deadline {
            return Err("the primary never connected to its standby".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(Cluster {
        conns,
        primary,
        standby,
        dir,
    })
}

/// One answered request.
pub struct Record {
    pub line: String,
    pub sent: Instant,
    pub done: Instant,
    pub answer: String,
}

impl Record {
    pub fn latency_us(&self) -> f64 {
        us(self.done - self.sent)
    }
}

/// Drives the closed loop for `secs`: each connection keeps `WINDOW`
/// requests outstanding and sends the next point when one is answered.
/// Points come from one shared generator, so the whole run never repeats
/// a key. Requests still outstanding at the end are drained.
pub fn closed_loop(
    conns: &mut [Conn],
    points: &Mutex<(PointGen, u64)>,
    secs: f64,
) -> Result<(Vec<Record>, Instant, Instant), String> {
    let next = || -> (u64, String) {
        let mut g = points.lock().expect("generator lock");
        g.1 += 1;
        let id = g.1;
        (id, g.0.next_point().line(id))
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || -> Result<Vec<Record>, String> {
                    let mut inflight = VecDeque::with_capacity(WINDOW);
                    let mut done = Vec::new();
                    for _ in 0..WINDOW {
                        let (id, line) = next();
                        conn.send(&line).map_err(|e| format!("send: {e}"))?;
                        inflight.push_back((id, line, Instant::now()));
                    }
                    while let Some((id, line, sent)) = inflight.pop_front() {
                        let answer = conn.recv().map_err(|e| format!("recv: {e}"))?;
                        let at = Instant::now();
                        if answer_id(&answer) != Some(id) {
                            return Err(format!("expected the answer to {id}, got {answer}"));
                        }
                        done.push(Record {
                            line,
                            sent,
                            done: at,
                            answer,
                        });
                        if at < end {
                            let (id, line) = next();
                            conn.send(&line).map_err(|e| format!("send: {e}"))?;
                            inflight.push_back((id, line, Instant::now()));
                        }
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((per_conn.into_iter().flatten().collect(), start, end))
}

/// Waits until the standby's store digest equals the primary's.
fn converge(primary: &str, standby: &str) -> Result<(u64, Duration), String> {
    let start = Instant::now();
    loop {
        let p = wire::path_u64(&wire::metrics(primary, &["store"])?, "metrics.store.digest")?;
        let s = wire::path_u64(&wire::metrics(standby, &["store"])?, "metrics.store.digest")?;
        if p == s && p != 0 {
            return Ok((p, start.elapsed()));
        }
        if start.elapsed() > CONVERGE_TIMEOUT {
            return Err(format!(
                "standby digest {s:#x} never matched primary digest {p:#x}"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Evaluates every successfully answered request in-process and checks
/// its wire answer against it (error answers are counted as failures, not
/// compared). Returns the in-process engine (for its layer counters) and
/// its per-request durations.
pub fn check_records(records: &[Record]) -> Result<(Engine, Vec<f64>), String> {
    let records: Vec<&Record> = records.iter().filter(|r| !is_error(&r.answer)).collect();
    let requests = records
        .iter()
        .map(|r| gen::eval_request(&r.line))
        .collect::<Result<Vec<EvalRequest>, _>>()?;
    let engine = Engine::with_workers(2);
    let mut durations = Vec::with_capacity(requests.len());
    for (chunk, recs) in requests.chunks(256).zip(records.chunks(256)) {
        for (response, record) in engine.evaluate_batch(chunk).iter().zip(recs) {
            compare(&record.answer, response)?;
            durations.push(us(response.duration));
        }
    }
    Ok((engine, durations))
}

/// One `WINDOW_SECS` window of a closed-loop pass.
struct Window {
    /// Answers in the window, per second.
    completions: f64,
    /// p50 latency of the requests answered in the window (NaN if none).
    p50_us: f64,
}

struct Measured {
    records: Vec<Record>,
    windows: Vec<Window>,
    failed: u64,
}

/// Medians over a pass's windows, so a stall shorter than half the pass
/// does not swing a set-up's figures (it shows in `stalled_windows`).
impl Measured {
    fn rate(&self) -> f64 {
        stats::median(
            &self
                .windows
                .iter()
                .map(|w| w.completions)
                .collect::<Vec<_>>(),
        )
    }

    fn latency(&self) -> f64 {
        let answered: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.p50_us)
            .filter(|l| !l.is_nan())
            .collect();
        stats::median(&answered)
    }
}

fn measure(
    cluster: &mut Cluster,
    points: &Mutex<(PointGen, u64)>,
    secs: f64,
) -> Result<Measured, String> {
    let (records, start, end) = closed_loop(&mut cluster.conns, points, secs)?;
    // Latencies of the requests answered in each whole window of the pass.
    let whole_windows = (((end - start).as_secs_f64() / WINDOW_SECS).floor() as usize).max(1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); whole_windows];
    for r in &records {
        let index = ((r.done - start).as_secs_f64() / WINDOW_SECS) as usize;
        if let Some(window) = per_window.get_mut(index) {
            window.push(if is_error(&r.answer) {
                f64::INFINITY
            } else {
                r.latency_us()
            });
        }
    }
    Ok(Measured {
        windows: per_window
            .iter()
            .map(|l| Window {
                completions: l.len() as f64 / WINDOW_SECS,
                p50_us: quantile(l, 0.5),
            })
            .collect(),
        failed: records.iter().filter(|r| is_error(&r.answer)).count() as u64,
        records,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let points = Mutex::new((PointGen::new(ctx.seed, gen::LANE_COLD), 0u64));
    let mut out = Outcome::default();
    let (mut setup_s, mut windows) = (Vec::new(), Vec::new());
    let (mut rates, mut latencies) = (Vec::new(), Vec::new());
    let (mut records, mut lags, mut dropped) = (Vec::new(), Vec::new(), 0.0);
    // Independent set-ups, each measured for an equal share of the run.
    // One generator feeds them all, so no point repeats within the run.
    // Where the scheduler places the processes' threads stays fixed for a
    // set-up and moves its figures by up to 15 %, half the set-ups one way
    // and half the other; the mean over eight set-ups averages that out
    // where a median would jump between the two.
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut cluster = setup(&ctx.groupdet)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let m = measure(&mut cluster, &points, ctx.seconds / SETUPS as f64)?;
        let primary = cluster.primary.addr("addr")?;
        let (_, lag) = converge(&primary, &cluster.standby.addr("addr")?)?;
        let scrape = wire::scrape(&cluster.primary.addr("metrics_addr")?)?;
        drop(cluster);
        lags.push(lag.as_secs_f64() * 1e3);
        dropped += scrape.value("gbd_replica_dropped_records_total");
        out.failed += m.failed;
        out.figure(
            &format!("setup{}_evals_per_s", setup_s.len() - 1),
            "1/s",
            m.rate(),
        );
        rates.push(m.rate());
        latencies.push(m.latency());
        windows.extend(m.windows);
        records.extend(m.records);
    }
    check_records(&records)?;
    out.attempted = records.len() as u64;

    let counts: Vec<f64> = windows.iter().map(|w| w.completions).collect();
    let typical = stats::median(&counts);
    let answered: Vec<f64> = records
        .iter()
        .map(|r| {
            if is_error(&r.answer) {
                f64::INFINITY
            } else {
                r.latency_us()
            }
        })
        .collect();
    out.figure("evals_per_s", "1/s", stats::mean(&rates));
    out.figure("evals_per_s_median_window", "1/s", typical);
    out.figure("eval_p50_us", "us", quantile(&answered, 0.5));
    out.figure("eval_p99_us", "us", quantile(&answered, 0.99));
    out.figure(
        "error_share",
        "ratio",
        out.failed as f64 / out.attempted as f64,
    );
    out.figure(
        "stalled_windows",
        "count",
        counts.iter().filter(|&&c| c < typical / 4.0).count() as f64,
    );
    out.figure(
        "standby_converge_ms_max",
        "ms",
        lags.iter().copied().fold(0.0, f64::max),
    );
    out.figure("replica_dropped_records", "count", dropped);
    out.metric("setup_s", "s", stats::median(&setup_s));
    out.metric("throughput_per_s", "1/s", stats::mean(&rates));
    out.metric("latency_p50_us", "us", stats::mean(&latencies));
    Ok(out)
}

/// The traced pass: the same closed loop for `secs` between two scrapes
/// of the primary, then in-process replays of the run's inputs through
/// the core, engine and store layers. With `untraced_first`, an untraced
/// pass of the same length runs first on the same cluster, and the
/// tracing overhead on `latency_p50_us` is reported.
pub fn traced(ctx: &Ctx, secs: f64, untraced_first: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let points = Mutex::new((PointGen::new(ctx.seed, gen::LANE_COLD), 0u64));
    let mut cluster = setup(&ctx.groupdet)?;
    let primary = cluster.primary.addr("addr")?;
    let prom = cluster.primary.addr("metrics_addr")?;
    let untraced = if untraced_first {
        Some(measure(&mut cluster, &points, secs)?)
    } else {
        None
    };
    let before = wire::scrape(&prom)?;
    let m = measure(&mut cluster, &points, secs)?;
    let after = wire::scrape(&prom)?;
    converge(&primary, &cluster.standby.addr("addr")?)?;
    let delta = |metric: &str| after.value(metric) - before.value(metric);
    let evaluated = delta("gbd_evaluated_total");
    out.metric(
        "serve.batch_size.cold",
        "count",
        evaluated / delta("gbd_batches_flushed_total"),
    );
    out.metric(
        "store.spills_per_eval",
        "count",
        delta("gbd_store_spills_total") / evaluated,
    );
    out.metric(
        "store.bytes_per_eval",
        "bytes",
        delta("gbd_store_file_bytes") / evaluated,
    );
    if let Some(u) = &untraced {
        out.metric(
            "trace.overhead.latency_p50_us",
            "us",
            m.latency() - u.latency(),
        );
    }

    // Stop the processes, keep the primary's log for the append replay.
    let store_path = cluster.dir.0.join("primary.gbdstore");
    let Cluster {
        conns,
        primary: p,
        standby: s,
        dir,
    } = cluster;
    drop((conns, p, s));
    let (plain, teed) = crate::layers::store_replay(&store_path, &dir.0)?;
    out.metric("store.append_us.p50", "us", quantile(&plain, 0.5));
    out.metric("store.append_us.p99", "us", quantile(&plain, 0.99));
    out.metric("store.append_tee_us.p50", "us", quantile(&teed, 0.5));
    out.metric("store.append_tee_us.p99", "us", quantile(&teed, 0.99));
    drop(dir);

    let (engine, durations) = check_records(&m.records)?;
    out.metric("engine.eval_us.p50.cold", "us", quantile(&durations, 0.5));
    out.metric("engine.eval_us.p99.cold", "us", quantile(&durations, 0.99));
    let [geometry, stages, results] = engine.layer_stats();
    out.metric(
        "engine.geometry_hit_ratio.cold",
        "ratio",
        geometry.1.hit_rate(),
    );
    out.metric("engine.stage_hit_ratio.cold", "ratio", stages.1.hit_rate());
    out.metric(
        "engine.result_hit_ratio.cold",
        "ratio",
        results.1.hit_rate(),
    );

    let analyze = crate::layers::analyze_times(&m.records)?;
    out.metric("core.analyze_us.p50", "us", quantile(&analyze, 0.5));
    out.metric("core.analyze_us.p99", "us", quantile(&analyze, 0.99));
    for pass in untraced.iter().chain([&m]) {
        out.attempted += pass.records.len() as u64;
        out.failed += pass.failed;
    }
    if let Some(u) = &untraced {
        check_records(&u.records)?;
    }
    Ok(out)
}
