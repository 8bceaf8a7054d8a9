//! `routed-mixed`: live clients of the cluster. Connection 1 sends `eval`
//! on a fixed open-loop schedule through `groupdet route` to two shards
//! whose result caches were warmed during set-up; connection 2 is a
//! `stream_open` session tunnelled through the same router, replaying
//! simulator trials as report bursts at a fixed rate.
//!
//! Latency on this path depends on where the scheduler happens to place
//! the processes' threads, which stays fixed for the life of a set-up. A
//! run therefore measures the base rate on several independent set-ups
//! and reports the mean across them.

use crate::cluster::{start_router, Proc, Shard};
use crate::gen::{self, Burst, Due, MsPoint, PointGen, Step};
use crate::openloop::{self, Run, BURST_ID_BASE, EVAL_ID_BASE};
use crate::stats::{mean, median, quantile, us};
use crate::wire::{self, answer_id, compare, is_error, Conn};
use crate::{Ctx, Outcome};
use gbd_engine::{Engine, EvalResponse};
use gbd_router::Ring;
use gbd_serve::protocol;
use gbd_serve::Json;
use gbd_sim::group_filter::TrackRule;
use gbd_stream::{StreamConfig, StreamDetector, DEFAULT_MAX_TRACKS};
use std::path::Path;
use std::time::Instant;

/// Distinct operating points in the warmed working set.
const WORKING_SET: usize = 256;
/// Eval rates (requests per second): the base rate, the fixed peak rate
/// (about 70 % of this workload's measured capacity on a 2-core host),
/// and the ladder above it that `max_rate_rps` climbs.
const BASE_RATE: f64 = 500.0;
const PEAK_RATE: f64 = 1_000.0;
const LADDER: [f64; 3] = [1_150.0, 1_300.0, 1_450.0];
/// Evals the saturation phase keeps outstanding.
const SATURATION_WINDOW: usize = 4;
/// The latency limit a ladder step's p99 must meet, in microseconds.
const LIMIT_US: f64 = 50_000.0;
/// Independent set-ups per run: each is timed for `setup_s` and measured
/// at the base rate and at saturation.
const SETUPS: usize = 6;
/// Time windows each base-rate pass is split into for `latency_p50_us`.
const WINDOWS_PER_PASS: usize = 4;
/// Report bursts per second on the stream session.
const BURST_RATE: f64 = 100.0;
/// Id of the `stream_open` line.
const STREAM_OPEN_ID: u64 = 1;

/// Two shards behind a router (field order is drop order).
pub struct Cluster {
    router: Proc,
    shards: Vec<Proc>,
}

impl Cluster {
    fn addr(&self) -> Result<String, String> {
        self.router.addr("addr")
    }
}

/// The working set: distinct points drawn from the seed.
fn working_set(seed: u64) -> Vec<MsPoint> {
    let mut points = PointGen::new(seed, gen::LANE_WORKING_SET);
    (0..WORKING_SET).map(|_| points.next_point()).collect()
}

/// Starts two shards and the router, and warms every working-set point
/// through the router on two connections.
fn setup(bin: &Path, ws: &[MsPoint]) -> Result<Cluster, String> {
    let shards = ["shard0", "shard1"]
        .iter()
        .map(|id| {
            Shard {
                id,
                ..Shard::default()
            }
            .start(bin)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let addrs = shards
        .iter()
        .map(|s| s.addr("addr"))
        .collect::<Result<Vec<_>, _>>()?;
    let router = start_router(bin, &addrs)?;
    let addr = router.addr("addr")?;
    let halves: Vec<&[MsPoint]> = ws.chunks(ws.len().div_ceil(2)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = halves
            .iter()
            .map(|half| {
                let addr = &addr;
                scope.spawn(move || -> Result<(), String> {
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for (i, p) in half.iter().enumerate() {
                        conn.send(&p.line(i as u64)).map_err(|e| e.to_string())?;
                    }
                    for _ in 0..half.len() {
                        let answer = conn.recv().map_err(|e| e.to_string())?;
                        if is_error(&answer) {
                            return Err(format!("warm-up failed: {answer}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })?;
    Ok(Cluster { router, shards })
}

/// Pre-rendered wire lines of a schedule (ids are schedule positions).
fn eval_lines(schedule: &[Due], ws: &[MsPoint]) -> Vec<String> {
    schedule
        .iter()
        .enumerate()
        .map(|(i, d)| ws[d.pick].line(EVAL_ID_BASE + i as u64) + "\n")
        .collect()
}

fn burst_lines(bursts: &[Burst]) -> (Vec<f64>, Vec<String>) {
    bursts
        .iter()
        .enumerate()
        .map(|(j, b)| (b.at, b.line(BURST_ID_BASE + j as u64) + "\n"))
        .unzip()
}

/// In-process answers for the working set, for the bit-identity check.
fn references(ws: &[MsPoint]) -> Vec<EvalResponse> {
    let requests: Vec<_> = ws.iter().map(MsPoint::request).collect();
    Engine::with_workers(2).evaluate_batch(&requests)
}

/// Checks every eval answer and every stream ack and event of a run.
/// Returns the number of failed (shed, refused, timed-out) operations and
/// the eval answers that were not result-cache hits.
fn check(
    run: &Run,
    schedule: &[Due],
    refs: &[EvalResponse],
    bursts: &[Burst],
) -> Result<(u64, u64), String> {
    let mut failed = 0;
    let mut misses = 0;
    for (done, due) in run.eval_done.iter().zip(schedule) {
        match done {
            Some((_, answer)) if !is_error(answer) => {
                compare(answer, &refs[due.pick])?;
                if !answer.contains("\"misses\":0") {
                    misses += 1;
                }
            }
            _ => failed += 1,
        }
    }
    let mut detector = stream_detector();
    let mut expected = Vec::new();
    for (j, (burst, done)) in bursts.iter().zip(&run.burst_done).enumerate() {
        let Some((_, ack)) = done else {
            failed += 1;
            continue;
        };
        let reports = match protocol::parse_line(&burst.line(0)).map(|e| e.verb) {
            Ok(protocol::Verb::Report { reports }) => reports,
            _ => return Err("a burst line did not parse as a report".to_string()),
        };
        let ack = Json::parse(ack).map_err(|e| format!("bad ack: {e}"))?;
        if ack.get("ingested").and_then(Json::as_u64) != Some(reports.len() as u64) {
            return Err(format!("burst {j} ingested {}", ack.render()));
        }
        for event in detector.ingest(&reports) {
            expected.push((
                j,
                event.seq,
                event.period,
                event.sensor.0 as u64,
                event.chain_len,
                event.first_period,
            ));
        }
    }
    let seen = run
        .events
        .iter()
        .map(|e| {
            let json = Json::parse(&e.line).map_err(|err| format!("bad event: {err}"))?;
            let ev = json.get("event").ok_or("event line without event")?;
            let field = |k: &str| ev.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX);
            Ok((
                e.burst,
                field("seq"),
                field("period") as usize,
                field("sensor"),
                field("chain_len") as usize,
                field("first_period") as usize,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if seen != expected {
        return Err(format!(
            "stream events differ from the in-process replay ({} on the wire, {} replayed)",
            seen.len(),
            expected.len()
        ));
    }
    Ok((failed, misses))
}

/// The detector a `stream_open` with [`gen::stream_params`] builds.
fn stream_detector() -> StreamDetector {
    let p = gen::stream_params();
    let rule = TrackRule::new(p.speed(), p.period_s(), p.sensing_range())
        .with_wrap(p.field_width(), p.field_height());
    StreamDetector::new(
        StreamConfig::new(rule, p.k(), p.m_periods()).with_max_tracks(DEFAULT_MAX_TRACKS),
    )
}

/// Latency (µs from due time) of each eval of `step`; failures are
/// infinite, so they miss every limit.
fn step_latencies(run: &Run, schedule: &[Due], step: usize) -> Vec<f64> {
    schedule
        .iter()
        .zip(&run.eval_done)
        .filter(|(d, _)| d.step == step)
        .map(|(d, done)| match done {
            Some((at, answer)) if !is_error(answer) => (at - d.at) * 1e6,
            _ => f64::INFINITY,
        })
        .collect()
}

fn event_latencies(run: &Run, bursts: &[Burst]) -> Vec<f64> {
    run.events
        .iter()
        .map(|e| (e.at - bursts[e.burst].at) * 1e6)
        .collect()
}

/// Answer lines, each with the working-set entry it answers.
type Answers = Vec<(usize, String)>;

/// The saturation phase: one router connection keeps `SATURATION_WINDOW`
/// evals outstanding for `secs`. The router relays one request at a time
/// per connection, so the gap between consecutive answers is one service
/// time. Returns those gaps (µs) and the answers.
fn saturate(
    addr: &str,
    ws: &[MsPoint],
    seed: u64,
    secs: f64,
) -> Result<(Vec<f64>, Answers), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut picks = gen::SplitMix::new(seed, gen::LANE_SATURATION);
    let mut inflight = std::collections::VecDeque::new();
    let mut send = |conn: &mut Conn, id: u64| -> Result<usize, String> {
        let pick = picks.range_usize(0, ws.len() - 1);
        conn.send(&ws[pick].line(id))
            .map_err(|e| format!("send: {e}"))?;
        Ok(pick)
    };
    let mut next_id = EVAL_ID_BASE;
    for _ in 0..SATURATION_WINDOW {
        inflight.push_back((next_id, send(&mut conn, next_id)?));
        next_id += 1;
    }
    let end = Instant::now() + std::time::Duration::from_secs_f64(secs);
    let mut gaps = Vec::new();
    let mut answers = Vec::new();
    let mut last: Option<Instant> = None;
    while let Some((id, pick)) = inflight.pop_front() {
        let answer = conn.recv().map_err(|e| format!("recv: {e}"))?;
        let now = Instant::now();
        if answer_id(&answer) != Some(id) {
            return Err(format!("expected the answer to {id}, got {answer}"));
        }
        if let Some(prev) = last {
            gaps.push(us(now - prev));
        }
        last = Some(now);
        answers.push((pick, answer));
        if now < end {
            inflight.push_back((next_id, send(&mut conn, next_id)?));
            next_id += 1;
        }
    }
    Ok((gaps, answers))
}

/// One checked open-loop pass through the router: the eval schedule of
/// `steps` on one connection, and the stream bursts for the same span on a
/// fresh session beside it.
struct Pass {
    run: Run,
    schedule: Vec<Due>,
    bursts: Vec<Burst>,
    burst_at: Vec<f64>,
    failed: u64,
    misses: u64,
}

impl Pass {
    fn attempted(&self) -> u64 {
        (self.schedule.len() + self.bursts.len()) as u64
    }

    fn latencies(&self, step: usize) -> Vec<f64> {
        step_latencies(&self.run, &self.schedule, step)
    }
}

fn routed_pass(
    addr: &str,
    ws: &[MsPoint],
    refs: &[EvalResponse],
    seed: u64,
    steps: &[Step],
) -> Result<Pass, String> {
    let schedule = gen::eval_schedule(seed, steps, ws.len());
    let lines = eval_lines(&schedule, ws);
    let span: f64 = steps.iter().map(|s| s.secs).sum();
    let bursts = gen::stream_bursts(seed, (BURST_RATE * span) as usize, BURST_RATE);
    let (burst_at, blines) = burst_lines(&bursts);
    let eval = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut stream = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let ack = stream.call(&gen::stream_open_line(STREAM_OPEN_ID))?;
    if ack.get("streaming").and_then(Json::as_bool) != Some(true) {
        return Err(format!("stream_open refused: {}", ack.render()));
    }
    let run = openloop::drive(
        vec![eval],
        &vec![0; schedule.len()],
        &schedule,
        &lines,
        Some(stream),
        &burst_at,
        &blines,
    )?;
    let (failed, misses) = check(&run, &schedule, refs, &bursts)?;
    Ok(Pass {
        run,
        schedule,
        bursts,
        burst_at,
        failed,
        misses,
    })
}

/// Whether a ladder step met the limit: its p99 within `LIMIT_US` and no
/// growing backlog (the median of its last fifth within the limit too).
fn meets_limit(latencies: &[f64]) -> bool {
    let tail = &latencies[latencies.len() * 4 / 5..];
    quantile(latencies, 0.99) <= LIMIT_US && quantile(tail, 0.5) <= LIMIT_US
}

/// Completions per second of step `step` of a pass, counted over the
/// step's span.
fn completion_rate(pass: &Pass, steps: &[Step], step: usize) -> f64 {
    let from: f64 = steps[..step].iter().map(|s| s.secs).sum();
    let to = from + steps[step].secs;
    let done = pass
        .run
        .eval_done
        .iter()
        .flatten()
        .filter(|(at, _)| *at >= from && *at < to)
        .count();
    done as f64 / steps[step].secs
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let ws = working_set(ctx.seed);
    let refs = references(&ws);
    // Per set-up: the base rate for 9 % of the run, then saturation for
    // 3 %. The last set-up then climbs from the peak rate (16 %) through
    // the ladder (4 % per step).
    let s = ctx.seconds;
    let base = [Step {
        rate: BASE_RATE,
        secs: s * 0.09,
    }];
    let mut climb = vec![Step {
        rate: PEAK_RATE,
        secs: s * 0.16,
    }];
    climb.extend(LADDER.iter().map(|&rate| Step {
        rate,
        secs: s * 0.04,
    }));

    let mut out = Outcome::default();
    let (mut setup_s, mut base_p50, mut capacity) = (Vec::new(), Vec::new(), Vec::new());
    let (mut base_lat, mut events, mut lateness) = (Vec::new(), Vec::new(), Vec::new());
    let mut misses = 0;
    let mut base_ok = true;
    let mut climbed = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let cluster = setup(&ctx.groupdet, &ws)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let addr = cluster.addr()?;

        let pass = routed_pass(&addr, &ws, &refs, ctx.seed, &base)?;
        let lat = pass.latencies(0);
        // Latencies are in due-time order, so chunks are time windows.
        let per_window = lat.len().div_ceil(WINDOWS_PER_PASS);
        let window_p50: Vec<f64> = lat.chunks(per_window).map(|w| quantile(w, 0.5)).collect();
        base_p50.push(median(&window_p50));
        base_ok &= meets_limit(&lat);
        base_lat.extend(lat);
        events.extend(event_latencies(&pass.run, &pass.bursts));
        lateness.extend(pass.run.lateness_us(&pass.schedule, &pass.burst_at));
        out.attempted += pass.attempted();
        out.failed += pass.failed;
        misses += pass.misses;

        let (gaps, answers) = saturate(&addr, &ws, ctx.seed, s * 0.03)?;
        for (pick, answer) in &answers {
            if is_error(answer) {
                out.failed += 1;
            } else {
                compare(answer, &refs[*pick])?;
            }
        }
        out.attempted += answers.len() as u64;
        capacity.push(1e6 / median(&gaps));

        if i + 1 == SETUPS {
            let pass = routed_pass(&addr, &ws, &refs, ctx.seed, &climb)?;
            out.attempted += pass.attempted();
            out.failed += pass.failed;
            misses += pass.misses;
            climbed = Some(pass);
        }
    }
    let climbed = climbed.expect("the last set-up climbs the ladder");

    // The ladder: base, peak, then the steps above it; the completion rate
    // of the highest step reached before the first one that misses the
    // limit.
    let mut max_rate = if base_ok { BASE_RATE } else { 0.0 };
    if base_ok {
        for i in 0..climb.len() {
            if !meets_limit(&climbed.latencies(i)) {
                break;
            }
            max_rate = completion_rate(&climbed, &climb, i);
        }
    }
    let peak = climbed.latencies(0);
    out.figure("eval_p50_us", "us", quantile(&base_lat, 0.5));
    out.figure("eval_p99_us", "us", quantile(&base_lat, 0.99));
    out.figure("eval_p50_us_peak", "us", quantile(&peak, 0.5));
    out.figure("eval_p99_us_peak", "us", quantile(&peak, 0.99));
    out.figure("max_rate_rps", "req/s", max_rate);
    out.figure("event_p50_us", "us", quantile(&events, 0.5));
    out.figure("event_p99_us", "us", quantile(&events, 0.99));
    out.figure("events", "count", events.len() as f64);
    out.figure(
        "error_share",
        "ratio",
        out.failed as f64 / out.attempted as f64,
    );
    out.figure("generator_lateness_p50_us", "us", quantile(&lateness, 0.5));
    out.figure("generator_lateness_p99_us", "us", quantile(&lateness, 0.99));
    out.figure("eval_cache_misses", "count", misses as f64);
    for (i, step) in climb.iter().enumerate() {
        let lat = climbed.latencies(i);
        out.figure(
            &format!("step_{}rps_p50_us", step.rate),
            "us",
            quantile(&lat, 0.5),
        );
        out.figure(
            &format!("step_{}rps_p99_us", step.rate),
            "us",
            quantile(&lat, 0.99),
        );
    }
    for (i, (p50, cap)) in base_p50.iter().zip(&capacity).enumerate() {
        out.figure(&format!("setup{i}_eval_p50_us"), "us", *p50);
        out.figure(&format!("setup{i}_capacity_rps"), "req/s", *cap);
    }
    out.metric("setup_s", "s", median(&setup_s));
    out.metric("throughput_per_s", "1/s", mean(&capacity));
    out.metric("latency_p50_us", "us", mean(&base_p50));
    Ok(out)
}

/// Sums one histogram's bucket deltas over every shard.
fn shard_buckets(before: &[wire::Scrape], after: &[wire::Scrape], metric: &str) -> Vec<u64> {
    let mut sum: Vec<u64> = Vec::new();
    for (b, a) in before.iter().zip(after) {
        let delta = wire::bucket_delta(&b.buckets(metric), &a.buckets(metric));
        if sum.len() < delta.len() {
            sum.resize(delta.len(), 0);
        }
        for (s, d) in sum.iter_mut().zip(delta) {
            *s += d;
        }
    }
    sum
}

fn scrape_all(addrs: &[String]) -> Result<Vec<wire::Scrape>, String> {
    addrs.iter().map(|a| wire::scrape(a)).collect()
}

fn counter_delta(before: &[wire::Scrape], after: &[wire::Scrape], metric: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.value(metric) - b.value(metric))
        .sum()
}

fn router_counter(addr: &str, name: &str) -> Result<f64, String> {
    let m = wire::metrics(addr, &[])?;
    Ok(wire::path_u64(&m, &format!("router.counters.{name}"))? as f64)
}

/// The traced pass: the base-rate schedule for `secs` through the router
/// (with the stream session beside it) between scrapes of both shards and
/// the router, the same schedule sent straight to the owning shards, then
/// in-process replays through serve parse/render, the engine's hit path
/// and the stream detector. With `untraced_first`, an untraced routed pass
/// runs first and the tracing overhead on `latency_p50_us` is reported.
pub fn traced(ctx: &Ctx, secs: f64, untraced_first: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ws = working_set(ctx.seed);
    let refs = references(&ws);
    let cluster = setup(&ctx.groupdet, &ws)?;
    let router_addr = cluster.addr()?;
    let shard_addrs = cluster
        .shards
        .iter()
        .map(|s| s.addr("addr"))
        .collect::<Result<Vec<_>, _>>()?;
    let prom = cluster
        .shards
        .iter()
        .map(|s| s.addr("metrics_addr"))
        .collect::<Result<Vec<_>, _>>()?;
    let steps = [Step {
        rate: BASE_RATE,
        secs,
    }];
    let untraced = if untraced_first {
        Some(routed_pass(&router_addr, &ws, &refs, ctx.seed, &steps)?)
    } else {
        None
    };

    let retries0 = router_counter(&router_addr, "retries")?;
    let shed0 = router_counter(&router_addr, "shed")?;
    let before = scrape_all(&prom)?;
    let pass = routed_pass(&router_addr, &ws, &refs, ctx.seed, &steps)?;
    let after = scrape_all(&prom)?;
    let routed_lat = pass.latencies(0);
    out.metric(
        "router.retries",
        "count",
        router_counter(&router_addr, "retries")? - retries0,
    );
    out.metric(
        "router.shed",
        "count",
        router_counter(&router_addr, "shed")? - shed0,
    );
    let batches = counter_delta(&before, &after, "gbd_batches_flushed_total");
    out.metric(
        "serve.batch_size.routed",
        "count",
        counter_delta(&before, &after, "gbd_evaluated_total") / batches,
    );
    out.metric(
        "serve.timer_flush_share",
        "ratio",
        counter_delta(&before, &after, "gbd_flushes_by_timer_total") / batches,
    );
    out.metric(
        "serve.shed",
        "count",
        counter_delta(&before, &after, "gbd_shed_total"),
    );
    let wait = shard_buckets(&before, &after, "gbd_queue_wait_us");
    out.metric(
        "serve.queue_wait_us.p50",
        "us",
        wire::bucket_quantile(&wait, 0.5),
    );
    out.metric(
        "serve.queue_wait_us.p99",
        "us",
        wire::bucket_quantile(&wait, 0.99),
    );
    let compute = shard_buckets(&before, &after, "gbd_compute_us");
    out.metric(
        "serve.compute_us.p50",
        "us",
        wire::bucket_quantile(&compute, 0.5),
    );
    let events = event_latencies(&pass.run, &pass.bursts);
    out.metric("stream.event_p50_us", "us", quantile(&events, 0.5));
    out.metric("stream.event_p99_us", "us", quantile(&events, 0.99));
    for p in untraced.iter().chain([&pass]) {
        out.attempted += p.attempted();
        out.failed += p.failed;
    }
    if let Some(u) = untraced.map(|p| quantile(&p.latencies(0), 0.5)) {
        out.metric(
            "trace.overhead.latency_p50_us",
            "us",
            quantile(&routed_lat, 0.5) - u,
        );
    }

    // The same schedule straight to the shard that owns each key.
    let schedule = &pass.schedule;
    let lines = eval_lines(schedule, &ws);
    let ring = Ring::new(
        shard_addrs.len(),
        gbd_router::RouterConfig::default().virtual_nodes,
    );
    let conn_of: Vec<usize> = schedule
        .iter()
        .map(|d| ring.slot_for(&Engine::routing_key(&ws[d.pick].request())))
        .collect();
    let direct_conns = shard_addrs
        .iter()
        .map(|a| Conn::connect(a).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let before = scrape_all(&prom)?;
    let direct = openloop::drive(direct_conns, &conn_of, schedule, &lines, None, &[], &[])?;
    let after = scrape_all(&prom)?;
    drop(cluster);
    out.attempted += schedule.len() as u64;
    out.failed += check(&direct, schedule, &refs, &[])?.0;
    let direct_lat = step_latencies(&direct, schedule, 0);
    out.metric(
        "router.hop_us.p50",
        "us",
        quantile(&routed_lat, 0.5) - quantile(&direct_lat, 0.5),
    );
    out.metric(
        "router.hop_us.p99",
        "us",
        quantile(&routed_lat, 0.99) - quantile(&direct_lat, 0.99),
    );

    // Serve parse and render, timed in-process on this pass's lines.
    let parse: Vec<f64> = lines
        .iter()
        .map(|l| {
            let start = Instant::now();
            let env = protocol::parse_line(l.trim_end());
            let t = us(start.elapsed());
            std::hint::black_box(env).map(|_| t)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.message)?;
    let engine = Engine::with_workers(2);
    let requests: Vec<_> = ws.iter().map(MsPoint::request).collect();
    engine.evaluate_batch(&requests);
    let results_before = engine.layer_stats()[2].1;
    let mut render = Vec::with_capacity(schedule.len());
    let mut eval_us = Vec::with_capacity(schedule.len());
    for (i, d) in schedule.iter().enumerate() {
        let response = engine.evaluate(&requests[d.pick]);
        eval_us.push(us(response.duration));
        let start = Instant::now();
        let line = protocol::render_response(EVAL_ID_BASE + i as u64, &response).render();
        render.push(us(start.elapsed()));
        std::hint::black_box(line);
    }
    let results_after = engine.layer_stats()[2].1;
    let hits = (results_after.hits - results_before.hits) as f64;
    let misses = (results_after.misses - results_before.misses) as f64;
    let parse_p50 = quantile(&parse, 0.5);
    let render_p50 = quantile(&render, 0.5);
    out.metric("serve.parse_us", "us", parse_p50);
    out.metric("serve.render_us", "us", render_p50);
    out.metric("engine.eval_us.p50.warm", "us", quantile(&eval_us, 0.5));
    out.metric("engine.eval_us.p99.warm", "us", quantile(&eval_us, 0.99));
    out.metric(
        "engine.result_hit_ratio.warm",
        "ratio",
        hits / (hits + misses),
    );
    // Means, not p50s: means add up along the request's path, and the
    // servers' power-of-two buckets are too coarse for a p50 to subtract.
    let server_mean = |metric: &str| {
        counter_delta(&before, &after, &format!("{metric}_sum"))
            / counter_delta(&before, &after, &format!("{metric}_count"))
    };
    let answered: Vec<f64> = direct_lat
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    out.metric(
        "serve.unaccounted_us",
        "us",
        mean(&answered)
            - (mean(&parse)
                + server_mean("gbd_queue_wait_us")
                + server_mean("gbd_compute_us")
                + mean(&render)),
    );

    // Stream ingest, replayed in-process on this pass's bursts.
    let mut detector = stream_detector();
    let mut ingest = Vec::with_capacity(pass.bursts.len());
    let (mut tracks_max, mut reports, mut emitted) = (0usize, 0usize, 0usize);
    for burst in &pass.bursts {
        let start = Instant::now();
        let events = detector.ingest(&burst.reports);
        ingest.push(us(start.elapsed()));
        tracks_max = tracks_max.max(detector.live_tracks());
        reports += burst.reports.len();
        emitted += events.len();
    }
    out.metric("stream.ingest_us", "us", quantile(&ingest, 0.5));
    out.metric("stream.tracks_live_max", "count", tracks_max as f64);
    out.metric(
        "stream.events_per_report",
        "ratio",
        emitted as f64 / reports as f64,
    );
    Ok(out)
}
