//! The `sim` and `field` layers, measured on the inputs of a simulator
//! campaign at N = 10⁶ on the paper-density field with a straight-line
//! target. This was the `sim-million` workload; it is no longer gated
//! because its speed could not be made steady on a shared host (see
//! `perfbench/README.md`), but every traced run still times its layers.

use crate::gen::{self, SplitMix};
use crate::stats::{median, us};
use crate::{Ctx, Outcome};
use gbd_field::deployment::{Deployer, UniformRandom};
use gbd_field::sensor::SensorId;
use gbd_geometry::point::{Aabb, Point};
use gbd_motion::straight::StraightLine;
use gbd_motion::trajectory::MotionModel;
use gbd_sim::config::SimConfig;
use gbd_sim::engine::{run_trial_in, TrialScratch};
use gbd_sim::group_filter::{self, TrackRule};
use gbd_sim::reports::{DetectionReport, ReportKind};
use gbd_stats::rng::rng_stream;
use rand::Rng;
use std::time::Instant;

/// The campaign size the traced trials are drawn from.
const TRIALS: u64 = 64;
/// Trials replayed phase by phase in the traced pass.
const TRACED_TRIALS: u64 = 16;

/// Phase timings of one trial replayed with the benchmark's own copy of
/// the simulator's trial loop (same draws in the same order).
struct Phases {
    deploy_ms: f64,
    index_ms: f64,
    refocus_ms: f64,
    query_us: Vec<f64>,
    hits: usize,
    sense_us: f64,
    filter_us: f64,
    reports: Vec<DetectionReport>,
}

fn replay_trial(
    config: &SimConfig,
    trial: u64,
    field: &mut gbd_field::field::SensorField,
) -> Phases {
    let params = &config.params;
    let extent = Aabb::from_extent(params.field_width(), params.field_height());
    let mut rng = rng_stream(config.seed, trial);
    let mut deploy_ms = 0.0;
    let build = Instant::now();
    let trajectory = field.rebuild_focused(extent, config.boundary, |buf| {
        let start = Instant::now();
        UniformRandom.deploy_into(params.n_sensors(), &extent, &mut rng, buf);
        deploy_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Point::new(
            rng.gen_range(extent.min.x..extent.max.x),
            rng.gen_range(extent.min.y..extent.max.y),
        );
        let heading = rng.gen_range(0.0..std::f64::consts::TAU);
        let trajectory = StraightLine::new(params.speed()).generate(
            start,
            heading,
            params.period_s(),
            params.m_periods(),
            &mut rng,
        );
        let mut focus = Aabb {
            min: start,
            max: start,
        };
        for period in 1..=params.m_periods() {
            focus = focus.union(
                &trajectory
                    .detectable_region(period, params.sensing_range())
                    .bounding_box(),
            );
        }
        (focus, trajectory)
    });
    let index_ms = build.elapsed().as_secs_f64() * 1e3 - deploy_ms;
    let focus = field.focus().expect("a focused rebuild sets the focus");
    let start = Instant::now();
    field.refocus(focus);
    let refocus_ms = start.elapsed().as_secs_f64() * 1e3;

    let sense = Instant::now();
    let mut hits: Vec<SensorId> = Vec::new();
    let mut query_us = Vec::with_capacity(params.m_periods());
    let mut total_hits = 0;
    let mut reports = Vec::new();
    for period in 1..=params.m_periods() {
        let dr = trajectory.detectable_region(period, params.sensing_range());
        let start = Instant::now();
        field.query_stadium_into(&dr, &mut hits);
        query_us.push(us(start.elapsed()));
        total_hits += hits.len();
        for &id in &hits {
            if rng.gen_bool(params.pd()) {
                reports.push(DetectionReport::new(
                    id,
                    period,
                    field.sensor(id).pos,
                    ReportKind::TrueDetection,
                ));
            }
        }
    }
    let sense_us = us(sense.elapsed());
    let rule = TrackRule::new(params.speed(), params.period_s(), params.sensing_range())
        .with_wrap(params.field_width(), params.field_height());
    let start = Instant::now();
    std::hint::black_box(group_filter::group_detects(
        &reports,
        &rule,
        params.k(),
        params.m_periods(),
    ));
    let filter_us = us(start.elapsed());
    Phases {
        deploy_ms,
        index_ms,
        refocus_ms,
        query_us,
        hits: total_hits,
        sense_us,
        filter_us,
        reports,
    }
}

/// The traced pass: trials replayed phase by phase (deploy, focused index
/// build, refocus, per-period queries, sensing, group filter), each
/// checked against `run_trial_in` on the same trial, which is timed too.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let config = gen::sim_config(ctx.seed, 0, TRIALS);
    let mut scratch = TrialScratch::new();
    let mut field = gbd_field::field::SensorField::new(
        Aabb::from_extent(1.0, 1.0),
        Vec::new(),
        config.boundary,
    );
    let mut picks = SplitMix::new(ctx.seed, gen::LANE_SIM);
    let mut phases = Vec::new();
    let mut plain_us = Vec::new();
    for _ in 0..TRACED_TRIALS {
        let trial = picks.next_u64() % config.trials;
        let start = Instant::now();
        let outcome = run_trial_in(&config, trial, &mut scratch);
        plain_us.push(us(start.elapsed()));
        let p = replay_trial(&config, trial, &mut field);
        if p.reports != outcome.reports {
            return Err(format!(
                "the phase replay of trial {trial} diverged from run_trial_in"
            ));
        }
        phases.push(p);
    }
    let col = |f: &dyn Fn(&Phases) -> f64| phases.iter().map(f).collect::<Vec<f64>>();
    // One trial's M per-period queries, summed.
    let queries = col(&|p| p.query_us.iter().sum());
    let query_count = phases.iter().map(|p| p.query_us.len()).sum::<usize>() as f64;
    let mut out = Outcome {
        attempted: 2 * TRACED_TRIALS,
        ..Outcome::default()
    };
    out.metric("sim.trial_ms", "ms", median(&plain_us) / 1e3);
    out.metric("sim.deploy_ms", "ms", median(&col(&|p| p.deploy_ms)));
    out.metric("sim.index_ms", "ms", median(&col(&|p| p.index_ms)));
    out.metric("sim.sense_us", "us", median(&col(&|p| p.sense_us)));
    out.metric("sim.filter_us", "us", median(&col(&|p| p.filter_us)));
    out.metric("field.refocus_ms", "ms", median(&col(&|p| p.refocus_ms)));
    out.metric("field.query_us", "us", median(&queries));
    out.metric(
        "field.hits_per_query",
        "count",
        phases.iter().map(|p| p.hits).sum::<usize>() as f64 / query_count,
    );
    Ok(out)
}
