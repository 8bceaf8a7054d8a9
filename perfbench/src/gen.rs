//! Seeded input generators. Every input the system under test receives is
//! a pure function of the workload seed and of its position in a sequence;
//! nothing here ever looks at a response.

use gbd_core::params::SystemParams;
use gbd_engine::{Engine, EvalRequest};
use gbd_serve::protocol::{self, Verb};
use gbd_serve::Json;
use gbd_sim::config::SimConfig;
use gbd_sim::reports::DetectionReport;
use std::collections::HashSet;

/// Independent generator streams drawn from one seed.
pub const LANE_COLD: u64 = 1;
pub const LANE_WORKING_SET: u64 = 2;
pub const LANE_PICKS: u64 = 3;
pub const LANE_STREAM: u64 = 4;
pub const LANE_SIM: u64 = 5;
pub const LANE_SATURATION: u64 = 6;

/// SplitMix64: small, fast and fully determined by its state.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, lane: u64) -> SplitMix {
        let mut s = SplitMix(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `lo..=hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One M-S operating point: the fields a cold-sweep request varies. All
/// other parameters keep the paper defaults the server fills in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsPoint {
    pub n: usize,
    pub pd: f64,
    pub speed: f64,
    pub m: usize,
    pub g: usize,
    pub gh: usize,
}

impl MsPoint {
    /// The `eval` request line for this point.
    pub fn line(&self, id: u64) -> String {
        let params = Json::obj(vec![
            ("n".to_string(), Json::from(self.n)),
            ("pd".to_string(), Json::Num(self.pd)),
            ("speed".to_string(), Json::Num(self.speed)),
            ("m".to_string(), Json::from(self.m)),
        ]);
        let backend = Json::obj(vec![
            ("kind".to_string(), Json::from("ms")),
            ("g".to_string(), Json::from(self.g)),
            ("gh".to_string(), Json::from(self.gh)),
        ]);
        Json::obj(vec![
            ("id".to_string(), Json::from(id)),
            ("verb".to_string(), Json::from("eval")),
            ("params".to_string(), params),
            ("backend".to_string(), backend),
        ])
        .render()
    }

    /// The request the server evaluates for [`MsPoint::line`]: the line
    /// parsed by the serving layer's own parser.
    pub fn request(&self) -> EvalRequest {
        eval_request(&self.line(0)).expect("generated lines are valid eval requests")
    }
}

/// Parses an `eval` line into the engine request the server evaluates.
pub fn eval_request(line: &str) -> Result<EvalRequest, String> {
    match protocol::parse_line(line) {
        Ok(env) => match env.verb {
            Verb::Eval(request) => Ok(*request),
            _ => Err(format!("not an eval line: {line}")),
        },
        Err(e) => Err(e.message),
    }
}

/// Draws M-S points whose `(params, backend)` key never repeats: a point
/// whose routing key (the result-cache key) was already drawn is redrawn.
#[derive(Debug, Clone)]
pub struct PointGen {
    rng: SplitMix,
    seen: HashSet<Vec<u8>>,
}

impl PointGen {
    pub fn new(seed: u64, lane: u64) -> PointGen {
        PointGen {
            rng: SplitMix::new(seed, lane),
            seen: HashSet::new(),
        }
    }

    pub fn next_point(&mut self) -> MsPoint {
        loop {
            let point = MsPoint {
                n: self.rng.range_usize(100, 400),
                pd: self.rng.range_f64(0.5, 0.95),
                speed: self.rng.range_f64(5.0, 15.0),
                m: self.rng.range_usize(10, 40),
                g: self.rng.range_usize(3, 5),
                gh: self.rng.range_usize(3, 5),
            };
            if self.seen.insert(Engine::routing_key(&point.request())) {
                return point;
            }
        }
    }
}

/// One constant-rate step of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub rate: f64,
    pub secs: f64,
}

/// One scheduled eval: when it is due (seconds from the schedule start),
/// which working-set entry it asks for, and which step it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    pub at: f64,
    pub pick: usize,
    pub step: usize,
}

/// An open-loop schedule: evenly spaced due times per step, steps back to
/// back, and a seeded pick into a working set of `ws_len` entries. It is a
/// function of its arguments only.
pub fn eval_schedule(seed: u64, steps: &[Step], ws_len: usize) -> Vec<Due> {
    let mut picks = SplitMix::new(seed, LANE_PICKS);
    let mut out = Vec::new();
    let mut start = 0.0;
    for (step, s) in steps.iter().enumerate() {
        let count = (s.rate * s.secs).round() as usize;
        for i in 0..count {
            out.push(Due {
                at: start + i as f64 / s.rate,
                pick: picks.range_usize(0, ws_len - 1),
                step,
            });
        }
        start += s.secs;
    }
    out
}

/// The streaming scenario: the paper defaults at M = 10, N = 240, k = 3,
/// the operating point of `results/time_to_detection.csv`.
pub fn stream_params() -> SystemParams {
    SystemParams::paper_defaults()
        .with_m_periods(10)
        .with_n_sensors(240)
        .with_k(3)
}

/// The `stream_open` line for [`stream_params`].
pub fn stream_open_line(id: u64) -> String {
    let p = stream_params();
    format!(
        "{{\"id\":{id},\"verb\":\"stream_open\",\"params\":{{\"n\":{},\"m\":{},\"k\":{}}},\"boundary\":\"torus\"}}",
        p.n_sensors(),
        p.m_periods(),
        p.k()
    )
}

/// One report burst: every report one simulated trial produced in one
/// period, shifted so trials never share a track window.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    pub at: f64,
    pub reports: Vec<DetectionReport>,
}

impl Burst {
    pub fn line(&self, id: u64) -> String {
        let reports = self
            .reports
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("sensor".to_string(), Json::from(r.sensor.0)),
                    ("period".to_string(), Json::from(r.period)),
                    ("x".to_string(), Json::Num(r.position.x)),
                    ("y".to_string(), Json::Num(r.position.y)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("id".to_string(), Json::from(id)),
            ("verb".to_string(), Json::from("report")),
            ("reports".to_string(), Json::Arr(reports)),
        ])
        .render()
    }
}

/// `count` bursts at `rate` per second, replayed from simulator trials of
/// [`stream_params`] seeded from `seed`.
pub fn stream_bursts(seed: u64, count: usize, rate: f64) -> Vec<Burst> {
    let params = stream_params();
    let config = SimConfig::new(params).with_seed(SplitMix::new(seed, LANE_STREAM).next_u64());
    // Trials are spaced by twice the window, so a track can never chain
    // from one trial into the next.
    let stride = 2 * params.m_periods();
    let mut out = Vec::with_capacity(count);
    let mut trial = 0u64;
    while out.len() < count {
        let outcome = gbd_sim::engine::run_trial(&config, trial);
        let offset = trial as usize * stride;
        let mut reports = outcome.reports.as_slice();
        while let Some(first) = reports.first() {
            let len = reports
                .iter()
                .take_while(|r| r.period == first.period)
                .count();
            let mut burst: Vec<DetectionReport> = reports[..len].to_vec();
            for r in &mut burst {
                r.period += offset;
            }
            if out.len() < count {
                out.push(Burst {
                    at: out.len() as f64 / rate,
                    reports: burst,
                });
            }
            reports = &reports[len..];
        }
        trial += 1;
    }
    out
}

/// The sim-million field: N = 10⁶ sensors on the 2,065,591 m square that
/// keeps the paper's sensor density, straight-line target, 2 threads.
pub fn sim_config(seed: u64, campaign: u64, trials: u64) -> SimConfig {
    let side = 2_065_591.0;
    let params = SystemParams::new(side, side, 1_000_000, 1_000.0, 10.0, 60.0, 0.9, 20, 5)
        .expect("the sim-million parameters are valid");
    let campaign_seed = seed.wrapping_add(campaign.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SimConfig::new(params)
        .with_seed(SplitMix::new(campaign_seed, LANE_SIM).next_u64())
        .with_trials(trials)
        .with_threads(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let mut a = PointGen::new(7, LANE_COLD);
        let mut b = PointGen::new(7, LANE_COLD);
        for _ in 0..500 {
            assert_eq!(a.next_point(), b.next_point());
        }
        let steps = [
            Step {
                rate: 500.0,
                secs: 1.0,
            },
            Step {
                rate: 900.0,
                secs: 0.5,
            },
        ];
        assert_eq!(eval_schedule(7, &steps, 64), eval_schedule(7, &steps, 64));
        assert_eq!(stream_bursts(7, 200, 50.0), stream_bursts(7, 200, 50.0));
        assert_eq!(sim_config(7, 3, 64), sim_config(7, 3, 64));
        assert_ne!(sim_config(7, 3, 64).seed, sim_config(7, 4, 64).seed);
        let mut c = PointGen::new(8, LANE_COLD);
        let mut a = PointGen::new(7, LANE_COLD);
        assert_ne!(a.next_point(), c.next_point());
    }

    #[test]
    fn cold_sweep_never_repeats_a_cache_key() {
        let mut points = PointGen::new(2024, LANE_COLD);
        let mut keys = HashSet::new();
        for _ in 0..20_000 {
            let point = points.next_point();
            assert!((100..=400).contains(&point.n));
            assert!((10..=40).contains(&point.m));
            assert!((3..=5).contains(&point.g) && (3..=5).contains(&point.gh));
            assert!(keys.insert(Engine::routing_key(&point.request())));
        }
    }

    #[test]
    fn schedule_depends_only_on_seed_and_due_times() {
        let steps = [
            Step {
                rate: 400.0,
                secs: 0.5,
            },
            Step {
                rate: 800.0,
                secs: 0.25,
            },
        ];
        let a = eval_schedule(1, &steps, 100);
        let b = eval_schedule(2, &steps, 100);
        // Due times come from the steps alone; the seed only picks keys.
        assert_eq!(a.len(), 400);
        let times = |s: &[Due]| s.iter().map(|d| (d.at, d.step)).collect::<Vec<_>>();
        assert_eq!(times(&a), times(&b));
        assert_ne!(
            a.iter().map(|d| d.pick).collect::<Vec<_>>(),
            b.iter().map(|d| d.pick).collect::<Vec<_>>()
        );
        assert!(a.windows(2).all(|w| w[0].at < w[1].at));
        assert_eq!(a[200].at, 0.5);
    }

    #[test]
    fn bursts_are_period_ordered_and_wire_exact() {
        let bursts = stream_bursts(11, 300, 100.0);
        let mut last = 0;
        for (i, burst) in bursts.iter().enumerate() {
            let period = burst.reports[0].period;
            assert!(burst.reports.iter().all(|r| r.period == period));
            assert!(period > last);
            last = period;
            let env = protocol::parse_line(&burst.line(i as u64)).unwrap();
            let Verb::Report { reports } = env.verb else {
                panic!("expected a report line");
            };
            assert_eq!(reports, burst.reports);
        }
    }

    #[test]
    fn point_lines_round_trip_through_the_wire_parser() {
        let mut points = PointGen::new(5, LANE_COLD);
        for _ in 0..100 {
            let p = points.next_point();
            let req = p.request();
            assert_eq!(req.params.n_sensors(), p.n);
            assert_eq!(req.params.pd().to_bits(), p.pd.to_bits());
            assert_eq!(req.params.speed().to_bits(), p.speed.to_bits());
            assert_eq!(req.params.m_periods(), p.m);
        }
    }
}
