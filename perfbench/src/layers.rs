//! The traced run: per-layer numbers from the benchmark's own calls into
//! each crate, plus the live counters and histograms the servers expose.
//!
//! Every traced run reports every per-layer metric, whichever workload it
//! was asked for: it runs the traced pass of each workload (each layer is
//! measured on the inputs of the workload it belongs to), and for the
//! requested workload it also makes an untraced pass of the same length,
//! so the tracing overhead can be reported.

use crate::cold_sweep::Record;
use crate::{cold_sweep, gen, routed_mixed, sim_million, stats::us, Ctx, Outcome};
use gbd_core::ms_approach;
use gbd_engine::{BackendSpec, Engine};
use gbd_store::{Shipper, Store};
use std::io::Read;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Records replayed through `Store::append`.
const APPEND_REPLAY: usize = 20_000;
/// Points timed through `ms_approach::analyze`.
const ANALYZE_POINTS: usize = 400;

/// Which end-to-end metric, on which workload, each layer metric should
/// move; printed with the traced run's numbers.
pub const LAYER_MAP: [(&str, &str); 9] = [
    ("core.", "throughput_per_s, latency_p50_us on cold-sweep"),
    ("engine.", "throughput_per_s on cold-sweep (.cold); latency_p50_us on routed-mixed (.warm)"),
    ("store.", "throughput_per_s, latency_p50_us on cold-sweep"),
    ("serve.", "latency_p50_us, throughput_per_s on routed-mixed; throughput_per_s on cold-sweep (batch_size.cold)"),
    ("router.", "latency_p50_us, throughput_per_s on routed-mixed"),
    ("stream.", "routed-mixed (event latency, printed as event_p50_us)"),
    ("sim.", "trials/s of a simulator campaign (sim-million, dropped from the gated workloads)"),
    ("field.", "trials/s of a simulator campaign (sim-million, dropped from the gated workloads)"),
    ("trace.", "the requested workload: traced minus untraced latency_p50_us"),
];

pub fn traced(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    // Each live pass gets a quarter of the run length.
    let secs = (ctx.seconds / 4.0).max(1.0);
    let mut out = Outcome::default();
    for pass in [
        cold_sweep::traced(ctx, secs, workload == "cold-sweep")?,
        routed_mixed::traced(ctx, secs, workload == "routed-mixed")?,
        sim_million::traced(ctx)?,
    ] {
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        out.metrics.extend(pass.metrics);
    }
    out.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    for (prefix, moves) in LAYER_MAP {
        eprintln!("  {prefix:<8} should move {moves}");
    }
    Ok(out)
}

/// `ms_approach::analyze` on the first points of a cold-sweep run.
pub fn analyze_times(records: &[Record]) -> Result<Vec<f64>, String> {
    records
        .iter()
        .take(ANALYZE_POINTS)
        .map(|r| {
            let request = gen::eval_request(&r.line)?;
            let BackendSpec::Ms(opts) = request.backend else {
                return Err("cold-sweep requests use the ms backend".to_string());
            };
            let start = Instant::now();
            let result = ms_approach::analyze(&request.params, &opts);
            let t = us(start.elapsed());
            std::hint::black_box(result).map_err(|e| e.to_string())?;
            Ok(t)
        })
        .collect()
}

/// Replays a store's records through `Store::append` into two fresh
/// stores, one plain and one whose tee ships every record to a local
/// sink, and returns the per-append times of each in microseconds.
pub fn store_replay(source: &Path, dir: &Path) -> Result<(Vec<f64>, Vec<f64>), String> {
    let tag = Engine::store_identity();
    let source = Store::open(source, tag).map_err(|e| format!("open source store: {e}"))?;
    let mut records = Vec::new();
    source.for_each(|kind, key, value| {
        if records.len() < APPEND_REPLAY {
            records.push((kind, key.to_vec(), value.to_vec()));
        }
    });
    drop(source);
    let replay = |store: &Store| -> Result<Vec<f64>, String> {
        records
            .iter()
            .map(|(kind, key, value)| {
                let start = Instant::now();
                store.append(*kind, key, value).map_err(|e| e.to_string())?;
                Ok(us(start.elapsed()))
            })
            .collect()
    };
    let plain =
        Store::open(dir.join("replay-plain.gbdstore"), tag).map_err(|e| e.to_string())?;
    let plain_us = replay(&plain)?;

    // The tee target: a sink that reads and discards the shipped frames.
    let sink = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let sink_addr = sink.local_addr().map_err(|e| e.to_string())?;
    let teed =
        Arc::new(Store::open(dir.join("replay-tee.gbdstore"), tag).map_err(|e| e.to_string())?);
    let shipper = Shipper::start(Arc::clone(&teed), sink_addr.to_string(), 4096)
        .map_err(|e| e.to_string())?;
    let tee = Arc::clone(&shipper);
    teed.set_tee(move |kind, key, value| tee.ship(kind, key, value));
    let teed_us = std::thread::scope(|scope| {
        let drain = scope.spawn(|| {
            // One connection per shipper connect; the shipper's stop
            // closes the last one.
            if let Ok((mut conn, _)) = sink.accept() {
                let mut buf = [0u8; 64 * 1024];
                while matches!(conn.read(&mut buf), Ok(n) if n > 0) {}
            }
        });
        let times = replay(&teed);
        shipper.flush(std::time::Duration::from_secs(10));
        teed.clear_tee();
        shipper.stop();
        drain.join().expect("sink thread panicked");
        times
    })?;
    Ok((plain_us, teed_us))
}
