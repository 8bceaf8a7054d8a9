//! Stateful streaming detection sessions over the JSON-lines transport.
//!
//! A `stream_open` turns the connection into a detection session: the
//! reader thread owns a [`StreamDetector`] and answers `report` and
//! `stream_close` from it. Every session line (the open ack, report acks,
//! detection events, the close ack) goes into the connection's writer
//! queue as a [`WriteItem::Ready`], in the order it is produced, so
//! session lines and control replies share one FIFO and keep submission
//! order. A client that stops draining events fills that bounded queue,
//! which blocks the reader and stops it reading reports off the socket.

use crate::conn::WriteItem;
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::StreamOpenSpec;
use gbd_sim::group_filter::TrackRule;
use gbd_sim::reports::DetectionReport;
use gbd_stream::{DetectionEvent, StreamConfig, StreamDetector, DEFAULT_MAX_TRACKS};
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::time::Instant;

/// One open streaming session, owned by the connection's reader thread.
pub(crate) struct StreamSession {
    detector: StreamDetector,
    /// The `stream_open` id — detection events are tagged with it so a
    /// pipelining client can tell pushed events from report acks.
    open_id: u64,
    reports: u64,
    events: u64,
    /// Live-track count last published to the shared gauge.
    published_tracks: u64,
}

impl StreamSession {
    /// Opens a session: builds the detector from the spec and returns the
    /// session plus its `stream_open` ack. Also accounts the open on
    /// `metrics`.
    pub(crate) fn open(
        id: u64,
        spec: &StreamOpenSpec,
        metrics: &ServerMetrics,
    ) -> (StreamSession, Json) {
        let p = &spec.params;
        let mut rule = TrackRule::new(p.speed(), p.period_s(), p.sensing_range());
        if spec.torus {
            rule = rule.with_wrap(p.field_width(), p.field_height());
        }
        let max_tracks = if spec.max_tracks == 0 {
            DEFAULT_MAX_TRACKS
        } else {
            spec.max_tracks
        };
        let config = StreamConfig::new(rule, p.k(), p.m_periods()).with_max_tracks(max_tracks);
        metrics.stream_sessions_opened.inc();
        metrics.stream_open_sessions.fetch_add(1, Ordering::Relaxed);
        let ack = Json::obj(vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("ok".to_string(), Json::Bool(true)),
            ("streaming".to_string(), Json::Bool(true)),
            ("k".to_string(), Json::from(p.k())),
            ("m".to_string(), Json::from(p.m_periods())),
            ("max_tracks".to_string(), Json::from(max_tracks)),
            ("torus".to_string(), Json::Bool(spec.torus)),
        ]);
        let session = StreamSession {
            detector: StreamDetector::new(config),
            open_id: id,
            reports: 0,
            events: 0,
            published_tracks: 0,
        };
        (session, ack)
    }

    /// Folds the detector's live-track count into the cross-session gauge.
    fn publish_tracks(&mut self, metrics: &ServerMetrics) {
        let now = self.detector.live_tracks() as u64;
        let prev = self.published_tracks;
        if now >= prev {
            metrics
                .stream_tracks_live
                .fetch_add(now - prev, Ordering::Relaxed);
        } else {
            metrics
                .stream_tracks_live
                .fetch_sub(prev - now, Ordering::Relaxed);
        }
        self.published_tracks = now;
    }

    /// Ingests one `report` batch and queues its ack, then one line per
    /// detection event. Returns false when the writer is gone.
    pub(crate) fn ingest(
        &mut self,
        id: u64,
        reports: &[DetectionReport],
        metrics: &ServerMetrics,
        tx: &SyncSender<WriteItem>,
    ) -> bool {
        let received = Instant::now();
        let before = self.detector.stats();
        let events = self.detector.ingest(reports);
        let after = self.detector.stats();
        let ingested = after.reports_ingested - before.reports_ingested;
        let late = after.reports_late - before.reports_late;
        metrics.stream_reports.add(ingested);
        metrics.stream_reports_late.add(late);
        metrics.stream_events.add(events.len() as u64);
        metrics
            .stream_tracks_expired
            .add(after.tracks_expired - before.tracks_expired);
        metrics
            .stream_tracks_evicted
            .add(after.tracks_evicted - before.tracks_evicted);
        self.publish_tracks(metrics);
        self.reports += ingested;
        self.events += events.len() as u64;
        let ack = Json::obj(vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("ok".to_string(), Json::Bool(true)),
            ("ingested".to_string(), Json::from(ingested)),
            ("late".to_string(), Json::from(late)),
            ("events".to_string(), Json::from(events.len())),
        ]);
        if tx.send(WriteItem::Ready(ack)).is_err() {
            return false;
        }
        for event in &events {
            let line = render_event(self.open_id, event);
            if tx.send(WriteItem::Ready(line)).is_err() {
                return false;
            }
            // Report receipt → event handed to the writer; the wire adds
            // only socket time on top.
            metrics.stream_event_latency.record(received.elapsed());
        }
        true
    }

    /// Books the session out of the open-session and live-track gauges.
    fn retire(&mut self, metrics: &ServerMetrics) {
        metrics.stream_open_sessions.fetch_sub(1, Ordering::Relaxed);
        let live = self.published_tracks;
        metrics
            .stream_tracks_live
            .fetch_sub(live, Ordering::Relaxed);
        self.published_tracks = 0;
    }

    /// Clean close: books the session out and returns the `stream_close`
    /// ack. The caller drops the session afterwards.
    pub(crate) fn close(&mut self, id: u64, metrics: &ServerMetrics) -> Json {
        self.retire(metrics);
        metrics.stream_sessions_closed.inc();
        Json::obj(vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("ok".to_string(), Json::Bool(true)),
            ("stream_end".to_string(), Json::Bool(true)),
            ("reports".to_string(), Json::from(self.reports)),
            ("events".to_string(), Json::from(self.events)),
        ])
    }

    /// Teardown without a `stream_close` (disconnect or server drain):
    /// account the abort so every opened session is still accounted for.
    pub(crate) fn abort(mut self, metrics: &ServerMetrics) {
        self.retire(metrics);
        metrics.stream_sessions_aborted.inc();
    }
}

fn render_event(open_id: u64, event: &DetectionEvent) -> Json {
    Json::obj(vec![
        ("id".to_string(), Json::Int(open_id as i64)),
        ("ok".to_string(), Json::Bool(true)),
        (
            "event".to_string(),
            Json::obj(vec![
                ("seq".to_string(), Json::from(event.seq)),
                ("period".to_string(), Json::from(event.period)),
                ("sensor".to_string(), Json::from(event.sensor.0)),
                ("chain_len".to_string(), Json::from(event.chain_len)),
                ("first_period".to_string(), Json::from(event.first_period)),
            ]),
        ),
    ])
}
