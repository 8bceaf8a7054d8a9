//! The open-loop load generator: one thread writes every request at its
//! due time, one thread reads every connection, and latency is timed from
//! the due time, so a stall is charged to every request it delays.

use crate::gen::Due;
use crate::wire::{self, Conn, LineBuf};
use gbd_serve::Json;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Eval ids are schedule positions plus this; burst ids likewise.
pub const EVAL_ID_BASE: u64 = 1_000_000;
pub const BURST_ID_BASE: u64 = 10;
/// How long after the last due time answers are still awaited before the
/// rest count as timed out.
const DRAIN: Duration = Duration::from_secs(20);
/// How long before a due time the writer stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(150);

/// What the reader saw for one stream session.
pub struct Event {
    /// The burst whose ack this event followed.
    pub burst: usize,
    pub at: f64,
    pub line: String,
}

pub struct Run {
    /// Offsets (seconds from the schedule start) at which each eval and
    /// burst was actually written.
    pub eval_sent: Vec<f64>,
    pub burst_sent: Vec<f64>,
    /// Answer offset and line per eval; `None` if it timed out.
    pub eval_done: Vec<Option<(f64, String)>>,
    /// Ack offset and line per burst; `None` if it timed out.
    pub burst_done: Vec<Option<(f64, String)>>,
    pub events: Vec<Event>,
}

impl Run {
    /// Writer lateness per sent item, in microseconds.
    pub fn lateness_us(&self, schedule: &[Due], bursts: &[f64]) -> Vec<f64> {
        let evals = self.eval_sent.iter().zip(schedule).map(|(s, d)| s - d.at);
        let bursts = self.burst_sent.iter().zip(bursts).map(|(s, at)| s - at);
        evals
            .chain(bursts)
            .map(|late| late.max(0.0) * 1e6)
            .collect()
    }
}

enum Item<'a> {
    Eval(usize, &'a str),
    Burst(usize, &'a str),
}

/// Sends `lines[i]` at `schedule[i].at` on `evals[conn_of[i]]`, and burst
/// `j` at `burst_at[j]` on `stream`, reading every answer and pushed
/// event. Lines must already carry their ids and a trailing newline.
pub fn drive(
    evals: Vec<Conn>,
    conn_of: &[usize],
    schedule: &[Due],
    lines: &[String],
    stream: Option<Conn>,
    burst_at: &[f64],
    burst_lines: &[String],
) -> Result<Run, String> {
    let mut items: Vec<(f64, Item<'_>)> = schedule
        .iter()
        .zip(lines)
        .enumerate()
        .map(|(i, (d, l))| (d.at, Item::Eval(i, l.as_str())))
        .chain(
            burst_at
                .iter()
                .zip(burst_lines)
                .enumerate()
                .map(|(j, (&at, l))| (at, Item::Burst(j, l.as_str()))),
        )
        .collect();
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    let last_due = items.last().map_or(0.0, |i| i.0);

    let mut readers: Vec<TcpStream> = Vec::new();
    let mut writers: Vec<TcpStream> = Vec::new();
    let eval_conns = evals.len();
    for conn in evals.into_iter().chain(stream) {
        let (r, w) = conn.into_parts();
        readers.push(r);
        writers.push(w);
    }
    let has_stream = readers.len() > eval_conns;
    let t0 = Instant::now() + Duration::from_millis(5);

    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> Result<(Vec<f64>, Vec<f64>), String> {
            use std::io::Write;
            let mut eval_sent = vec![0.0; schedule.len()];
            let mut burst_sent = vec![0.0; burst_at.len()];
            for (at, item) in &items {
                let due = t0 + Duration::from_secs_f64(*at);
                // Sleep to just short of the due time, then spin: a sleep's
                // wake-up alone is late by tens of microseconds.
                let now = Instant::now();
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let (socket, line) = match item {
                    Item::Eval(i, line) => (&mut writers[conn_of[*i]], line),
                    Item::Burst(_, line) => (&mut writers[eval_conns], line),
                };
                socket
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("open-loop send: {e}"))?;
                let sent = (Instant::now() - t0).as_secs_f64();
                match item {
                    Item::Eval(i, _) => eval_sent[*i] = sent,
                    Item::Burst(j, _) => burst_sent[*j] = sent,
                }
            }
            Ok((eval_sent, burst_sent))
        });
        let reader = scope.spawn(move || -> Result<Run, String> {
            let mut bufs: Vec<LineBuf> = readers.iter().map(|_| LineBuf::default()).collect();
            let mut eval_done: Vec<Option<(f64, String)>> = vec![None; schedule.len()];
            let mut burst_done: Vec<Option<(f64, String)>> = vec![None; burst_at.len()];
            let mut events = Vec::new();
            let (mut evals_left, mut bursts_left) = (schedule.len(), burst_at.len());
            let mut events_due = 0u64;
            let mut last_acked = 0usize;
            let deadline = t0 + Duration::from_secs_f64(last_due) + DRAIN;
            while (evals_left > 0 || bursts_left > 0 || events.len() as u64 != events_due)
                && Instant::now() < deadline
            {
                let refs: Vec<&TcpStream> = readers.iter().collect();
                let ready = wire::wait_readable(&refs, 20).map_err(|e| format!("poll: {e}"))?;
                for (c, _) in ready.iter().enumerate().filter(|(_, r)| **r) {
                    let Some(lines) = bufs[c]
                        .fill(&mut readers[c])
                        .map_err(|e| format!("open-loop read: {e}"))?
                    else {
                        return Err("a connection closed mid-run".to_string());
                    };
                    let at = (Instant::now() - t0).as_secs_f64();
                    for line in lines {
                        let id = wire::answer_id(&line)
                            .ok_or_else(|| format!("answer without id: {line}"))?;
                        if has_stream && c == eval_conns {
                            if line.contains("\"event\":") {
                                events.push(Event {
                                    burst: last_acked,
                                    at,
                                    line,
                                });
                                continue;
                            }
                            let j = id
                                .checked_sub(BURST_ID_BASE)
                                .map(|j| j as usize)
                                .filter(|&j| j < burst_done.len() && burst_done[j].is_none())
                                .ok_or_else(|| format!("unexpected session line {line}"))?;
                            let ack = Json::parse(&line).map_err(|e| format!("{line}: {e}"))?;
                            events_due += ack.get("events").and_then(Json::as_u64).unwrap_or(0);
                            last_acked = j;
                            burst_done[j] = Some((at, line));
                            bursts_left -= 1;
                        } else {
                            let i = id
                                .checked_sub(EVAL_ID_BASE)
                                .map(|i| i as usize)
                                .filter(|&i| i < eval_done.len() && eval_done[i].is_none())
                                .ok_or_else(|| format!("unexpected answer {line}"))?;
                            eval_done[i] = Some((at, line));
                            evals_left -= 1;
                        }
                    }
                }
            }
            Ok(Run {
                eval_sent: Vec::new(),
                burst_sent: Vec::new(),
                eval_done,
                burst_done,
                events,
            })
        });
        let (eval_sent, burst_sent) = writer.join().expect("writer thread panicked")?;
        let mut run = reader.join().expect("reader thread panicked")?;
        run.eval_sent = eval_sent;
        run.burst_sent = burst_sent;
        Ok(run)
    })
}
