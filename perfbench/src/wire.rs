//! Client side of the JSON-lines protocol, the Prometheus scrape, and a
//! `poll(2)` wrapper so one thread can read two connections.

use gbd_engine::EvalResponse;
use gbd_serve::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// A blocking line-oriented connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Sends one line and parses the one-line answer.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line).map_err(|e| format!("send: {e}"))?;
        let answer = self.recv().map_err(|e| format!("recv: {e}"))?;
        Json::parse(&answer).map_err(|e| format!("bad answer {answer:?}: {e}"))
    }

    /// The raw halves, for a reader and a writer on different threads.
    pub fn into_parts(self) -> (TcpStream, TcpStream) {
        (self.reader.into_inner(), self.writer)
    }
}

/// Wire id of an answer line (`{"id":<n>,…`), without a full parse.
pub fn answer_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Whether an answer line is an error (shed, refused, failed).
pub fn is_error(answer: &str) -> bool {
    !answer.contains("\"ok\":true")
}

/// Checks one wire answer against the in-process engine's response to the
/// same request: the same backend, and detection probabilities equal bit
/// for bit.
pub fn compare(answer: &str, reference: &EvalResponse) -> Result<(), String> {
    let json = Json::parse(answer).map_err(|e| format!("bad answer {answer}: {e}"))?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("failed answer {answer}"));
    }
    let same = |key: &str, want: &str| json.get(key).and_then(Json::as_str) == Some(want);
    if !same("backend", reference.backend)
        || !same("served_by", reference.served_by)
        || json.get("degraded").and_then(Json::as_bool) != Some(reference.degraded)
    {
        return Err(format!("answer {answer} disagrees on backend"));
    }
    let wire: Vec<(u64, u64)> = json
        .get("detection")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("no detection in {answer}"))?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().unwrap_or_default();
            let k = pair.first().and_then(Json::as_u64).unwrap_or(u64::MAX);
            let p = pair.get(1).and_then(Json::as_f64).unwrap_or(f64::NAN);
            (k, p.to_bits())
        })
        .collect();
    let local: Vec<(u64, u64)> = reference
        .detection
        .iter()
        .map(|&(k, p)| (k as u64, p.to_bits()))
        .collect();
    if wire != local {
        return Err(format!(
            "answer {answer} is not bit-identical to the in-process {:?}",
            reference.detection
        ));
    }
    Ok(())
}

/// One `metrics` round trip on a fresh connection.
pub fn metrics(addr: &str, sections: &[&str]) -> Result<Json, String> {
    let list = sections
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(",");
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.call(&format!(
        "{{\"id\":1,\"verb\":\"metrics\",\"sections\":[{list}]}}"
    ))
}

/// Follows a dotted path of object keys.
pub fn path<'a>(json: &'a Json, dotted: &str) -> Option<&'a Json> {
    dotted.split('.').try_fold(json, |node, key| node.get(key))
}

pub fn path_u64(json: &Json, dotted: &str) -> Result<u64, String> {
    path(json, dotted)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing `{dotted}` in {}", json.render()))
}

/// A Prometheus text scrape of a server's `--metrics-addr` endpoint.
pub struct Scrape {
    text: String,
}

pub fn scrape(addr: &str) -> Result<Scrape, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("scrape request: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("scrape read: {e}"))?;
    Ok(Scrape { text })
}

impl Scrape {
    /// A counter or gauge sample, 0 when the series is absent.
    pub fn value(&self, metric: &str) -> f64 {
        self.text
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(' ')?;
                (name == metric).then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0.0)
    }

    /// Per-bucket counts of a histogram. The exposition lists the occupied
    /// prefix of power-of-two buckets in order, so the i-th `le` line is
    /// bucket i, holding samples in `[2^i, 2^(i+1))` µs.
    pub fn buckets(&self, metric: &str) -> Vec<u64> {
        let prefix = format!("{metric}_bucket{{le=\"");
        let mut out = Vec::new();
        let mut below = 0u64;
        for line in self.text.lines() {
            let Some(rest) = line.strip_prefix(&prefix) else {
                continue;
            };
            if rest.starts_with("+Inf") {
                continue;
            }
            let Some(cumulative) = rest.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok())
            else {
                continue;
            };
            out.push(cumulative.saturating_sub(below));
            below = cumulative;
        }
        out
    }
}

/// The samples a histogram gained between two scrapes, per bucket.
pub fn bucket_delta(before: &[u64], after: &[u64]) -> Vec<u64> {
    after
        .iter()
        .enumerate()
        .map(|(i, &a)| a.saturating_sub(before.get(i).copied().unwrap_or(0)))
        .collect()
}

/// The `q`-quantile of power-of-two bucket counts, interpolated linearly
/// inside the bucket that holds the rank; NaN when empty.
pub fn bucket_quantile(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = q * total as f64;
    let mut seen = 0.0;
    for (i, &count) in buckets.iter().enumerate() {
        let next = seen + count as f64;
        if count > 0 && next >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            return lo + (hi - lo) * ((rank - seen) / count as f64).clamp(0.0, 1.0);
        }
        seen = next;
    }
    f64::NAN
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Waits up to `timeout_ms` for any of `streams` to become readable and
/// returns which are (readable, hung up, or in error).
pub fn wait_readable(streams: &[&TcpStream], timeout_ms: i32) -> io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd` structs laid out as the C struct (`repr(C)`), and every fd
    // belongs to a stream borrowed for the duration of the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; streams.len()]);
        }
        return Err(err);
    }
    Ok(fds.iter().map(|p| p.revents != 0).collect())
}

/// Splits complete lines out of a byte buffer fed by raw reads.
#[derive(Default)]
pub struct LineBuf {
    pending: Vec<u8>,
}

impl LineBuf {
    /// Reads what is available (the caller polled first) and returns the
    /// complete lines; `Ok(None)` on end of stream.
    pub fn fill(&mut self, stream: &mut TcpStream) -> io::Result<Option<Vec<String>>> {
        let mut chunk = [0u8; 64 * 1024];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(None);
        }
        self.pending.extend_from_slice(&chunk[..n]);
        let mut lines = Vec::new();
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line).trim_end().to_string());
        }
        Ok(Some(lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantiles_interpolate_inside_power_of_two_buckets() {
        // 10 samples in [4, 8), 10 in [8, 16).
        let buckets = [0, 0, 10, 10];
        assert_eq!(bucket_quantile(&buckets, 0.25), 6.0);
        assert_eq!(bucket_quantile(&buckets, 0.5), 8.0);
        assert_eq!(bucket_quantile(&buckets, 1.0), 16.0);
        assert!(bucket_quantile(&[0, 0], 0.5).is_nan());
        assert_eq!(bucket_delta(&[1, 2], &[1, 5, 3]), vec![0, 3, 3]);
    }

    #[test]
    fn scrape_reads_counters_and_bucket_prefixes() {
        let scrape = Scrape {
            text: "gbd_shed_total 3\n\
                   gbd_queue_wait_us_bucket{le=\"1\"} 2\n\
                   gbd_queue_wait_us_bucket{le=\"3\"} 2\n\
                   gbd_queue_wait_us_bucket{le=\"6\"} 7\n\
                   gbd_queue_wait_us_bucket{le=\"+Inf\"} 7\n"
                .to_string(),
        };
        assert_eq!(scrape.value("gbd_shed_total"), 3.0);
        assert_eq!(scrape.value("gbd_missing"), 0.0);
        assert_eq!(scrape.buckets("gbd_queue_wait_us"), vec![2, 0, 5]);
    }
}
