//! Append path: creates fresh logs, appends checksummed frames, and —
//! under the `chaos` feature — deterministically crashes mid-append to
//! exercise torn-write recovery.

use crate::format;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// Appends framed records to an open log file.
///
/// Each append is a single `write_all` of its whole frames, so on a clean
/// process the log only ever grows by whole frames; a crash mid-write
/// leaves a prefix of the group's frames and at most one torn frame at
/// the tail, which recovery truncates.
#[derive(Debug)]
pub struct LogWriter {
    file: File,
    len: u64,
    appends: u64,
    #[cfg(feature = "chaos")]
    chaos_abort_after: Option<u64>,
}

impl LogWriter {
    /// Creates (truncating) a fresh log at `path` and writes the header
    /// for identity tag `tag`.
    pub fn create(path: &Path, tag: &[u8]) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let header = format::encode_header(tag);
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(LogWriter {
            file,
            len: header.len() as u64,
            appends: 0,
            #[cfg(feature = "chaos")]
            chaos_abort_after: chaos_abort_after(),
        })
    }

    /// Opens an existing, already-validated log for appending, truncating
    /// it to `valid_len` first (dropping any torn tail recovery found).
    pub fn open_append(path: &Path, valid_len: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(LogWriter {
            file,
            len: valid_len,
            appends: 0,
            #[cfg(feature = "chaos")]
            chaos_abort_after: chaos_abort_after(),
        })
    }

    /// Appends `count` already-encoded record frames (see
    /// [`format::encode_frame_into`]) with one `write_all`. Returns the
    /// new file length.
    pub fn append_frames(&mut self, frames: &[u8], count: u64) -> io::Result<u64> {
        #[cfg(feature = "chaos")]
        self.maybe_chaos_abort(frames, count);
        self.file.write_all(frames)?;
        self.len += frames.len() as u64;
        self.appends += count;
        Ok(self.len)
    }

    /// Flushes appended frames to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Current file length in bytes (header plus whole frames).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Records appended through this writer since it was opened.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Crash injection: once `GBD_STORE_CHAOS_ABORT_AFTER=N` records have
    /// been appended, the append that would carry the log past `N` writes
    /// the whole frames up to record `N` and half of the next one, syncs
    /// them so the torn bytes are really on disk, and aborts the process —
    /// the closest deterministic stand-in for `kill -9` mid-write. The log
    /// then holds exactly `N` whole frames plus half a frame, whether or
    /// not `N` falls inside a group of `count` frames.
    #[cfg(feature = "chaos")]
    fn maybe_chaos_abort(&mut self, frames: &[u8], count: u64) {
        let Some(limit) = self.chaos_abort_after else {
            return;
        };
        if self.appends + count <= limit {
            return;
        }
        let frame_end =
            |at: usize| format::decode_frame(frames, at).map_or(frames.len(), |f| f.1);
        let mut whole = 0;
        for _ in self.appends..limit {
            whole = frame_end(whole);
        }
        let torn = (frame_end(whole) - whole) / 2;
        let _ = self.file.write_all(&frames[..whole + torn]);
        let _ = self.file.sync_data();
        eprintln!(
            "gbd-store chaos: aborting after {} appends with a {torn}-byte torn frame",
            self.appends.max(limit)
        );
        std::process::abort();
    }
}

#[cfg(feature = "chaos")]
fn chaos_abort_after() -> Option<u64> {
    std::env::var("GBD_STORE_CHAOS_ABORT_AFTER")
        .ok()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{decode_frame, encode_frame, parse_header};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gbd-store-writer-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn create_append_reopen_appends_at_end() {
        let path = temp_path("reopen.log");
        let mut w = LogWriter::create(&path, b"tag").unwrap();
        w.append_frames(&encode_frame(1, b"a", b"1"), 1).unwrap();
        let len = w.append_frames(&encode_frame(2, b"b", b"2"), 1).unwrap();
        w.sync().unwrap();
        assert_eq!(w.appends(), 2);
        drop(w);

        let mut w = LogWriter::open_append(&path, len).unwrap();
        w.append_frames(&encode_frame(3, b"c", b"3"), 1).unwrap();
        w.sync().unwrap();
        assert_eq!(w.len(), std::fs::metadata(&path).unwrap().len());

        let bytes = std::fs::read(&path).unwrap();
        let (tag, mut at) = parse_header(&bytes).unwrap();
        assert_eq!(tag, b"tag");
        let mut kinds = Vec::new();
        while let Some((record, next)) = decode_frame(&bytes, at) {
            kinds.push(record.kind);
            at = next;
        }
        assert_eq!(kinds, vec![1, 2, 3]);
        assert_eq!(at, bytes.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_truncates_torn_tail() {
        let path = temp_path("truncate.log");
        let mut w = LogWriter::create(&path, b"tag").unwrap();
        let valid = w.append_frames(&encode_frame(1, b"a", b"1"), 1).unwrap();
        drop(w);
        // Simulate a torn write past the valid prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&path, &bytes).unwrap();

        let w = LogWriter::open_append(&path, valid).unwrap();
        assert_eq!(w.len(), valid);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
        std::fs::remove_file(&path).unwrap();
    }
}
