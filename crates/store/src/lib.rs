//! gbd-store: append-only, checksummed, versioned on-disk result store.
//!
//! The store persists opaque `(kind, key, value)` byte records for a
//! single *client identity* — a tag the client derives from everything
//! that makes its cached values comparable (schema version of its codec,
//! and, via the keys themselves, parameters, `eps`, and backend). It is
//! the durable tier under `gbd-engine`'s in-memory caches: the engine
//! spills freshly computed entries on insert and warm-starts its caches
//! from the log on open.
//!
//! Guarantees:
//!
//! - **Crash safety.** Appends are whole-frame writes; recovery truncates
//!   at the first bad record, so a crash (even `kill -9` mid-append)
//!   costs at most the torn tail — every surviving record is exactly
//!   what was written, verified by a per-record CRC-32.
//! - **Identity safety.** The header carries a schema version and the
//!   client's identity tag; a mismatch refuses to open rather than risk
//!   serving values computed under different semantics. Truncated or
//!   foreign results can therefore never shadow exact ones.
//! - **Atomic compaction.** [`Store::compact`] rewrites live entries to a
//!   temporary file and renames it over the log, so readers only ever
//!   see the old or the complete new file.
//!
//! The crate is std-only and knows nothing about the engine's types:
//! clients encode keys and values with [`format::ByteWriter`] /
//! [`format::ByteReader`] and interpret `kind` themselves.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod format;
mod index;
pub mod reader;
pub mod ship;
mod snapshot;
mod writer;

pub use format::{ByteReader, ByteWriter, HeaderError, SCHEMA_VERSION};
pub use ship::{Follower, FollowerError, Shipper, ShipperStats};
pub use snapshot::CompactionReport;

use index::Index;
use reader::RecoverError;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use writer::LogWriter;

/// Why a store could not be opened or written.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(io::Error),
    /// The file exists but is not a store, or its header is damaged.
    /// Header damage is not recoverable by design: without a trusted
    /// identity tag, no cached value can be safely served.
    Corrupt(String),
    /// The file was written under a different on-disk schema version.
    SchemaMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes ([`SCHEMA_VERSION`]).
        expected: u32,
    },
    /// The file's identity tag belongs to a different client (different
    /// codec version or value semantics).
    IdentityMismatch {
        /// Tag found in the file (lossy UTF-8 for display).
        found: String,
        /// Tag this client expected.
        expected: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(detail) => write!(f, "store header corrupt: {detail}"),
            StoreError::SchemaMismatch { found, expected } => write!(
                f,
                "store schema version {found} is not the supported version {expected}"
            ),
            StoreError::IdentityMismatch { found, expected } => write!(
                f,
                "store identity tag `{found}` does not match expected `{expected}`"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn recover_error(e: RecoverError) -> StoreError {
    match e {
        RecoverError::Io(e) => StoreError::Io(e),
        RecoverError::Header(HeaderError::NotAStore) => {
            StoreError::Corrupt("bad magic or file too short".to_string())
        }
        RecoverError::Header(HeaderError::SchemaMismatch { found }) => {
            StoreError::SchemaMismatch {
                found,
                expected: SCHEMA_VERSION,
            }
        }
        RecoverError::Header(HeaderError::Corrupt) => {
            StoreError::Corrupt("header checksum or length invalid".to_string())
        }
    }
}

/// Counters describing a store's contents and activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct live `(kind, key)` entries.
    pub live_entries: u64,
    /// Valid records recovered from disk at open (duplicates included).
    pub loaded_records: u64,
    /// Bytes discarded at open as a torn tail or corrupt run. Non-zero
    /// means the previous process died mid-append and recovery truncated
    /// to the longest valid prefix.
    pub torn_bytes_discarded: u64,
    /// Records appended since open.
    pub appended_records: u64,
    /// Append attempts that failed with an I/O error (the entry stays
    /// cached in memory; it is simply not durable).
    pub append_errors: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Current log length in bytes.
    pub file_bytes: u64,
}

/// Read-only facts about a store file, from [`Store::inspect`].
#[derive(Debug, Clone)]
pub struct InspectReport {
    /// Identity tag in the header.
    pub tag: Vec<u8>,
    /// Total valid records (duplicates included).
    pub records: u64,
    /// Distinct live `(kind, key)` entries.
    pub live_entries: u64,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (0 for a cleanly closed log).
    pub torn_bytes: u64,
}

/// A persistent, versioned, append-only result store.
///
/// Thread-safe: appends and compactions serialize on an internal mutex.
/// Values are opaque bytes; one `Store` holds records for exactly one
/// identity tag.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    tag: Vec<u8>,
    inner: Mutex<Inner>,
    /// Observer of successful appends (see [`Store::set_tee`]); called
    /// under the inner lock so a replication follower sees appends in
    /// exactly the order the log does.
    tee: Mutex<Option<Tee>>,
}

type TeeFn = Box<dyn Fn(u8, &[u8], &[u8]) + Send + Sync>;

struct Tee(TeeFn);

impl fmt::Debug for Tee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Tee(..)")
    }
}

#[derive(Debug)]
struct Inner {
    writer: LogWriter,
    index: Index,
    loaded_records: u64,
    torn_bytes_discarded: u64,
    append_errors: u64,
    compactions: u64,
}

impl Store {
    /// Opens (or creates) the store at `path` for identity `tag`.
    ///
    /// An existing log is recovered first: its header must match this
    /// build's schema version and `tag` exactly, and any torn tail is
    /// truncated away before the log is reopened for appending. A
    /// missing or empty file becomes a fresh log.
    pub fn open(path: impl AsRef<Path>, tag: &[u8]) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let fresh = match std::fs::metadata(&path) {
            Ok(meta) => meta.len() == 0,
            Err(e) if e.kind() == io::ErrorKind::NotFound => true,
            Err(e) => return Err(StoreError::Io(e)),
        };
        if fresh {
            let writer = LogWriter::create(&path, tag)?;
            return Ok(Store {
                path,
                tag: tag.to_vec(),
                inner: Mutex::new(Inner {
                    writer,
                    index: Index::default(),
                    loaded_records: 0,
                    torn_bytes_discarded: 0,
                    append_errors: 0,
                    compactions: 0,
                }),
                tee: Mutex::new(None),
            });
        }
        let recovered = reader::recover(&path).map_err(recover_error)?;
        if recovered.tag != tag {
            return Err(StoreError::IdentityMismatch {
                found: String::from_utf8_lossy(&recovered.tag).into_owned(),
                expected: String::from_utf8_lossy(tag).into_owned(),
            });
        }
        let mut index = Index::default();
        for record in &recovered.records {
            index.apply(record.kind, record.key.clone(), record.value.clone());
        }
        let writer = LogWriter::open_append(&path, recovered.valid_len)?;
        Ok(Store {
            path,
            tag: tag.to_vec(),
            inner: Mutex::new(Inner {
                writer,
                index,
                loaded_records: recovered.records.len() as u64,
                torn_bytes_discarded: recovered.torn_bytes,
                append_errors: 0,
                compactions: 0,
            }),
            tee: Mutex::new(None),
        })
    }

    /// Reads the store at `path` without opening it for writing and
    /// without truncating a torn tail. `records`/`live_entries` describe
    /// the valid prefix only.
    pub fn inspect(path: impl AsRef<Path>) -> Result<InspectReport, StoreError> {
        let recovered = reader::recover(path.as_ref()).map_err(recover_error)?;
        let mut index = Index::default();
        for record in &recovered.records {
            index.apply(record.kind, record.key.clone(), record.value.clone());
        }
        Ok(InspectReport {
            tag: recovered.tag,
            records: recovered.records.len() as u64,
            live_entries: index.len() as u64,
            valid_bytes: recovered.valid_len,
            torn_bytes: recovered.torn_bytes,
        })
    }

    /// Appends one record and updates the live index: an
    /// [`Store::append_many`] of one.
    pub fn append(&self, kind: u8, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.append_many(&[(kind, key, value)])
    }

    /// Appends `records` in order as one write: the frames are encoded
    /// (and checksummed) before the lock is taken, then one `write_all`
    /// of the concatenated frames, then the live-index updates and the
    /// tee calls, record by record, still under the lock. The log bytes,
    /// the index, and the tee sequence are exactly those of appending the
    /// records one at a time. Durability is whole-frame on a clean
    /// process; call [`Store::sync`] to force the bytes to stable storage.
    ///
    /// A failed write counts every record of the group in
    /// [`StoreStats::append_errors`].
    pub fn append_many(&self, records: &[(u8, &[u8], &[u8])]) -> Result<(), StoreError> {
        let mut frames = Vec::new();
        for &(kind, key, value) in records {
            format::encode_frame_into(&mut frames, kind, key, value);
        }
        let mut inner = self.lock();
        match inner.writer.append_frames(&frames, records.len() as u64) {
            Ok(_) => {
                // Still under the inner lock: concurrent appends reach the
                // tee in log order, so a follower can never apply a stale
                // value after a fresh one.
                let tee = lock_tee(&self.tee);
                for &(kind, key, value) in records {
                    inner.index.apply(kind, key.to_vec(), value.to_vec());
                    if let Some(Tee(tee)) = &*tee {
                        tee(kind, key, value);
                    }
                }
                Ok(())
            }
            Err(e) => {
                inner.append_errors += records.len() as u64;
                Err(StoreError::Io(e))
            }
        }
    }

    /// Installs an observer called after every successful append with the
    /// record just written (replacing any previous observer). The hook is
    /// invoked under the store's write lock and must not call back into
    /// this store — log shipping enqueues and returns.
    pub fn set_tee(&self, tee: impl Fn(u8, &[u8], &[u8]) + Send + Sync + 'static) {
        *lock_tee(&self.tee) = Some(Tee(Box::new(tee)));
    }

    /// Removes the append observer installed by [`Store::set_tee`].
    pub fn clear_tee(&self) {
        *lock_tee(&self.tee) = None;
    }

    /// The identity tag this store was opened under.
    pub fn tag(&self) -> &[u8] {
        &self.tag
    }

    /// Flushes appended records to stable storage (`fdatasync`).
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        inner.writer.sync()?;
        Ok(())
    }

    /// Rewrites the log to hold exactly the live entries, atomically
    /// (write temp, fsync, rename, fsync directory).
    pub fn compact(&self) -> Result<CompactionReport, StoreError> {
        let mut inner = self.lock();
        inner.writer.sync()?;
        let bytes_before = inner.writer.len();
        let records_before = inner.loaded_records + inner.writer.appends();
        let bytes_after = snapshot::write_snapshot(&self.path, &self.tag, &inner.index)?;
        // Reopen the (renamed-over) log for further appends.
        inner.writer = LogWriter::open_append(&self.path, bytes_after)?;
        inner.compactions += 1;
        // After compaction the log holds exactly the live entries; fold
        // the pre-compaction append count into the loaded baseline so
        // stats stay monotone.
        inner.loaded_records = records_before;
        let live = inner.index.len() as u64;
        Ok(CompactionReport {
            bytes_before,
            bytes_after,
            live_entries: live,
            records_dropped: records_before.saturating_sub(live),
        })
    }

    /// Visits every live entry in first-seen order.
    pub fn for_each(&self, mut f: impl FnMut(u8, &[u8], &[u8])) {
        let inner = self.lock();
        for entry in inner.index.entries() {
            f(entry.kind, &entry.key, &entry.value);
        }
    }

    /// Value for `(kind, key)`, if live.
    pub fn get(&self, kind: u8, key: &[u8]) -> Option<Vec<u8>> {
        self.lock().index.get(kind, key).map(<[u8]>::to_vec)
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            live_entries: inner.index.len() as u64,
            loaded_records: inner.loaded_records,
            torn_bytes_discarded: inner.torn_bytes_discarded,
            appended_records: inner.writer.appends(),
            append_errors: inner.append_errors,
            compactions: inner.compactions,
            file_bytes: inner.writer.len(),
        }
    }

    /// CRC32 digest of the live index: per entry,
    /// `crc32(kind ‖ key_len_le ‖ key ‖ value)`, folded with XOR so the
    /// result is independent of insertion order — a primary and a standby
    /// that hold the same live entries produce the same digest no matter
    /// how replication interleaved the appends. This is the anti-entropy
    /// check: a standby proves it converged by matching its primary's
    /// digest instead of inferring convergence from applied counts.
    pub fn digest(&self) -> u32 {
        let inner = self.lock();
        let mut acc: u32 = 0;
        let mut buf = Vec::new();
        for entry in inner.index.entries() {
            buf.clear();
            buf.push(entry.kind);
            buf.extend_from_slice(&(entry.key.len() as u64).to_le_bytes());
            buf.extend_from_slice(&entry.key);
            buf.extend_from_slice(&entry.value);
            acc ^= format::crc32(&buf);
        }
        acc
    }

    /// Registers the store's series on an observability registry.
    /// Monotonic counters (`store_appended_records`, `store_compactions`,
    /// `store_append_errors`, `store_loaded_records`,
    /// `store_torn_bytes_discarded`) become polled counters with windowed
    /// deltas; `store_file_bytes` and `store_live_entries` can shrink on
    /// compaction, so they register as gauges.
    pub fn register_observability(self: &Arc<Self>, registry: &gbd_obs::Registry) {
        type StatReader = fn(&StoreStats) -> u64;
        let counter_series: [(&str, StatReader); 5] = [
            ("store_appended_records", |s| s.appended_records),
            ("store_compactions", |s| s.compactions),
            ("store_append_errors", |s| s.append_errors),
            ("store_loaded_records", |s| s.loaded_records),
            ("store_torn_bytes_discarded", |s| s.torn_bytes_discarded),
        ];
        for (name, read) in counter_series {
            let store = Arc::clone(self);
            registry.polled_counter(name, move || read(&store.stats()));
        }
        let file_bytes = Arc::clone(self);
        registry.gauge("store_file_bytes", move || {
            file_bytes.stats().file_bytes as f64
        });
        let live = Arc::clone(self);
        registry.gauge("store_live_entries", move || {
            live.stats().live_entries as f64
        });
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store mutex means a panic mid-append; the on-disk
        // log is still a valid prefix, so continuing is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

fn lock_tee(tee: &Mutex<Option<Tee>>) -> std::sync::MutexGuard<'_, Option<Tee>> {
    match tee.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gbd-store-lib-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn open_append_reopen_round_trips() {
        let path = temp_path("roundtrip.gbdstore");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, b"tag-v1").unwrap();
        store.append(1, b"k1", b"v1").unwrap();
        store.append(2, b"k2", b"v2").unwrap();
        store.sync().unwrap();
        let s = store.stats();
        assert_eq!(s.live_entries, 2);
        assert_eq!(s.appended_records, 2);
        assert_eq!(s.loaded_records, 0);
        drop(store);

        let store = Store::open(&path, b"tag-v1").unwrap();
        let s = store.stats();
        assert_eq!(s.live_entries, 2);
        assert_eq!(s.loaded_records, 2);
        assert_eq!(s.torn_bytes_discarded, 0);
        assert_eq!(store.get(1, b"k1"), Some(b"v1".to_vec()));
        assert_eq!(store.get(2, b"k2"), Some(b"v2".to_vec()));
        let mut seen = Vec::new();
        store.for_each(|kind, key, value| {
            seen.push((kind, key.to_vec(), value.to_vec()));
        });
        assert_eq!(seen.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let path_a = temp_path("digest-a.gbdstore");
        let path_b = temp_path("digest-b.gbdstore");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let a = Store::open(&path_a, b"t").unwrap();
        let b = Store::open(&path_b, b"t").unwrap();
        assert_eq!(a.digest(), 0, "empty stores digest to 0");
        // Same live entries, opposite append order: digests match — the
        // property a standby needs, since replication can interleave.
        a.append(1, b"k1", b"v1").unwrap();
        a.append(2, b"k2", b"v2").unwrap();
        b.append(2, b"k2", b"v2").unwrap();
        b.append(1, b"k1", b"v1").unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), 0);
        // Last-wins overwrite changes the digest; converging the other
        // store brings them back in step.
        a.append(1, b"k1", b"v9").unwrap();
        assert_ne!(a.digest(), b.digest());
        b.append(1, b"k1", b"v9").unwrap();
        assert_eq!(a.digest(), b.digest());
        // Kind and key-length are part of the per-entry record: moving a
        // byte between key and value, or between kinds, changes the digest.
        let before = a.digest();
        a.append(1, b"k1x", b"").unwrap();
        assert_ne!(a.digest(), before);
        // The digest survives compaction and reopen (it hashes live
        // content, not log layout).
        let pre = a.digest();
        a.compact().unwrap();
        assert_eq!(a.digest(), pre);
        drop(a);
        let a = Store::open(&path_a, b"t").unwrap();
        assert_eq!(a.digest(), pre);
        std::fs::remove_file(&path_a).unwrap();
        std::fs::remove_file(&path_b).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_and_counts_it() {
        let path = temp_path("torn.gbdstore");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, b"t").unwrap();
        store.append(1, b"a", b"1").unwrap();
        store.sync().unwrap();
        drop(store);
        let valid_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&format::encode_frame(1, b"b", b"2")[..6]);
        std::fs::write(&path, &bytes).unwrap();

        let store = Store::open(&path, b"t").unwrap();
        let s = store.stats();
        assert_eq!(s.live_entries, 1);
        assert_eq!(s.torn_bytes_discarded, 6);
        assert_eq!(s.file_bytes, valid_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid_len);
        // The truncated log accepts new appends and survives reopen.
        store.append(1, b"b", b"2").unwrap();
        store.sync().unwrap();
        drop(store);
        let store = Store::open(&path, b"t").unwrap();
        assert_eq!(store.stats().live_entries, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn identity_and_schema_mismatch_refuse_to_open() {
        let path = temp_path("identity.gbdstore");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, b"tag-a").unwrap();
        store.append(1, b"k", b"v").unwrap();
        drop(store);
        assert!(matches!(
            Store::open(&path, b"tag-b"),
            Err(StoreError::IdentityMismatch { .. })
        ));
        // Different schema version in the header refuses as well.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 9;
        let crc = format::crc32(&bytes[..8 + 4 + 4 + 5]);
        let crc_at = 8 + 4 + 4 + 5;
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Store::open(&path, b"tag-a"),
            Err(StoreError::SchemaMismatch { found: 9, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_drops_duplicates_and_preserves_values() {
        let path = temp_path("compact.gbdstore");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, b"t").unwrap();
        for _ in 0..5 {
            store.append(1, b"dup", b"value").unwrap();
        }
        store.append(2, b"other", b"x").unwrap();
        let before = store.stats().file_bytes;
        let report = store.compact().unwrap();
        assert_eq!(report.bytes_before, before);
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(report.live_entries, 2);
        assert_eq!(report.records_dropped, 4);
        assert_eq!(store.stats().compactions, 1);
        // Post-compaction appends land after the snapshot.
        store.append(3, b"late", b"y").unwrap();
        store.sync().unwrap();
        drop(store);
        let store = Store::open(&path, b"t").unwrap();
        assert_eq!(store.stats().live_entries, 3);
        assert_eq!(store.get(1, b"dup"), Some(b"value".to_vec()));
        assert_eq!(store.get(3, b"late"), Some(b"y".to_vec()));
        std::fs::remove_file(&path).unwrap();
    }

    /// A mix of kinds, sizes and a repeated key (last wins), as one eval's
    /// spills look.
    const GROUP: [(u8, &[u8], &[u8]); 5] = [
        (1, b"geometry", b"stage inputs"),
        (2, b"stage-a", b"dist"),
        (2, b"stage-b", b""),
        (2, b"stage-a", b"dist again"),
        (3, b"result", b"a longer output value than the rest"),
    ];

    #[test]
    fn append_many_matches_appending_one_at_a_time() {
        type Seen = Arc<Mutex<Vec<(u8, Vec<u8>, Vec<u8>)>>>;
        let open_with_tee = |name: &str| -> (Store, Seen, PathBuf) {
            let path = temp_path(name);
            let _ = std::fs::remove_file(&path);
            let store = Store::open(&path, b"t").unwrap();
            let seen: Seen = Arc::default();
            let sink = Arc::clone(&seen);
            store.set_tee(move |kind, key, value| {
                sink.lock()
                    .unwrap()
                    .push((kind, key.to_vec(), value.to_vec()));
            });
            (store, seen, path)
        };
        let (single, single_tee, single_path) = open_with_tee("single.gbdstore");
        let (grouped, grouped_tee, grouped_path) = open_with_tee("grouped.gbdstore");
        for &(kind, key, value) in &GROUP {
            single.append(kind, key, value).unwrap();
        }
        grouped.append_many(&GROUP).unwrap();
        // An empty group writes nothing and calls no tee.
        grouped.append_many(&[]).unwrap();

        assert_eq!(single.stats(), grouped.stats());
        assert_eq!(grouped.stats().appended_records, GROUP.len() as u64);
        assert_eq!(single.digest(), grouped.digest());
        assert_eq!(*single_tee.lock().unwrap(), *grouped_tee.lock().unwrap());
        assert_eq!(grouped_tee.lock().unwrap().len(), GROUP.len());
        drop((single, grouped));
        assert_eq!(
            std::fs::read(&single_path).unwrap(),
            std::fs::read(&grouped_path).unwrap()
        );
        let recovered = reader::recover(&grouped_path).unwrap();
        assert_eq!(
            recovered.records,
            reader::recover(&single_path).unwrap().records
        );
        assert_eq!(recovered.records.len(), GROUP.len());
        assert_eq!(recovered.torn_bytes, 0);
        let reopened = Store::open(&grouped_path, b"t").unwrap();
        assert_eq!(reopened.get(2, b"stage-a"), Some(b"dist again".to_vec()));
        assert_eq!(reopened.stats().live_entries, 4);
        std::fs::remove_file(&single_path).unwrap();
        std::fs::remove_file(&grouped_path).unwrap();
    }

    /// With the crash hook armed at `N`, a child process appends one
    /// record, then the rest of [`GROUP`] as one group, and aborts; the
    /// log must hold exactly `N` whole frames and half of frame `N`, also
    /// when `N` falls inside the group.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_abort_inside_a_group_leaves_whole_frames_and_half_a_frame() {
        const CHILD: &str = "GBD_STORE_TEST_CHAOS_CHILD";
        if let Ok(path) = std::env::var(CHILD) {
            let store = Store::open(&path, b"t").unwrap();
            let (first, rest) = GROUP.split_first().unwrap();
            store.append(first.0, first.1, first.2).unwrap();
            store.append_many(rest).unwrap();
            return;
        }
        let exe = std::env::current_exe().unwrap();
        for n in [0, 1, 3] {
            let path = temp_path(&format!("chaos-{n}.gbdstore"));
            let _ = std::fs::remove_file(&path);
            let status = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "tests::chaos_abort_inside_a_group_leaves_whole_frames_and_half_a_frame",
                    "--test-threads=1",
                ])
                .env(CHILD, &path)
                .env("GBD_STORE_CHAOS_ABORT_AFTER", n.to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .unwrap();
            assert!(!status.success(), "N={n}: the armed child survived");
            let recovered = reader::recover(&path).unwrap();
            let whole: Vec<_> = GROUP[..n]
                .iter()
                .map(|&(kind, key, value)| format::Record {
                    kind,
                    key: key.to_vec(),
                    value: value.to_vec(),
                })
                .collect();
            assert_eq!(recovered.records, whole, "N={n}");
            let (kind, key, value) = GROUP[n];
            assert_eq!(
                recovered.torn_bytes,
                (format::encode_frame(kind, key, value).len() / 2) as u64,
                "N={n}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn inspect_reports_without_mutating() {
        let path = temp_path("inspect.gbdstore");
        let _ = std::fs::remove_file(&path);
        let store = Store::open(&path, b"t").unwrap();
        store.append(1, b"a", b"1").unwrap();
        store.append(1, b"a", b"2").unwrap();
        store.sync().unwrap();
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        let clean_len = bytes.len() as u64;
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        let report = Store::inspect(&path).unwrap();
        assert_eq!(report.tag, b"t");
        assert_eq!(report.records, 2);
        assert_eq!(report.live_entries, 1);
        assert_eq!(report.valid_bytes, clean_len);
        assert_eq!(report.torn_bytes, 3);
        // Inspect must not truncate.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len + 3);
        std::fs::remove_file(&path).unwrap();
    }
}
