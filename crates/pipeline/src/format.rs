//! The v1 segmented binary store format — framing, checksums, writer and
//! reader.
//!
//! A v1 store is an append-only sequence of checksummed blocks:
//!
//! ```text
//! "HVSTORE1"                                  8-byte magic
//! [len u32][header JSON][crc32]               seed / scale / universe
//! 0x01 [snap u8][payload_len u64][payload][crc32]   one segment per snapshot
//! 0x02 [payload_len u64][metrics JSON][crc32]       optional
//! 0x03 [payload_len u64][quarantine JSON][crc32]    optional
//! 0xFF [segments u32][records u64][crc32]           trailer
//! ```
//!
//! A segment's payload is `[count u32]` followed by `count` length-prefixed
//! [`DomainYearRecord`] JSON frames and one length-prefixed footer frame
//! carrying the pre-folded [`SegmentSummary`] — so `hva store inspect` and
//! `/v1/store/summary` can report per-snapshot statistics without decoding
//! a single record.
//!
//! A segment's payload optionally ends with one more length-prefixed
//! frame carrying the snapshot's [`QuarantineEntry`] list — quarantine
//! travels *with* its segment, so a crash-and-resume never loses the
//! audit trail of a completed snapshot. Stores written before this frame
//! existed (no trailing frame, or a standalone `0x03` block) keep
//! loading unchanged.
//!
//! Integrity: every byte after the magic is covered by exactly one CRC-32
//! (the length prefixes are inside their block's checksum), and the
//! trailer makes truncation detectable. Any single-byte corruption
//! therefore surfaces as a structured [`HvError::StoreCorrupt`] naming the
//! segment and byte offset — never a panic, never silently wrong numbers.
//! [`read_v1`] with [`LoadOptions::allow_partial`] instead skips corrupt
//! segments (resynchronizing via the framed `payload_len`) and reports
//! what was dropped.
//!
//! Durability: the streaming writer ([`StoreWriter::create`] /
//! [`StoreWriter::resume`]) fsyncs the header and every segment boundary,
//! so a crash at *any* point leaves a valid prefix on disk — magic +
//! header + N complete CRC'd segments, no trailer. [`scan_prefix`]
//! validates such a prefix and [`StoreWriter::resume`] truncates the torn
//! tail and appends from there. One-shot writers
//! ([`ResultStore::save_v1`](crate::store::ResultStore::save_v1)) instead
//! write a temp sibling, fsync it, rename it into place, and fsync the
//! parent directory, so readers never observe a torn store.

use crate::metrics::ScanMetrics;
use crate::outcome::QuarantineEntry;
use crate::store::{DomainYearRecord, ResultStore};
use hv_core::HvError;
use hv_corpus::Snapshot;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic of the v1 binary format. The first byte can never be `{`,
/// so [`ResultStore::load`] can sniff v0 JSON vs v1 binary.
pub const MAGIC: [u8; 8] = *b"HVSTORE1";

const TAG_SEGMENT: u8 = 0x01;
const TAG_METRICS: u8 = 0x02;
const TAG_QUARANTINE: u8 = 0x03;
const TAG_TRAILER: u8 = 0xFF;

/// Upper bound accepted for any length prefix: a corrupted length field
/// must not trigger a multi-gigabyte allocation before the CRC catches it.
const MAX_FRAME: u64 = 1 << 32;

// --- CRC-32 (IEEE 802.3 polynomial, table-driven) -----------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental CRC-32 (IEEE). `Crc32::new().update(a).update(b).finish()`
/// equals `crc32(a ++ b)`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub fn update(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = CRC_TABLE[((self.0 ^ b as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
        self
    }

    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

// --- Per-segment summaries ----------------------------------------------

/// Pre-folded per-snapshot statistics, written into every segment footer
/// at scan time so inspection never has to decode records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentSummary {
    pub snapshot: Snapshot,
    /// Records in the segment.
    pub records: u32,
    /// Records with at least one analyzed page.
    pub domains_analyzed: u32,
    /// Records with at least one violation kind.
    pub domains_violating: u32,
    pub pages_found: u64,
    pub pages_analyzed: u64,
    pub pages_quarantined: u64,
}

impl SegmentSummary {
    /// Fold a snapshot's records into its summary — the single source of
    /// truth shared by the writer (footers), the loader (verification),
    /// and v0/in-memory stores (derived summaries).
    pub fn from_records<'a>(
        snapshot: Snapshot,
        records: impl IntoIterator<Item = &'a DomainYearRecord>,
    ) -> Self {
        let mut s = SegmentSummary {
            snapshot,
            records: 0,
            domains_analyzed: 0,
            domains_violating: 0,
            pages_found: 0,
            pages_analyzed: 0,
            pages_quarantined: 0,
        };
        for r in records {
            s.records += 1;
            s.domains_analyzed += u32::from(r.analyzed());
            s.domains_violating += u32::from(r.violating());
            s.pages_found += r.pages_found as u64;
            s.pages_analyzed += r.pages_analyzed as u64;
            s.pages_quarantined += r.pages_quarantined as u64;
        }
        s
    }

    /// Derive the per-snapshot summaries of an in-memory store (used for
    /// v0 loads and freshly scanned stores, where no footers exist).
    pub fn derive(store: &ResultStore) -> Vec<SegmentSummary> {
        Snapshot::ALL
            .iter()
            .map(|&snap| SegmentSummary::from_records(snap, store.by_snapshot(snap)))
            .filter(|s| s.records > 0)
            .collect()
    }
}

/// The header frame right after the magic: scan provenance. Public so
/// resume callers can report what an existing store was written with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreHeader {
    pub seed: u64,
    pub scale: f64,
    pub universe: usize,
}

// --- Sinks ----------------------------------------------------------------

/// A writer the store can ask to make its bytes durable. `sync` must not
/// return until everything written so far survives a crash of the process
/// *and* the machine (an fsync for files; a no-op for memory sinks).
pub trait StoreSink: Write {
    fn sync(&mut self) -> io::Result<()>;
}

/// Memory sink for tests and byte-level tooling; durability is trivial.
impl StoreSink for Vec<u8> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Mutable borrows delegate, so a caller can keep the underlying sink
/// (and inspect its bytes) after the writer is dropped mid-failure.
impl<S: StoreSink> StoreSink for &mut S {
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// Name of the environment variable carrying the crash fuse: when set to
/// an integer N, a [`FileSink`] opened by [`StoreWriter::create`] /
/// [`StoreWriter::resume`] writes until the file holds exactly N bytes,
/// then SIGKILLs its own process. Exists solely so the crash-recovery
/// tests and CI job can kill `hva scan` at byte-deterministic points.
pub const CRASH_AFTER_ENV: &str = "HV_STORE_CRASH_AFTER";

/// Buffered file sink that tracks its absolute write position and
/// optionally carries the [`CRASH_AFTER_ENV`] crash fuse.
pub struct FileSink {
    out: BufWriter<File>,
    /// Absolute file position — bytes 0..written are on their way to disk.
    written: u64,
    /// Kill the process once the file holds exactly this many bytes.
    crash_after: Option<u64>,
}

impl FileSink {
    /// Create (truncate) `path`. No crash fuse: one-shot writers go
    /// through temp + rename and must not be fused mid-copy.
    pub fn create(path: &Path) -> io::Result<FileSink> {
        Ok(FileSink { out: BufWriter::new(File::create(path)?), written: 0, crash_after: None })
    }

    /// Wrap an already-positioned file (used by resume, which appends at
    /// `written`).
    fn at(file: File, written: u64) -> FileSink {
        FileSink { out: BufWriter::new(file), written, crash_after: None }
    }

    /// Arm the crash fuse from [`CRASH_AFTER_ENV`], if set.
    fn armed(mut self) -> FileSink {
        self.crash_after = std::env::var(CRASH_AFTER_ENV).ok().and_then(|v| v.parse().ok());
        self
    }
}

/// Die the way a power cut does: no unwinding, no buffer flushes beyond
/// what already reached the OS, no atexit handlers.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    // If no `kill` binary exists, abort still dies without cleanup.
    std::process::abort();
}

impl Write for FileSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(fuse) = self.crash_after {
            if self.written + buf.len() as u64 >= fuse {
                // Top the file up to exactly `fuse` bytes. The flush only
                // moves them to the OS page cache — which survives SIGKILL,
                // exactly like a real crash losing userspace buffers.
                let allowed = fuse.saturating_sub(self.written) as usize;
                let _ = self.out.write_all(&buf[..allowed]);
                let _ = self.out.flush();
                kill_self();
            }
        }
        let n = self.out.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl StoreSink for FileSink {
    fn sync(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_data()
    }
}

/// Deterministic fault injector: forwards writes until `budget` bytes
/// have passed, then fails every further write. Sweeping `budget` across
/// a store's full length exercises an I/O failure at every byte boundary.
pub struct FailingWriter<W> {
    inner: W,
    budget: usize,
}

impl<W> FailingWriter<W> {
    pub fn new(inner: W, budget: usize) -> Self {
        FailingWriter { inner, budget }
    }

    /// The wrapped sink (holding exactly the bytes written before the
    /// failure).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::other("injected write failure"));
        }
        let n = self.budget.min(buf.len());
        self.inner.write_all(&buf[..n])?;
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: StoreSink> StoreSink for FailingWriter<W> {
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

// --- Writer --------------------------------------------------------------

/// Streaming v1 writer: segments are written (and checksummed, and
/// summarized) as they complete, so a scan never has to hold more than one
/// snapshot's records in memory.
///
/// Two durability modes. [`StoreWriter::create`] / [`StoreWriter::resume`]
/// write in place and fsync the header and every segment boundary, so a
/// crash leaves a valid resumable prefix. [`StoreWriter::new`] (arbitrary
/// sinks, including the temp files behind
/// [`ResultStore::save_v1`](crate::store::ResultStore::save_v1)) skips the
/// per-segment fsyncs and only syncs in [`StoreWriter::finish`].
pub struct StoreWriter<W: StoreSink> {
    out: W,
    path: std::path::PathBuf,
    segments: Vec<SegmentSummary>,
    total_records: u64,
    last_snapshot: Option<Snapshot>,
    /// fsync after the header and each segment (crash-safe streaming
    /// mode); one-shot writers leave it off and sync once in `finish`.
    sync_segments: bool,
}

/// What [`StoreWriter::resume`] found at the target path.
pub enum Resumed {
    /// The store is already complete (valid through its trailer); there
    /// is nothing to append.
    Complete { segments: Vec<SegmentSummary> },
    /// A writer positioned after the last intact segment. `truncated`
    /// counts the torn-tail bytes that were cut (0 when the prefix ended
    /// cleanly or the file was new).
    Partial { writer: StoreWriter<FileSink>, truncated: u64 },
}

impl StoreWriter<FileSink> {
    /// Create a v1 store at `path` and durably write the magic + header.
    ///
    /// Refuses to clobber an existing non-empty file — callers must opt
    /// in via [`StoreWriter::resume`] or [`StoreWriter::create_overwrite`].
    pub fn create(path: &Path, seed: u64, scale: f64, universe: usize) -> Result<Self, HvError> {
        if std::fs::metadata(path).is_ok_and(|m| m.len() > 0) {
            return Err(HvError::store_exists(path));
        }
        Self::create_overwrite(path, seed, scale, universe)
    }

    /// Create a v1 store at `path`, replacing whatever is there.
    pub fn create_overwrite(
        path: &Path,
        seed: u64,
        scale: f64,
        universe: usize,
    ) -> Result<Self, HvError> {
        let sink = FileSink::create(path).map_err(|e| HvError::store_io(path, e))?.armed();
        let mut w = StoreWriter::new(sink, path, seed, scale, universe)?;
        w.sync_segments = true;
        w.out.sync().map_err(|e| HvError::store_io(path, e))?;
        Ok(w)
    }

    /// Resume a crash-interrupted store at `path`.
    ///
    /// Validates the on-disk prefix (magic + header + intact segments),
    /// refuses a header that does not match the requested provenance
    /// (resuming with a different seed/scale/universe would silently mix
    /// corpora), truncates any torn tail, and returns a writer positioned
    /// to append — or [`Resumed::Complete`] when the store already parses
    /// end to end. A missing or empty file degenerates to a fresh create.
    pub fn resume(path: &Path, seed: u64, scale: f64, universe: usize) -> Result<Resumed, HvError> {
        let mut file = match std::fs::OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let writer = Self::create_overwrite(path, seed, scale, universe)?;
                return Ok(Resumed::Partial { writer, truncated: 0 });
            }
            Err(e) => return Err(HvError::store_io(path, e)),
        };
        let mut data = Vec::new();
        file.read_to_end(&mut data).map_err(|e| HvError::store_io(path, e))?;

        let prefix = scan_prefix(&data, path)?;
        if let Some(h) = &prefix.header {
            let expected = StoreHeader { seed, scale, universe };
            if *h != expected {
                return Err(HvError::store(
                    path,
                    format!(
                        "refusing to resume: store was written with seed {} / scale {} / \
                         universe {}, but this scan requests seed {} / scale {} / universe {}",
                        h.seed, h.scale, h.universe, seed, scale, universe
                    ),
                ));
            }
        }
        if prefix.complete {
            return Ok(Resumed::Complete { segments: prefix.segments });
        }
        if prefix.header.is_none() {
            // Nothing durable yet (torn inside magic/header): start over.
            drop(file);
            let truncated = data.len() as u64;
            let writer = Self::create_overwrite(path, seed, scale, universe)?;
            return Ok(Resumed::Partial { writer, truncated });
        }

        let truncated = data.len() as u64 - prefix.valid_end;
        file.set_len(prefix.valid_end).map_err(|e| HvError::store_io(path, e))?;
        file.seek(SeekFrom::Start(prefix.valid_end)).map_err(|e| HvError::store_io(path, e))?;
        // Make the truncation itself durable before appending past it.
        file.sync_data().map_err(|e| HvError::store_io(path, e))?;

        let total_records = prefix.segments.iter().map(|s| u64::from(s.records)).sum();
        let writer = StoreWriter {
            out: FileSink::at(file, prefix.valid_end).armed(),
            path: path.to_path_buf(),
            last_snapshot: prefix.segments.last().map(|s| s.snapshot),
            segments: prefix.segments,
            total_records,
            sync_segments: true,
        };
        Ok(Resumed::Partial { writer, truncated })
    }
}

impl<W: StoreSink> StoreWriter<W> {
    /// Write the magic + header to an arbitrary sink (`path` only labels
    /// errors).
    pub fn new(
        mut out: W,
        path: &Path,
        seed: u64,
        scale: f64,
        universe: usize,
    ) -> Result<Self, HvError> {
        let header = serde_json::to_string(&StoreHeader { seed, scale, universe })
            .map(String::into_bytes)
            .map_err(|e| HvError::store(path, e.to_string()))?;
        let mut frame = Vec::with_capacity(header.len() + 16);
        frame.extend_from_slice(&(header.len() as u32).to_le_bytes());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(&crc32(&frame).to_le_bytes());
        out.write_all(&MAGIC)
            .and_then(|()| out.write_all(&frame))
            .map_err(|e| HvError::store_io(path, e))?;
        Ok(StoreWriter {
            out,
            path: path.to_path_buf(),
            segments: Vec::new(),
            total_records: 0,
            last_snapshot: None,
            sync_segments: false,
        })
    }

    /// Footer summaries of the segments written (or recovered) so far, in
    /// file order — after [`StoreWriter::resume`] this is the completed
    /// snapshot set a scan can skip.
    pub fn completed(&self) -> &[SegmentSummary] {
        &self.segments
    }

    fn io(&self, e: std::io::Error) -> HvError {
        HvError::store_io(&self.path, e)
    }

    /// Write one block: `tag [extra] [payload_len u64] payload crc32`,
    /// with the CRC covering everything from the tag on.
    fn write_block(&mut self, tag: u8, extra: &[u8], payload: &[u8]) -> Result<(), HvError> {
        let mut head = Vec::with_capacity(extra.len() + 9);
        head.push(tag);
        head.extend_from_slice(extra);
        head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let crc = Crc32::new().update(&head).update(payload).finish();
        self.out
            .write_all(&head)
            .and_then(|()| self.out.write_all(payload))
            .and_then(|()| self.out.write_all(&crc.to_le_bytes()))
            .map_err(|e| self.io(e))
    }

    /// Write one snapshot's records as a segment, with the snapshot's
    /// quarantine entries embedded after the footer (omitted when empty,
    /// so quarantine-free stores are byte-identical to the original v1
    /// layout). Segments must arrive in ascending snapshot order; records
    /// are sorted by domain id so the on-disk order is the store's
    /// canonical order.
    pub fn write_segment(
        &mut self,
        snapshot: Snapshot,
        records: &[DomainYearRecord],
        quarantine: &[QuarantineEntry],
    ) -> Result<SegmentSummary, HvError> {
        if self.last_snapshot.is_some_and(|last| snapshot <= last) {
            return Err(HvError::store(
                &self.path,
                format!("segments must be written in ascending snapshot order (got {snapshot} after {})",
                    self.last_snapshot.unwrap()),
            ));
        }
        self.last_snapshot = Some(snapshot);

        let mut sorted: Vec<&DomainYearRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.domain_id);
        let summary = SegmentSummary::from_records(snapshot, sorted.iter().copied());

        let mut payload = Vec::new();
        payload.extend_from_slice(&(sorted.len() as u32).to_le_bytes());
        for r in &sorted {
            let json = serde_json::to_string(r)
                .map(String::into_bytes)
                .map_err(|e| HvError::store(&self.path, e.to_string()))?;
            payload.extend_from_slice(&(json.len() as u32).to_le_bytes());
            payload.extend_from_slice(&json);
        }
        let footer = serde_json::to_string(&summary)
            .map(String::into_bytes)
            .map_err(|e| HvError::store(&self.path, e.to_string()))?;
        payload.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        payload.extend_from_slice(&footer);
        if !quarantine.is_empty() {
            let json = serde_json::to_string(quarantine)
                .map(String::into_bytes)
                .map_err(|e| HvError::store(&self.path, e.to_string()))?;
            payload.extend_from_slice(&(json.len() as u32).to_le_bytes());
            payload.extend_from_slice(&json);
        }

        self.write_block(TAG_SEGMENT, &[snapshot.0], &payload)?;
        if self.sync_segments {
            self.out.sync().map_err(|e| self.io(e))?;
        }
        self.total_records += sorted.len() as u64;
        self.segments.push(summary);
        Ok(summary)
    }

    /// Embed the scan's observability metrics.
    pub fn write_metrics(&mut self, metrics: &ScanMetrics) -> Result<(), HvError> {
        let json = serde_json::to_string(metrics)
            .map(String::into_bytes)
            .map_err(|e| HvError::store(&self.path, e.to_string()))?;
        self.write_block(TAG_METRICS, &[], &json)
    }

    /// Embed the quarantine audit entries (canonical order expected).
    pub fn write_quarantine(&mut self, entries: &[QuarantineEntry]) -> Result<(), HvError> {
        let json = serde_json::to_string(entries)
            .map(String::into_bytes)
            .map_err(|e| HvError::store(&self.path, e.to_string()))?;
        self.write_block(TAG_QUARANTINE, &[], &json)
    }

    /// Write the trailer and make the store durable. Returns the
    /// per-segment summaries.
    pub fn finish(mut self) -> Result<Vec<SegmentSummary>, HvError> {
        let mut body = Vec::with_capacity(13);
        body.push(TAG_TRAILER);
        body.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        body.extend_from_slice(&self.total_records.to_le_bytes());
        let crc = crc32(&body);
        self.out
            .write_all(&body)
            .and_then(|()| self.out.write_all(&crc.to_le_bytes()))
            .and_then(|()| self.out.sync())
            .map_err(|e| HvError::store_io(&self.path, e))?;
        Ok(std::mem::take(&mut self.segments))
    }
}

// --- Reader --------------------------------------------------------------

/// How a load behaves on corruption.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Keep intact segments and report corrupt ones as
    /// [`DroppedSegment`]s instead of failing the whole load. The header
    /// must still verify — without it there is no store to speak of.
    pub allow_partial: bool,
}

/// One block dropped by a partial load.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DroppedSegment {
    /// Segment ordinal (0-based) for segment blocks; metrics/quarantine
    /// blocks and unrecoverable tails report the next ordinal.
    pub segment: u32,
    /// Byte offset of the dropped block's tag.
    pub offset: u64,
    pub detail: String,
}

/// The outcome of reading a v1 store.
pub struct V1Contents {
    pub seed: u64,
    pub scale: f64,
    pub universe: usize,
    pub records: Vec<DomainYearRecord>,
    pub metrics: Option<ScanMetrics>,
    pub quarantine: Vec<QuarantineEntry>,
    /// Footer summaries of the intact segments, in file order.
    pub segments: Vec<SegmentSummary>,
    /// Blocks a partial load had to drop (always empty on strict loads).
    pub dropped: Vec<DroppedSegment>,
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn corrupt(&self, segment: Option<u32>, offset: usize, detail: impl Into<String>) -> HvError {
        HvError::store_corrupt(self.path, segment, offset as u64, detail)
    }

    fn take(&mut self, n: usize, what: &str, segment: Option<u32>) -> Result<&'a [u8], HvError> {
        let start = self.pos;
        let end = start
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| self.corrupt(segment, start, format!("truncated {what}")))?;
        self.pos = end;
        Ok(&self.data[start..end])
    }

    fn u32_le(&mut self, what: &str, segment: Option<u32>) -> Result<u32, HvError> {
        Ok(u32::from_le_bytes(self.take(4, what, segment)?.try_into().unwrap()))
    }

    fn u64_le(&mut self, what: &str, segment: Option<u32>) -> Result<u64, HvError> {
        Ok(u64::from_le_bytes(self.take(8, what, segment)?.try_into().unwrap()))
    }
}

/// Parse a v1 store image. Strict mode returns the first integrity
/// failure as [`HvError::StoreCorrupt`]; with
/// [`LoadOptions::allow_partial`] corrupt segments are skipped (using the
/// framed length to resynchronize) and reported in
/// [`V1Contents::dropped`].
pub fn read_v1(data: &[u8], path: &Path, opts: LoadOptions) -> Result<V1Contents, HvError> {
    let mut cur = Cursor { data, pos: 0, path };
    if cur.take(MAGIC.len(), "magic", None)? != MAGIC {
        return Err(cur.corrupt(None, 0, "bad magic (not a v1 store)"));
    }

    // Header: the provenance triple. Non-negotiable even for partial
    // loads — without it there is no store identity.
    let header_start = cur.pos;
    let header_len = cur.u32_le("header length", None)?;
    if u64::from(header_len) > MAX_FRAME {
        return Err(cur.corrupt(None, header_start, "implausible header length"));
    }
    let header_json = cur.take(header_len as usize, "header", None)?;
    let stored_crc = cur.u32_le("header checksum", None)?;
    let actual = Crc32::new().update(&header_len.to_le_bytes()).update(header_json).finish();
    if stored_crc != actual {
        return Err(cur.corrupt(None, header_start, "header checksum mismatch"));
    }
    let header: StoreHeader = serde_json::from_slice(header_json)
        .map_err(|e| cur.corrupt(None, header_start, format!("header does not parse: {e}")))?;

    let mut out = V1Contents {
        seed: header.seed,
        scale: header.scale,
        universe: header.universe,
        records: Vec::new(),
        metrics: None,
        quarantine: Vec::new(),
        segments: Vec::new(),
        dropped: Vec::new(),
    };

    let mut segment_ordinal: u32 = 0;
    let mut saw_trailer = false;
    while cur.pos < data.len() {
        let block_start = cur.pos;
        match read_block(&mut cur, segment_ordinal, &mut out) {
            Ok(BlockOutcome::Segment) => segment_ordinal += 1,
            Ok(BlockOutcome::Other) => {}
            Ok(BlockOutcome::Trailer { segments, records }) => {
                saw_trailer = true;
                // The trailer's counts cross-check the walk — but only a
                // complete walk; a partial load with drops can't match.
                if out.dropped.is_empty()
                    && (segments != segment_ordinal || records != out.records.len() as u64)
                {
                    let e = cur.corrupt(None, block_start, "trailer counts do not match contents");
                    if !opts.allow_partial {
                        return Err(e);
                    }
                    out.dropped.push(DroppedSegment {
                        segment: segment_ordinal,
                        offset: block_start as u64,
                        detail: e.to_string(),
                    });
                }
                if cur.pos != data.len() {
                    let e = cur.corrupt(None, cur.pos, "trailing bytes after trailer");
                    if !opts.allow_partial {
                        return Err(e);
                    }
                    out.dropped.push(DroppedSegment {
                        segment: segment_ordinal,
                        offset: cur.pos as u64,
                        detail: e.to_string(),
                    });
                }
                break;
            }
            Err((recovery, e)) => {
                if !opts.allow_partial {
                    return Err(e);
                }
                out.dropped.push(DroppedSegment {
                    segment: segment_ordinal,
                    offset: block_start as u64,
                    detail: e.to_string(),
                });
                match recovery {
                    // The framing was intact (checksum or content failure
                    // inside the block): skip to the next block.
                    Recovery::Resync { next } => {
                        cur.pos = next;
                        segment_ordinal += 1;
                    }
                    // The framing itself is untrustworthy: drop the rest.
                    Recovery::Unrecoverable => {
                        return Ok(out);
                    }
                }
            }
        }
    }

    if !saw_trailer {
        let e = cur.corrupt(None, cur.pos, "missing trailer (truncated store)");
        if !opts.allow_partial {
            return Err(e);
        }
        out.dropped.push(DroppedSegment {
            segment: segment_ordinal,
            offset: cur.pos as u64,
            detail: e.to_string(),
        });
    }
    Ok(out)
}

enum BlockOutcome {
    Segment,
    Other,
    Trailer { segments: u32, records: u64 },
}

enum Recovery {
    /// Skip to this absolute offset (the byte after the block's CRC).
    Resync {
        next: usize,
    },
    Unrecoverable,
}

/// Read one block. On error, reports whether the caller can resynchronize
/// past it (framing verified in-bounds) or must give up.
fn read_block(
    cur: &mut Cursor<'_>,
    ordinal: u32,
    out: &mut V1Contents,
) -> Result<BlockOutcome, (Recovery, HvError)> {
    let block_start = cur.pos;
    let unrecoverable = |e: HvError| (Recovery::Unrecoverable, e);
    let tag = cur.take(1, "block tag", Some(ordinal)).map_err(unrecoverable)?[0];

    if tag == TAG_TRAILER {
        let body_start = block_start;
        let segments = cur.u32_le("trailer", None).map_err(unrecoverable)?;
        let records = cur.u64_le("trailer", None).map_err(unrecoverable)?;
        let stored = cur.u32_le("trailer checksum", None).map_err(unrecoverable)?;
        let actual = crc32(&cur.data[body_start..body_start + 13]);
        if stored != actual {
            return Err(unrecoverable(cur.corrupt(None, block_start, "trailer checksum mismatch")));
        }
        return Ok(BlockOutcome::Trailer { segments, records });
    }

    let seg = (tag == TAG_SEGMENT).then_some(ordinal);
    let snapshot_byte = if tag == TAG_SEGMENT {
        Some(cur.take(1, "segment snapshot", seg).map_err(unrecoverable)?[0])
    } else {
        None
    };
    if !matches!(tag, TAG_SEGMENT | TAG_METRICS | TAG_QUARANTINE) {
        return Err(unrecoverable(cur.corrupt(
            Some(ordinal),
            block_start,
            format!("unrecognized block tag 0x{tag:02x}"),
        )));
    }
    let payload_len = cur.u64_le("block length", seg).map_err(unrecoverable)?;
    if payload_len > MAX_FRAME {
        return Err(unrecoverable(cur.corrupt(seg, block_start, "implausible block length")));
    }
    let payload_start = cur.pos;
    let payload = cur.take(payload_len as usize, "block payload", seg).map_err(unrecoverable)?;
    let stored = cur.u32_le("block checksum", seg).map_err(unrecoverable)?;
    // From here on the framing is trusted: a failure can resync to `next`.
    let next = cur.pos;
    let resync = |e: HvError| (Recovery::Resync { next }, e);
    let actual =
        Crc32::new().update(&cur.data[block_start..payload_start]).update(payload).finish();
    if stored != actual {
        return Err(resync(cur.corrupt(seg, block_start, "block checksum mismatch")));
    }

    match tag {
        TAG_SEGMENT => {
            let snap = snapshot_byte.expect("segment has a snapshot byte");
            if usize::from(snap) >= Snapshot::ALL.len() {
                return Err(resync(cur.corrupt(
                    seg,
                    block_start,
                    format!("invalid snapshot index {snap}"),
                )));
            }
            let snapshot = Snapshot(snap);
            let (records, summary, quarantine) =
                parse_segment_payload(payload, cur.path, ordinal, block_start).map_err(resync)?;
            if summary.snapshot != snapshot {
                return Err(resync(cur.corrupt(seg, block_start, "footer snapshot mismatch")));
            }
            let recomputed = SegmentSummary::from_records(snapshot, &records);
            if recomputed != summary {
                return Err(resync(cur.corrupt(
                    seg,
                    block_start,
                    "footer summary does not match segment records",
                )));
            }
            if quarantine.iter().any(|q| q.snapshot != snapshot) {
                return Err(resync(cur.corrupt(
                    seg,
                    block_start,
                    "embedded quarantine entry for a different snapshot",
                )));
            }
            out.records.extend(records);
            out.quarantine.extend(quarantine);
            out.segments.push(summary);
            Ok(BlockOutcome::Segment)
        }
        TAG_METRICS => {
            let metrics: ScanMetrics = serde_json::from_slice(payload).map_err(|e| {
                resync(cur.corrupt(None, block_start, format!("metrics block does not parse: {e}")))
            })?;
            out.metrics = Some(metrics);
            Ok(BlockOutcome::Other)
        }
        TAG_QUARANTINE => {
            let entries: Vec<QuarantineEntry> = serde_json::from_slice(payload).map_err(|e| {
                resync(cur.corrupt(
                    None,
                    block_start,
                    format!("quarantine block does not parse: {e}"),
                ))
            })?;
            // Extend, don't assign: new-format stores may carry segment-
            // embedded entries, with a standalone block only for entries
            // whose snapshot has no segment.
            out.quarantine.extend(entries);
            Ok(BlockOutcome::Other)
        }
        _ => unreachable!("tag validated above"),
    }
}

/// Decode a (checksum-verified) segment payload into its records, footer,
/// and optional embedded quarantine entries.
fn parse_segment_payload(
    payload: &[u8],
    path: &Path,
    ordinal: u32,
    block_start: usize,
) -> Result<(Vec<DomainYearRecord>, SegmentSummary, Vec<QuarantineEntry>), HvError> {
    let mut cur = Cursor { data: payload, pos: 0, path };
    let seg = Some(ordinal);
    let bad = |detail: String| HvError::store_corrupt(path, seg, block_start as u64, detail);
    let count =
        cur.u32_le("record count", seg).map_err(|_| bad("truncated record count".into()))?;
    let mut records = Vec::with_capacity(count.min(1 << 20) as usize);
    for i in 0..count {
        let len =
            cur.u32_le("record length", seg).map_err(|_| bad(format!("truncated record {i}")))?;
        let json = cur
            .take(len as usize, "record", seg)
            .map_err(|_| bad(format!("truncated record {i}")))?;
        let record: DomainYearRecord = serde_json::from_slice(json)
            .map_err(|e| bad(format!("record {i} does not parse: {e}")))?;
        records.push(record);
    }
    let len = cur.u32_le("footer length", seg).map_err(|_| bad("truncated footer".into()))?;
    let json = cur.take(len as usize, "footer", seg).map_err(|_| bad("truncated footer".into()))?;
    let summary: SegmentSummary =
        serde_json::from_slice(json).map_err(|e| bad(format!("footer does not parse: {e}")))?;
    // Optional trailing frame: the snapshot's quarantine entries. Absent
    // in quarantine-free and pre-embedding stores.
    let mut quarantine = Vec::new();
    if cur.pos != payload.len() {
        let len =
            cur.u32_le("quarantine length", seg).map_err(|_| bad("truncated quarantine".into()))?;
        let json = cur
            .take(len as usize, "quarantine", seg)
            .map_err(|_| bad("truncated quarantine".into()))?;
        quarantine = serde_json::from_slice(json)
            .map_err(|e| bad(format!("embedded quarantine does not parse: {e}")))?;
        if cur.pos != payload.len() {
            return Err(bad("trailing bytes in segment payload".into()));
        }
    }
    Ok((records, summary, quarantine))
}

// --- Prefix validation (crash recovery) -----------------------------------

/// What a resume-time walk of an on-disk v1 image found: the longest
/// valid durable prefix (magic + header + intact leading segments).
#[derive(Debug)]
pub struct PrefixState {
    /// Parsed provenance, when the magic + header frame verify. `None`
    /// means nothing durable exists yet — a resume starts from scratch.
    pub header: Option<StoreHeader>,
    /// Footer summaries of the fully intact leading segments.
    pub segments: Vec<SegmentSummary>,
    /// Byte offset after each intact segment, in file order (crash tests
    /// and the chaos harness derive staged kill points from these).
    pub segment_ends: Vec<u64>,
    /// Length of the valid prefix — a resume truncates the file here.
    pub valid_end: u64,
    /// The image parses strictly end to end (trailer verified): the
    /// store is already complete.
    pub complete: bool,
}

/// Walk the durable prefix of a v1 store image.
///
/// Returns how far the image is valid: header, then consecutive segment
/// blocks that pass every integrity check (CRC, footer cross-check,
/// embedded quarantine, ascending snapshot order). The walk stops —
/// without erroring — at the first torn or non-segment byte, because
/// everything past the last intact segment (a torn segment, or a
/// metrics/quarantine/trailer tail) is rewritten by the resumed scan.
///
/// Errors only on an image that is not this format at all (≥ 8 bytes of
/// wrong magic), so a resume cannot silently destroy a foreign file.
pub fn scan_prefix(data: &[u8], path: &Path) -> Result<PrefixState, HvError> {
    let fresh = PrefixState {
        header: None,
        segments: Vec::new(),
        segment_ends: Vec::new(),
        valid_end: 0,
        complete: false,
    };
    if data.len() < MAGIC.len() {
        // A torn write inside the magic is a fresh store; anything else
        // at this path is not ours to truncate.
        return if MAGIC.starts_with(data) {
            Ok(fresh)
        } else {
            Err(HvError::store_corrupt(path, None, 0, "bad magic (not a v1 store)"))
        };
    }
    if data[..MAGIC.len()] != MAGIC {
        return Err(HvError::store_corrupt(path, None, 0, "bad magic (not a v1 store)"));
    }

    // Header frame: torn or corrupt ⇒ nothing durable was committed.
    let mut cur = Cursor { data, pos: MAGIC.len(), path };
    let header = (|| -> Result<StoreHeader, HvError> {
        let header_start = cur.pos;
        let header_len = cur.u32_le("header length", None)?;
        if u64::from(header_len) > MAX_FRAME {
            return Err(cur.corrupt(None, header_start, "implausible header length"));
        }
        let header_json = cur.take(header_len as usize, "header", None)?;
        let stored_crc = cur.u32_le("header checksum", None)?;
        let actual = Crc32::new().update(&header_len.to_le_bytes()).update(header_json).finish();
        if stored_crc != actual {
            return Err(cur.corrupt(None, header_start, "header checksum mismatch"));
        }
        serde_json::from_slice(header_json)
            .map_err(|e| cur.corrupt(None, header_start, format!("header does not parse: {e}")))
    })();
    let Ok(header) = header else {
        return Ok(fresh);
    };

    let mut state = PrefixState {
        header: Some(header),
        segments: Vec::new(),
        segment_ends: Vec::new(),
        valid_end: cur.pos as u64,
        complete: false,
    };
    let mut scratch = V1Contents {
        seed: header.seed,
        scale: header.scale,
        universe: header.universe,
        records: Vec::new(),
        metrics: None,
        quarantine: Vec::new(),
        segments: Vec::new(),
        dropped: Vec::new(),
    };
    while cur.pos < data.len() && data[cur.pos] == TAG_SEGMENT {
        let ordinal = state.segments.len() as u32;
        if read_block(&mut cur, ordinal, &mut scratch).is_err() {
            break;
        }
        let summary = *scratch.segments.last().expect("segment block pushed a summary");
        if state.segments.last().is_some_and(|prev| summary.snapshot <= prev.snapshot) {
            break;
        }
        state.segments.push(summary);
        state.segment_ends.push(cur.pos as u64);
        state.valid_end = cur.pos as u64;
    }

    // Completeness: the whole image parses strictly through its trailer.
    if read_v1(data, path, LoadOptions::default()).is_ok() {
        state.complete = true;
        state.valid_end = data.len() as u64;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental equals one-shot.
        let inc = Crc32::new().update(b"1234").update(b"56789").finish();
        assert_eq!(inc, crc32(b"123456789"));
    }

    #[test]
    fn segment_summary_folds_records() {
        let mut r = crate::store::test_record(3, 0, &[hv_core::ViolationKind::FB2]);
        r.pages_quarantined = 2;
        let clean = crate::store::test_record(4, 0, &[]);
        let s = SegmentSummary::from_records(Snapshot::ALL[0], &[r, clean]);
        assert_eq!(s.records, 2);
        assert_eq!(s.domains_analyzed, 2);
        assert_eq!(s.domains_violating, 1);
        assert_eq!(s.pages_found, 20);
        assert_eq!(s.pages_analyzed, 20);
        assert_eq!(s.pages_quarantined, 2);
    }
}
