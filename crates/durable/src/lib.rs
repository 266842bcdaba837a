//! Crash-safe durability primitives for the serving stack.
//!
//! A multi-tenant JIT server owns state that must outlive the server
//! process itself: hibernation images, write-ahead session journals, and
//! the compiled-bitstream store that makes restarts warm. This crate is
//! the single seam through which all of that state reaches disk:
//!
//! * every record is **CRC-framed** (`[len][crc32][payload]`) so a torn
//!   or bit-rotted record is detected, never served;
//! * whole-file replacement follows the classic atomic discipline —
//!   temp file → fsync → rename → parent-directory fsync — so a file is
//!   either the old version or the new one, never a mix;
//! * journal appends are fsynced before they are acknowledged, and
//!   recovery truncates any torn (unacknowledged) tail;
//! * the whole path is **fault-injectable**: [`cascade_fpga::FaultPlan`]
//!   schedules occurrence-indexed torn-write / partial-write /
//!   lost-fsync / process-crash faults, and a fired fault flips the
//!   store into a `crashed` state that refuses all further writes —
//!   modeling a process that died mid-write and must restart and
//!   recover.
//!
//! Fault injection deliberately targets only *foreground* writes (the
//! ones whose count is driven deterministically by the command stream:
//! journal appends, compactions, spills, metadata). Background cache
//! writes ([`BitstreamStore::save`]) skip the occurrence counter —
//! their timing depends on compile-pool scheduling, which would make
//! crash-point sweeps nondeterministic — and their loss is semantically
//! just a cache miss, which the read-side verification tests cover.

use cascade_fpga::{DurableFault, FaultPlan};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub mod codec;
mod store;

pub use store::BitstreamStore;

/// Bytes of frame header: `[len: u32 le][crc32: u32 le]`.
pub const FRAME_HEADER: usize = 8;

/// Why a durable write did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The store already took a crash fault; every write is refused
    /// until the process restarts and recovers.
    Crashed,
    /// A scheduled fault fired during this write. The on-disk state is
    /// left in the fault's partial condition and the store is now
    /// crashed.
    Injected(DurableFault),
    /// A real I/O error from the filesystem.
    Io(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Crashed => write!(f, "durable store crashed; restart required"),
            DurableError::Injected(fault) => write!(f, "injected durable fault: {fault:?}"),
            DurableError::Io(e) => write!(f, "durable io error: {e}"),
        }
    }
}

/// Why a durable read did not produce a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// No file at that path.
    Missing,
    /// The file exists but its framing or CRC is wrong. The caller must
    /// quarantine it — corrupt records are never served.
    Corrupt(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Missing => write!(f, "missing"),
            ReadError::Corrupt(e) => write!(f, "corrupt: {e}"),
        }
    }
}

/// Result of scanning a journal file.
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Every record whose frame verified, in append order.
    pub records: Vec<Vec<u8>>,
    /// File offset just past the last good record.
    pub clean_len: u64,
    /// Bytes after the last good record — a torn tail from a write that
    /// was never acknowledged. Zero for a cleanly closed journal.
    pub torn_bytes: u64,
}

/// CRC-32 (IEEE 802.3, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Frames one payload: `[len][crc32][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses the frame starting at `buf[at..]`. Returns `(payload, next)`
/// or a description of why the frame is bad.
fn parse_frame(buf: &[u8], at: usize) -> Result<(Vec<u8>, usize), String> {
    let rest = &buf[at..];
    if rest.len() < FRAME_HEADER {
        return Err(format!("short header: {} bytes", rest.len()));
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let body = &rest[FRAME_HEADER..];
    if body.len() < len {
        return Err(format!("short payload: {} of {len} bytes", body.len()));
    }
    let payload = &body[..len];
    let actual = crc32(payload);
    if actual != crc {
        return Err(format!(
            "crc mismatch: stored {crc:08x}, actual {actual:08x}"
        ));
    }
    Ok((payload.to_vec(), at + FRAME_HEADER + len))
}

struct FsInner {
    faults: FaultPlan,
    crashed: AtomicBool,
}

/// The durable filesystem seam. Cheap to clone; clones share the fault
/// schedule and the crashed flag.
#[derive(Clone)]
pub struct DurableFs {
    inner: Arc<FsInner>,
}

impl DurableFs {
    /// A durable filesystem consulting `faults` on every foreground
    /// write.
    pub fn new(faults: FaultPlan) -> DurableFs {
        DurableFs {
            inner: Arc::new(FsInner {
                faults,
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// Whether a durable fault has fired. Once crashed, every write is
    /// refused: the in-memory state may have diverged from disk, and the
    /// only safe continuation is restart + recover.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::Acquire)
    }

    /// Foreground durable write points consulted so far.
    pub fn write_points(&self) -> u64 {
        self.inner.faults.durable_consults()
    }

    fn crash(&self) {
        self.inner.crashed.store(true, Ordering::Release);
    }

    fn check(&self) -> Result<(), DurableError> {
        if self.crashed() {
            Err(DurableError::Crashed)
        } else {
            Ok(())
        }
    }

    fn io<T>(r: std::io::Result<T>) -> Result<T, DurableError> {
        r.map_err(|e| DurableError::Io(e.to_string()))
    }

    fn clean_replace(path: &Path, framed: &[u8]) -> Result<(), DurableError> {
        let tmp = tmp_path(path);
        {
            let mut f = Self::io(File::create(&tmp))?;
            Self::io(f.write_all(framed))?;
            Self::io(f.sync_all())?;
        }
        Self::io(std::fs::rename(&tmp, path))?;
        // Persist the rename itself. Directory fsync is best-effort on
        // platforms where directories cannot be opened.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Atomically replaces `path` with a single CRC-framed record:
    /// temp file → fsync → rename → parent-dir fsync. A reader sees the
    /// old content or the new record, never a mix. Foreground: consults
    /// the fault schedule.
    pub fn write_atomic(&self, path: &Path, payload: &[u8]) -> Result<(), DurableError> {
        self.check()?;
        let framed = frame(payload);
        match self.inner.faults.next_durable_fault() {
            None => Self::clean_replace(path, &framed),
            Some(fault) => {
                match fault {
                    DurableFault::Crash => {}
                    DurableFault::TornWrite => {
                        // Died mid-write of the temp file; the final path
                        // is untouched (rename never happened).
                        let cut = (framed.len() / 2).max(1);
                        let _ = std::fs::write(tmp_path(path), &framed[..cut]);
                    }
                    DurableFault::LostFsync => {
                        // Temp fully written but fsync failed; the
                        // discipline aborts before rename, so again the
                        // final path is untouched.
                        let _ = std::fs::write(tmp_path(path), &framed);
                    }
                    DurableFault::PartialWrite => {
                        // The anomaly the fsync-before-rename order
                        // prevents: rename committed but the payload's
                        // data blocks were lost. Modeled so recovery must
                        // prove it detects and quarantines it.
                        let cut = FRAME_HEADER + payload.len() / 2;
                        let _ = std::fs::write(path, &framed[..cut.min(framed.len() - 1)]);
                    }
                }
                self.crash();
                Err(DurableError::Injected(fault))
            }
        }
    }

    /// Atomic replace for background writes (bitstream-store saves):
    /// honors the crashed flag but does not consult the occurrence
    /// counter, keeping crash-point sweeps deterministic.
    pub fn write_atomic_bg(&self, path: &Path, payload: &[u8]) -> Result<(), DurableError> {
        self.check()?;
        Self::clean_replace(path, &frame(payload))
    }

    /// Appends one CRC-framed record to `path` (creating it if needed)
    /// and fsyncs before returning — the write-ahead rule: nothing is
    /// acknowledged until it is durable. Foreground: consults the fault
    /// schedule.
    pub fn append(&self, path: &Path, payload: &[u8]) -> Result<(), DurableError> {
        self.check()?;
        let framed = frame(payload);
        match self.inner.faults.next_durable_fault() {
            None => {
                let mut f = Self::io(OpenOptions::new().create(true).append(true).open(path))?;
                Self::io(f.write_all(&framed))?;
                Self::io(f.sync_all())?;
                Ok(())
            }
            Some(fault) => {
                match fault {
                    DurableFault::Crash => {}
                    DurableFault::LostFsync => {
                        // Bytes reached the page cache, fsync failed, the
                        // crash dropped them: nothing of this append
                        // survives.
                    }
                    DurableFault::TornWrite => {
                        let cut = (framed.len() / 2).max(1);
                        append_raw(path, &framed[..cut]);
                    }
                    DurableFault::PartialWrite => {
                        let cut = FRAME_HEADER + payload.len() / 2;
                        append_raw(path, &framed[..cut.min(framed.len() - 1)]);
                    }
                }
                self.crash();
                Err(DurableError::Injected(fault))
            }
        }
    }

    /// Removes `paths` in order (missing files are skipped), then fsyncs
    /// their parent directory — the write-ahead rule applied to deletion:
    /// a removal is acknowledged only once it is durable. Foreground:
    /// consults the fault schedule. A fault removes a prefix of `paths` —
    /// none when the process dies before the write, the first half on a
    /// torn write, all but the last on a partial one, every file on a lost
    /// fsync (the unlinks landed, their durability was never confirmed) —
    /// so callers list the newest file last.
    pub fn remove_all(&self, paths: &[PathBuf]) -> Result<(), DurableError> {
        self.check()?;
        let Some(fault) = self.inner.faults.next_durable_fault() else {
            for path in paths {
                match std::fs::remove_file(path) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                        return Err(DurableError::Io(e.to_string()));
                    }
                    _ => {}
                }
            }
            // Skipped only where directories cannot be opened, as for a
            // rename in `write_atomic`.
            if let Some(dir) = paths.first().and_then(|p| p.parent()) {
                if let Ok(d) = File::open(dir) {
                    Self::io(d.sync_all())?;
                }
            }
            return Ok(());
        };
        let cut = match fault {
            DurableFault::Crash => 0,
            DurableFault::TornWrite => paths.len() / 2,
            DurableFault::PartialWrite => paths.len().saturating_sub(1),
            DurableFault::LostFsync => paths.len(),
        };
        for path in &paths[..cut] {
            let _ = std::fs::remove_file(path);
        }
        self.crash();
        Err(DurableError::Injected(fault))
    }

    /// Reads a single-record file written by [`DurableFs::write_atomic`].
    /// Trailing bytes after the record are corruption, not slack.
    pub fn read_record(&self, path: &Path) -> Result<Vec<u8>, ReadError> {
        let buf = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(ReadError::Missing),
            Err(e) => return Err(ReadError::Corrupt(e.to_string())),
        };
        let (payload, next) = parse_frame(&buf, 0).map_err(ReadError::Corrupt)?;
        if next != buf.len() {
            return Err(ReadError::Corrupt(format!(
                "{} trailing bytes after record",
                buf.len() - next
            )));
        }
        Ok(payload)
    }

    /// Scans a journal of appended records, stopping at the first bad
    /// frame. Bytes past the last good record are reported as a torn
    /// tail — by the write-ahead rule they were never acknowledged, so
    /// recovery may drop them with [`DurableFs::truncate`].
    pub fn read_journal(&self, path: &Path) -> Result<JournalScan, ReadError> {
        let buf = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(ReadError::Missing),
            Err(e) => return Err(ReadError::Corrupt(e.to_string())),
        };
        let mut scan = JournalScan::default();
        let mut at = 0usize;
        while at < buf.len() {
            match parse_frame(&buf, at) {
                Ok((payload, next)) => {
                    scan.records.push(payload);
                    at = next;
                }
                Err(_) => break,
            }
        }
        scan.clean_len = at as u64;
        scan.torn_bytes = (buf.len() - at) as u64;
        Ok(scan)
    }

    /// Crash-path sidecar write: atomically replaces `path` with *raw*
    /// (unframed) bytes — temp file → fsync → rename → parent-dir fsync —
    /// bypassing both the fault schedule and the crashed flag. The flight
    /// recorder uses this to land its trace exactly when the store has
    /// crashed and every framed write path is refusing; the payload is
    /// self-describing text (JSONL), so CRC framing would only make it
    /// unreadable by standard tools.
    pub fn write_sidecar(&self, path: &Path, payload: &[u8]) -> Result<(), DurableError> {
        let tmp = tmp_path(path);
        {
            let mut f = Self::io(File::create(&tmp))?;
            Self::io(f.write_all(payload))?;
            Self::io(f.sync_all())?;
        }
        Self::io(std::fs::rename(&tmp, path))?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Recovery-time repair: truncates `path` to `len` (dropping a torn
    /// tail) and fsyncs. Not a faulted write point — it runs during
    /// recovery, before service resumes.
    pub fn truncate(&self, path: &Path, len: u64) -> Result<(), DurableError> {
        let f = Self::io(OpenOptions::new().write(true).open(path))?;
        Self::io(f.set_len(len))?;
        Self::io(f.sync_all())?;
        Ok(())
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn append_raw(path: &Path, bytes: &[u8]) {
    if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
        let _ = f.write_all(bytes);
    }
}

/// Moves a file that failed verification out of the way (same directory,
/// `.quar` suffix) so it is preserved for postmortems but never read as
/// data again.
pub fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".quar");
    let dest = path.with_file_name(name);
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_fpga::DurableFault as F;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cascade-durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn atomic_write_round_trips_and_detects_tampering() {
        let d = tdir("atomic");
        let fs = DurableFs::new(FaultPlan::none());
        let p = d.join("rec.bin");
        fs.write_atomic(&p, b"hello durable world").unwrap();
        assert_eq!(fs.read_record(&p).unwrap(), b"hello durable world");
        // Flip one payload byte: the CRC must catch it.
        let mut raw = std::fs::read(&p).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&p, &raw).unwrap();
        assert!(matches!(fs.read_record(&p), Err(ReadError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn journal_appends_scan_in_order() {
        let d = tdir("journal");
        let fs = DurableFs::new(FaultPlan::none());
        let p = d.join("s1.jnl");
        for i in 0..5u8 {
            fs.append(&p, &[i, i, i]).unwrap();
        }
        let scan = fs.read_journal(&p).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records[3], vec![3, 3, 3]);
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_append_leaves_detectable_tail_and_truncate_repairs_it() {
        let d = tdir("torn");
        let plan = FaultPlan::builder().durable_fault(3, F::TornWrite).build();
        let fs = DurableFs::new(plan);
        let p = d.join("s1.jnl");
        fs.append(&p, b"record-one").unwrap();
        fs.append(&p, b"record-two").unwrap();
        let err = fs.append(&p, b"record-three").unwrap_err();
        assert_eq!(err, DurableError::Injected(F::TornWrite));
        assert!(fs.crashed());
        // Post-crash writes are refused without consuming occurrences.
        let before = fs.write_points();
        assert_eq!(fs.append(&p, b"more").unwrap_err(), DurableError::Crashed);
        assert_eq!(fs.write_points(), before);

        // Recovery (a fresh process) sees two good records + a torn tail.
        let rfs = DurableFs::new(FaultPlan::none());
        let scan = rfs.read_journal(&p).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn_bytes > 0);
        rfs.truncate(&p, scan.clean_len).unwrap();
        rfs.append(&p, b"record-three-retry").unwrap();
        let again = rfs.read_journal(&p).unwrap();
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn atomic_faults_never_mix_old_and_new() {
        for fault in [F::Crash, F::TornWrite, F::LostFsync] {
            let d = tdir(&format!("ax-{fault:?}"));
            let fs0 = DurableFs::new(FaultPlan::none());
            let p = d.join("rec.bin");
            fs0.write_atomic(&p, b"old-version").unwrap();
            let plan = FaultPlan::builder().durable_fault(1, fault).build();
            let fs = DurableFs::new(plan);
            assert!(fs.write_atomic(&p, b"new-version").is_err());
            // Rename never happened: the old record is fully intact.
            assert_eq!(fs0.read_record(&p).unwrap(), b"old-version");
            let _ = std::fs::remove_dir_all(&d);
        }
        // PartialWrite is the rename-before-data anomaly: the final file
        // is replaced by a short frame that verification must reject.
        let d = tdir("ax-partial");
        let fs0 = DurableFs::new(FaultPlan::none());
        let p = d.join("rec.bin");
        fs0.write_atomic(&p, b"old-version").unwrap();
        let plan = FaultPlan::builder()
            .durable_fault(1, F::PartialWrite)
            .build();
        let fs = DurableFs::new(plan);
        assert!(fs.write_atomic(&p, b"new-version").is_err());
        assert!(matches!(fs0.read_record(&p), Err(ReadError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn removal_faults_leave_a_prefix_removed() {
        let cases = [
            (None, 3),
            (Some(F::Crash), 0),
            (Some(F::TornWrite), 1),
            (Some(F::PartialWrite), 2),
            (Some(F::LostFsync), 3),
        ];
        for (fault, removed) in cases {
            let d = tdir(&format!("rm-{fault:?}"));
            let fs0 = DurableFs::new(FaultPlan::none());
            let paths: Vec<PathBuf> = (0..3).map(|g| d.join(format!("s1-{g}.jnl"))).collect();
            for p in &paths {
                fs0.append(p, b"rec").unwrap();
            }
            let plan = match fault {
                Some(f) => FaultPlan::builder().durable_fault(1, f).build(),
                None => FaultPlan::none(),
            };
            let fs = DurableFs::new(plan);
            assert_eq!(fs.remove_all(&paths).is_ok(), fault.is_none(), "{fault:?}");
            let gone: Vec<bool> = paths.iter().map(|p| !p.exists()).collect();
            let want: Vec<bool> = (0..3).map(|i| i < removed).collect();
            assert_eq!(gone, want, "{fault:?}");
            // Missing files are skipped, not errors.
            if fault.is_none() {
                fs.remove_all(&paths).unwrap();
            }
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn lost_fsync_append_survives_nothing() {
        let d = tdir("lost");
        let plan = FaultPlan::builder().durable_fault(2, F::LostFsync).build();
        let fs = DurableFs::new(plan);
        let p = d.join("s1.jnl");
        fs.append(&p, b"acked").unwrap();
        assert!(fs.append(&p, b"dropped").is_err());
        let scan = DurableFs::new(FaultPlan::none()).read_journal(&p).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn sidecar_writes_raw_bytes_even_after_crash() {
        let d = tdir("sidecar");
        let plan = FaultPlan::builder().durable_fault(1, F::Crash).build();
        let fs = DurableFs::new(plan);
        let p = d.join("rec.bin");
        assert!(fs.write_atomic(&p, b"doomed").is_err());
        assert!(fs.crashed());
        // Framed writes refuse, but the sidecar path still lands — and
        // the file holds the raw payload, not a CRC frame.
        let side = d.join("last-crash.trace.jsonl");
        fs.write_sidecar(&side, b"{\"ph\":\"i\"}\n").unwrap();
        assert_eq!(std::fs::read(&side).unwrap(), b"{\"ph\":\"i\"}\n");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn quarantine_moves_file_aside() {
        let d = tdir("quar");
        let p = d.join("bad.jnl");
        std::fs::write(&p, b"garbage").unwrap();
        let dest = quarantine(&p).unwrap();
        assert!(!p.exists());
        assert!(dest.exists());
        assert!(dest.to_string_lossy().ends_with(".quar"));
        let _ = std::fs::remove_dir_all(&d);
    }
}
