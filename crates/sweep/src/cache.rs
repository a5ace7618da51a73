//! The content-addressed result store.
//!
//! A cache is [`SHARD_COUNT`] shards, each owning the 128-bit job
//! [`Digest`]s whose top hex digit matches the shard id. A shard is an
//! append-only byte log of length-prefixed entries (`axcc1 <32-hex
//! digest> <body len>\n` followed by exactly that many bytes of encoded
//! [`Record`]) plus one index from digest to the byte range of its
//! latest entry. Later entries for the same digest win, so an append is
//! also an overwrite — there is no in-place mutation anywhere in the
//! format. A hit decodes the body straight out of the log.
//!
//! A cache backed by a directory mirrors each shard's log in a segment
//! file: the first touch of a shard reads its segment into the log and
//! indexes it, and every append goes to both the log and the file. An
//! in-memory cache is the same shards with no directory. Either way a
//! cold sweep creates O(shards) files regardless of job count.
//!
//! Because the address is a content hash of *all* inputs including the
//! engine version, entries never go stale — a stale input simply hashes
//! elsewhere — so there is no eviction machinery. A shard is compacted
//! (latest entry per digest, temp file + rename) only once its log
//! outgrows the rotation threshold *and* superseded entries outweigh
//! live ones, so a shard of distinct digests is never rewritten.
//!
//! Disk I/O is strictly best-effort: a segment whose tail was truncated
//! by a killed process is healed by truncating back to the last whole
//! entry (the lost tail re-runs as misses), an entry whose body fails to
//! decode is dropped from the index (miss, recompute, re-append), and
//! write failures are swallowed — a broken cache directory may cost
//! time, never correctness. Files of the earlier one-file-per-digest
//! layout are ignored: every one of them was written at an older engine
//! revision, so no current digest addresses it.

use crate::record::Record;
use axcc_core::fingerprint::Digest;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of shards in a store. Sixteen means the shard id is exactly
/// the leading hex digit of the digest.
pub const SHARD_COUNT: usize = 16;

/// Default log size above which a shard with mostly superseded entries
/// is compacted and rewritten.
const DEFAULT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// Leading magic token of every segment entry header.
const ENTRY_MAGIC: &str = "axcc1";

/// Hex digits of a digest in an entry header.
const DIGEST_HEX_LEN: usize = 32;

/// Most decimal digits a body length may have (`u64::MAX` has 20).
const MAX_LEN_DIGITS: usize = 20;

/// Monotonic suffix source for temp-file names, so concurrent rotations
/// in one process never collide. (Cross-process uniqueness comes from the
/// process id in the name.)
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Where one entry sits in its shard's log: header at `start`, body
/// `body..end`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    body: usize,
    end: usize,
}

impl Span {
    fn len(self) -> usize {
        self.end - self.start
    }
}

/// One shard: lazily loaded, then a log and the index over it.
#[derive(Debug, Default)]
struct Shard {
    opened: bool,
    /// Every entry loaded or appended, in segment format.
    log: Vec<u8>,
    index: BTreeMap<Digest, Span>,
    /// Bytes of `log` held by indexed entries; the rest is superseded.
    live_bytes: usize,
}

impl Shard {
    /// Index the log's entries from `pos` on, later ones overriding
    /// earlier ones; returns where the first malformed or cut-short entry
    /// starts (the log's length if there is none).
    fn index_from(&mut self, mut pos: usize) -> usize {
        while let Some((digest, span)) = parse_entry(&self.log, pos) {
            self.live_bytes += span.len();
            if let Some(old) = self.index.insert(digest, span) {
                self.live_bytes -= old.len();
            }
            pos = span.end;
        }
        pos
    }

    fn forget(&mut self, digest: &Digest) {
        if let Some(old) = self.index.remove(digest) {
            self.live_bytes -= old.len();
        }
    }

    /// The compaction rule: the log is over the threshold and more than
    /// half of it is superseded entries.
    fn needs_compaction(&self, rotate_bytes: u64) -> bool {
        self.log.len() as u64 > rotate_bytes && self.log.len() - self.live_bytes > self.live_bytes
    }
}

/// Per-shard occupancy as reported by [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Live (indexed) entries in the shard.
    pub entries: usize,
    /// Current segment size in bytes, including superseded entries.
    pub segment_bytes: u64,
}

/// Counters and occupancy for one cache, as rendered by
/// `axcc sweep --cache-stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered.
    pub hits: u64,
    /// Lookups that found nothing (the job re-ran).
    pub misses: u64,
    /// Corruption repairs: truncated segment tails and entries whose body
    /// failed to decode, both healed into plain misses.
    pub heal_events: u64,
    /// Live entries indexed in memory across all shards. Every shard is
    /// loaded before counting, so for a disk cache this is the store's
    /// whole content, not just this process's traffic.
    pub mem_entries: usize,
    /// Per-shard occupancy; empty for purely in-memory caches.
    pub shards: Vec<ShardStats>,
}

impl CacheStats {
    /// Total live entries across all disk shards.
    pub fn disk_entries(&self) -> usize {
        self.shards.iter().map(|s| s.entries).sum()
    }

    /// Total segment bytes across all disk shards.
    pub fn segment_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.segment_bytes).sum()
    }
}

/// Sharded record store, optionally mirrored on disk, shared across
/// worker threads.
#[derive(Debug)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    rotate_bytes: u64,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    heals: AtomicU64,
}

impl ResultCache {
    fn with_dir_opt(dir: Option<PathBuf>, rotate_bytes: u64) -> Self {
        ResultCache {
            dir,
            rotate_bytes,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            heals: AtomicU64::new(0),
        }
    }

    /// Purely in-memory cache (lives as long as the process).
    pub fn in_memory() -> Self {
        Self::with_dir_opt(None, DEFAULT_ROTATE_BYTES)
    }

    /// Cache backed by `dir` (created on first write). Entries persist
    /// across processes, which is what makes warm re-runs of the
    /// experiment suite near-free.
    pub fn with_disk(dir: PathBuf) -> Self {
        Self::with_disk_rotate_at(dir, DEFAULT_ROTATE_BYTES)
    }

    /// [`with_disk`](Self::with_disk) with an explicit segment rotation
    /// threshold, for tests that need to exercise compaction without
    /// writing megabytes.
    pub fn with_disk_rotate_at(dir: PathBuf, rotate_bytes: u64) -> Self {
        Self::with_dir_opt(Some(dir), rotate_bytes)
    }

    /// The backing directory, if this cache has one.
    pub fn disk_dir(&self) -> Option<&PathBuf> {
        self.dir.as_ref()
    }

    /// Look up a record, decoding it from its shard's log.
    ///
    /// An indexed entry whose body no longer decodes (bit rot, a stray
    /// editor) is dropped from the index and treated as a miss, so the
    /// re-computed result can be appended again — otherwise a corrupt
    /// entry would shadow its own address forever and every warm run
    /// would silently pay for the same re-computation.
    pub fn get(&self, digest: &Digest) -> Option<Record> {
        let mut shard = self.open_shard(shard_of(digest));
        let found = shard.index.get(digest).map(|span| {
            std::str::from_utf8(&shard.log[span.body..span.end])
                .ok()
                .and_then(Record::decode)
        });
        match found {
            Some(Some(rec)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(rec);
            }
            Some(None) => {
                // Heal-by-forgetting: drop the poisoned index entry so the
                // recomputed result can take the address back.
                shard.forget(digest);
                self.heals.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store a record under its content address.
    pub fn put(&self, digest: Digest, record: Record) {
        self.put_batch(vec![(digest, record)]);
    }

    /// Store a batch of records, paying the shard locks and the segment
    /// appends once per shard instead of once per record. This is the
    /// write path of chunked dispatch: a worker flushes its whole chunk
    /// here in one call.
    pub fn put_batch(&self, entries: Vec<(Digest, Record)>) {
        let mut by_shard: Vec<Vec<(Digest, Record)>> =
            (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for entry in entries {
            by_shard[shard_of(&entry.0)].push(entry);
        }
        for (id, group) in by_shard.iter().enumerate() {
            if !group.is_empty() {
                self.append(id, group);
            }
        }
    }

    /// Number of live entries in the shards touched so far.
    pub fn len(&self) -> usize {
        (0..SHARD_COUNT)
            .map(|id| self.lock_shard(id).index.len())
            .sum()
    }

    /// Whether no touched shard holds a live entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters and per-shard occupancy. Loads any shard not yet
    /// touched, so the numbers reflect the directory, not just this
    /// process's traffic.
    pub fn stats(&self) -> CacheStats {
        let mut shards: Vec<ShardStats> = (0..SHARD_COUNT)
            .map(|id| {
                let shard = self.open_shard(id);
                ShardStats {
                    entries: shard.index.len(),
                    segment_bytes: shard.log.len() as u64,
                }
            })
            .collect();
        let mem_entries = shards.iter().map(|s| s.entries).sum();
        if self.dir.is_none() {
            // Shard rows describe segment files; this cache has none.
            shards.clear();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            heal_events: self.heals.load(Ordering::Relaxed),
            mem_entries,
            shards,
        }
    }

    /// Lock one shard, recovering from poisoning: the log only grows, and
    /// an index entry is inserted only after its bytes are in the log, so
    /// a panic mid-update leaves at worst unindexed (superseded) bytes.
    fn lock_shard(&self, id: usize) -> MutexGuard<'_, Shard> {
        self.shards[id]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock one shard, loading its segment on first touch.
    fn open_shard(&self, id: usize) -> MutexGuard<'_, Shard> {
        let mut shard = self.lock_shard(id);
        if !shard.opened {
            shard.opened = true;
            if let Some(dir) = &self.dir {
                self.load_segment(&segment_path(dir, id), &mut shard);
            }
        }
        shard
    }

    /// Read the segment into the log and index its entries; on the first
    /// malformed header or short body, truncate the file back to the end
    /// of the last whole entry (one heal event) — the lost tail simply
    /// re-runs as misses.
    fn load_segment(&self, path: &Path, shard: &mut Shard) {
        let Ok(bytes) = fs::read(path) else {
            return;
        };
        shard.log = bytes;
        let end = shard.index_from(0);
        if end < shard.log.len() {
            // Corrupt tail: keep the healthy prefix, drop the rest.
            self.heals.fetch_add(1, Ordering::Relaxed);
            shard.log.truncate(end);
            if let Ok(f) = fs::OpenOptions::new().write(true).open(path) {
                let _ = f.set_len(end as u64);
            }
        }
    }

    /// Append a group of records to shard `id`: one write to the log and
    /// one to the segment file, then compaction if the rule calls for it.
    /// The file write is best-effort (a full disk degrades to an
    /// in-memory cache, silently).
    fn append(&self, id: usize, group: &[(Digest, Record)]) {
        // Encode outside the lock.
        let mut buf = Vec::new();
        for (digest, record) in group {
            let body = record.encode();
            let _ = writeln!(buf, "{ENTRY_MAGIC} {} {}", digest.to_hex(), body.len());
            buf.extend_from_slice(body.as_bytes());
        }

        let mut shard = self.open_shard(id);
        if let Some(dir) = &self.dir {
            let _ = fs::create_dir_all(dir).and_then(|()| {
                fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(segment_path(dir, id))?
                    .write_all(&buf)
            });
        }
        let start = shard.log.len();
        shard.log.extend_from_slice(&buf);
        shard.index_from(start);
        if shard.needs_compaction(self.rotate_bytes) {
            self.compact(id, &mut shard);
        }
    }

    /// Compaction: rewrite the log with only the live (indexed) entries,
    /// and the segment via temp file + rename so a concurrent reader
    /// never sees a half-written segment. Best-effort — on any failure
    /// the shard is left as it was and compaction is retried on the next
    /// append.
    fn compact(&self, id: usize, shard: &mut Shard) {
        let mut live = Shard {
            opened: true,
            log: Vec::with_capacity(shard.live_bytes),
            ..Shard::default()
        };
        for span in shard.index.values() {
            live.log.extend_from_slice(&shard.log[span.start..span.end]);
        }
        live.index_from(0);
        if let Some(dir) = &self.dir {
            let suffix = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
            let tmp = dir.join(format!(".rotate-{id:02x}-{}-{suffix}", std::process::id()));
            if fs::write(&tmp, &live.log)
                .and_then(|()| fs::rename(&tmp, segment_path(dir, id)))
                .is_err()
            {
                let _ = fs::remove_file(&tmp);
                return;
            }
        }
        *shard = live;
    }
}

fn segment_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("shard-{id:02x}.seg"))
}

/// Shard owning `digest`: its leading hex digit.
fn shard_of(digest: &Digest) -> usize {
    (digest.hi >> 60) as usize
}

/// Parse the entry starting at `start`: the fixed-layout header
/// `axcc1 <32 hex digits> <1–20 decimal digits>\n`, then a body of that
/// many bytes, all of which must be present. Returns the digest and the
/// entry's span, or `None` if any part is malformed or cut short.
fn parse_entry(bytes: &[u8], start: usize) -> Option<(Digest, Span)> {
    let rest = bytes
        .get(start..)?
        .strip_prefix(ENTRY_MAGIC.as_bytes())?
        .strip_prefix(b" ")?;
    let hex = std::str::from_utf8(rest.get(..DIGEST_HEX_LEN)?).ok()?;
    let digest = Digest::from_hex(hex)?;
    let rest = rest[DIGEST_HEX_LEN..].strip_prefix(b" ")?;
    let digits = rest
        .iter()
        .take(MAX_LEN_DIGITS + 1)
        .position(|&b| b == b'\n')
        .filter(|&n| n > 0)?;
    let mut len: usize = 0;
    for &b in &rest[..digits] {
        if !b.is_ascii_digit() {
            return None;
        }
        len = len.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
    }
    let body = start + ENTRY_MAGIC.len() + 1 + DIGEST_HEX_LEN + 1 + digits + 1;
    let end = body.checked_add(len).filter(|&end| end <= bytes.len())?;
    Some((digest, Span { start, body, end }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_core::fingerprint::Fingerprint;
    use std::path::Path;

    fn digest_of(tag: &str) -> Digest {
        tag.digest()
    }

    fn record_of(v: f64) -> Record {
        let mut r = Record::new();
        r.push_f64(v);
        r
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("axcc-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "seg"))
                    .collect()
            })
            .unwrap_or_default();
        files.sort();
        files
    }

    #[test]
    fn memory_get_put() {
        let cache = ResultCache::in_memory();
        let d = digest_of("k1");
        assert!(cache.get(&d).is_none());
        cache.put(d, record_of(1.5));
        assert_eq!(cache.get(&d), Some(record_of(1.5)));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.shards.is_empty());
    }

    #[test]
    fn disk_round_trip_through_segments() {
        let dir = temp_dir("segrt");
        let cache = ResultCache::with_disk(dir.clone());
        let d = digest_of("disk-key");
        cache.put(d, record_of(f64::INFINITY));

        // A fresh cache over the same directory sees the entry…
        let warm = ResultCache::with_disk(dir.clone());
        let rec = warm.get(&d).unwrap();
        assert_eq!(rec.reader().f64().unwrap(), f64::INFINITY);
        // …and the directory holds segment files, not per-digest files.
        assert_eq!(segment_files(&dir).len(), 1);
        assert!(!dir.join(d.to_hex()).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_put_lands_every_entry_in_one_pass() {
        let dir = temp_dir("batch");
        let cache = ResultCache::with_disk(dir.clone());
        let entries: Vec<(Digest, Record)> = (0..64)
            .map(|i| (digest_of(&format!("b{i}")), record_of(i as f64)))
            .collect();
        cache.put_batch(entries.clone());
        // Cold-run peak file count is O(shards), not O(jobs).
        assert!(segment_files(&dir).len() <= SHARD_COUNT);
        let warm = ResultCache::with_disk(dir.clone());
        for (d, r) in &entries {
            assert_eq!(warm.get(d).as_ref(), Some(r));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_record_body_heals_as_a_miss() {
        let dir = temp_dir("garbage");
        let cache = ResultCache::with_disk(dir.clone());
        let d = digest_of("poisoned");
        cache.put(d, record_of(2.0));
        // Overwrite the segment with a validly framed entry whose body
        // does not decode as a Record.
        let seg = segment_files(&dir).pop().unwrap();
        let body = "not a record";
        fs::write(
            &seg,
            format!("{ENTRY_MAGIC} {} {}\n{body}", d.to_hex(), body.len()),
        )
        .unwrap();

        let cold = ResultCache::with_disk(dir.clone());
        assert!(cold.get(&d).is_none(), "undecodable body is a miss");
        assert_eq!(cold.stats().heal_events, 1);
        // Recompute-and-persist round-trips: the next put re-appends and
        // a fresh cache reads it back.
        cold.put(d, record_of(2.25));
        let recovered = ResultCache::with_disk(dir.clone());
        assert_eq!(recovered.get(&d), Some(record_of(2.25)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_healed_and_earlier_entries_survive() {
        let dir = temp_dir("tail");
        let cache = ResultCache::with_disk(dir.clone());
        let keep_a = digest_of("keep-a");
        let keep_b = digest_of("keep-b");
        let lost = digest_of("lost");
        // Force all three into one shard by brute-forcing tags? No —
        // put each, then truncate every segment by a few bytes; only the
        // shard(s) holding a final entry lose it.
        cache.put(keep_a, record_of(1.0));
        cache.put(keep_b, record_of(2.0));
        cache.put(lost, record_of(3.0));
        let lost_shard = shard_of(&lost);
        let seg = dir.join(format!("shard-{lost_shard:02x}.seg"));
        let len = fs::metadata(&seg).unwrap().len();
        // Chop mid-body: the last entry in that shard no longer parses.
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let cold = ResultCache::with_disk(dir.clone());
        assert!(cold.get(&lost).is_none(), "chopped entry is a miss");
        assert!(cold.stats().heal_events >= 1);
        // Entries in other shards (and any whole prefix of the chopped
        // shard) still read back.
        for (d, v) in [(keep_a, 1.0), (keep_b, 2.0)] {
            if shard_of(&d) != lost_shard {
                assert_eq!(cold.get(&d), Some(record_of(v)));
            }
        }
        // The healed shard accepts appends again.
        cold.put(lost, record_of(3.5));
        let recovered = ResultCache::with_disk(dir.clone());
        assert_eq!(recovered.get(&lost), Some(record_of(3.5)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_segments_rotate_and_stay_readable() {
        let dir = temp_dir("rotate");
        let cache = ResultCache::with_disk_rotate_at(dir.clone(), 256);
        let d = digest_of("churny");
        // Re-put the same address many times: the segment grows with
        // superseded entries until rotation compacts it to one.
        for i in 0..64 {
            cache.put(d, record_of(i as f64));
        }
        let stats = cache.stats();
        let shard = &stats.shards[shard_of(&d)];
        assert_eq!(shard.entries, 1);
        assert!(
            shard.segment_bytes <= 256,
            "rotation should have compacted the segment ({} bytes)",
            shard.segment_bytes
        );
        assert_eq!(cache.get(&d), Some(record_of(63.0)));
        // No temp files left behind, still O(shards) files total.
        let files: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert!(files.len() <= SHARD_COUNT);
        let warm = ResultCache::with_disk(dir.clone());
        assert_eq!(warm.get(&d), Some(record_of(63.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a shard of distinct digests past the rotation
    /// threshold has nothing superseded, so it is never rewritten (it
    /// used to be rewritten on every append once over the threshold).
    #[cfg(unix)]
    #[test]
    fn distinct_digests_past_the_threshold_never_rewrite_the_segment() {
        use std::os::unix::fs::MetadataExt as _;
        let dir = temp_dir("no-rewrite");
        let cache = ResultCache::with_disk_rotate_at(dir.clone(), 256);
        let digests: Vec<Digest> = (0..)
            .map(|i| digest_of(&format!("distinct-{i}")))
            .filter(|d| shard_of(d) == 0)
            .take(20)
            .collect();
        let seg = dir.join("shard-00.seg");
        let mut inode = None;
        let mut rewrites = 0;
        for (i, d) in digests.iter().enumerate() {
            cache.put(*d, record_of(i as f64));
            let now = fs::metadata(&seg).unwrap().ino();
            if inode.is_some_and(|before| before != now) {
                rewrites += 1;
            }
            inode = Some(now);
        }
        assert_eq!(rewrites, 0, "no entry was superseded");
        assert!(cache.stats().shards[0].segment_bytes > 256);
        let warm = ResultCache::with_disk(dir.clone());
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(warm.get(d), Some(record_of(i as f64)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_entries_override_earlier_ones_on_scan() {
        let dir = temp_dir("override");
        let d = digest_of("versioned");
        {
            let cache = ResultCache::with_disk(dir.clone());
            cache.put(d, record_of(1.0));
            cache.put(d, record_of(2.0));
        }
        let warm = ResultCache::with_disk(dir.clone());
        assert_eq!(warm.get(&d), Some(record_of(2.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_shard_occupancy() {
        let dir = temp_dir("stats");
        let cache = ResultCache::with_disk(dir.clone());
        let entries: Vec<(Digest, Record)> = (0..32)
            .map(|i| (digest_of(&format!("s{i}")), record_of(i as f64)))
            .collect();
        cache.put_batch(entries);
        let stats = cache.stats();
        assert_eq!(stats.shards.len(), SHARD_COUNT);
        assert_eq!(stats.disk_entries(), 32);
        assert!(stats.segment_bytes() > 0);
        assert_eq!(stats.mem_entries, 32);
        let _ = fs::remove_dir_all(&dir);
    }
}
