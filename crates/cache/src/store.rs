//! The two-tier store: an in-memory LRU over CRC-footed on-disk entries.
//!
//! Disk entries follow the checkpoint journal's atomic-write discipline
//! (write temp, fsync, rename, fsync-dir) and its footer format — the
//! body followed by one line holding the body's CRC32 in hex — so a
//! reader sees either a complete entry or nothing. On *any* load failure
//! (truncation, bit flip, unparseable header, engine-salt or key-echo
//! mismatch) the entry is counted as `cache.corrupt_discarded`, deleted
//! best-effort, and reported as a miss: corruption always degrades to a
//! recompute, never to a wrong answer.
//!
//! The entry body is line-oriented:
//!
//! ```text
//! elivagar-cache v1
//! salt <engine salt, 16 hex digits>
//! key <cache key, 64 hex digits>
//! payload <byte length>
//! <payload bytes, caller-defined>
//! ```
//!
//! The salt and key lines echo what the writer believed it was storing;
//! a mismatch against the reader's expectation (version drift, or a file
//! placed under the wrong name) is treated exactly like corruption.

use crate::durable::{check_footer, write_footed};
use crate::key::{CacheKey, ENGINE_SALT};
use elivagar_obs::metrics;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a cache directory could not be opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// Filesystem failure creating or probing the cache directory.
    Io {
        /// Path the operation targeted.
        path: String,
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, message } => {
                write!(f, "cache I/O failure at {path}: {message}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

// ---- in-memory tier --------------------------------------------------------

/// Entries the in-memory tier holds before evicting least-recently-used
/// payloads (the disk tier keeps everything).
pub const DEFAULT_MEMORY_ENTRIES: usize = 4096;

struct Lru {
    entries: HashMap<[u8; 32], (u64, Vec<u8>)>,
    capacity: usize,
    tick: u64,
}

impl Lru {
    fn get(&mut self, key: &CacheKey) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key.bytes()).map(|(seen, payload)| {
            *seen = tick;
            payload.clone()
        })
    }

    fn put(&mut self, key: &CacheKey, payload: &[u8]) {
        self.tick += 1;
        let fresh = self
            .entries
            .insert(*key.bytes(), (self.tick, payload.to_vec()))
            .is_none();
        if fresh && self.entries.len() > self.capacity {
            // O(n) scan eviction: capacities are small (thousands) and
            // eviction is off every hot path (puts follow a full predictor
            // evaluation).
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (seen, _))| *seen)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                metrics::CACHE_EVICTIONS.add(1);
            }
        }
    }
}

// ---- the cache -------------------------------------------------------------

/// A shared, thread-safe handle to one cache; clone freely across
/// evaluation workers, searches, and tenants.
pub type CacheHandle = Arc<Cache>;

/// The two-tier content-addressed store. See the module docs for the
/// on-disk format and the corruption contract.
pub struct Cache {
    mem: Mutex<Lru>,
    dir: Option<PathBuf>,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache").field("dir", &self.dir).finish()
    }
}

impl Cache {
    /// Opens (creating if needed) a persistent cache rooted at `dir`.
    /// Multiple processes and tenants may share one directory: writes are
    /// atomic renames, so concurrent writers race benignly to identical
    /// content.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CacheHandle, CacheError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CacheError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(Arc::new(Cache {
            mem: Mutex::new(Lru {
                entries: HashMap::new(),
                capacity: DEFAULT_MEMORY_ENTRIES,
                tick: 0,
            }),
            dir: Some(dir),
        }))
    }

    /// An in-memory-only cache (no persistence) holding at most
    /// `capacity` entries — the process-local tier on its own.
    pub fn memory_only(capacity: usize) -> CacheHandle {
        Arc::new(Cache {
            mem: Mutex::new(Lru {
                entries: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
            }),
            dir: None,
        })
    }

    /// The persistent tier's root directory, if one is attached.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The on-disk path an entry for `key` lives at.
    pub fn entry_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.entry", key.hex())))
    }

    /// Looks `key` up in the memory tier, then the disk tier (promoting a
    /// disk hit into memory). Every call counts `cache.lookups` and
    /// exactly one of `cache.hits` / `cache.misses`; invalid disk entries
    /// additionally count `cache.corrupt_discarded` and are deleted.
    pub fn get(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let sw = metrics::Stopwatch::start();
        metrics::CACHE_LOOKUPS.add(1);
        let outcome = self.lookup(key);
        if outcome.is_some() {
            metrics::CACHE_HITS.add(1);
        } else {
            metrics::CACHE_MISSES.add(1);
        }
        sw.record(&metrics::CACHE_LOOKUP_NS);
        outcome
    }

    fn lookup(&self, key: &CacheKey) -> Option<Vec<u8>> {
        if let Some(payload) = self.mem.lock().expect("cache poisoned").get(key) {
            return Some(payload);
        }
        let path = self.entry_path(key)?;
        let bytes = fs::read(&path).ok()?;
        match parse_entry(&bytes, key) {
            Some(payload) => {
                self.mem.lock().expect("cache poisoned").put(key, &payload);
                Some(payload)
            }
            None => {
                // Corruption contract: discard and recompute. Removal is
                // best-effort — a racing writer may already have replaced
                // the entry with a fresh, valid one.
                metrics::CACHE_CORRUPT_DISCARDED.add(1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores `payload` under `key` in both tiers. Disk failures are
    /// swallowed: the cache is an accelerator, never a correctness
    /// dependency, so a full disk degrades to recomputation.
    pub fn put(&self, key: &CacheKey, payload: &[u8]) {
        metrics::CACHE_STORES.add(1);
        self.mem.lock().expect("cache poisoned").put(key, payload);
        if let Some(path) = self.entry_path(key) {
            let _ = write_entry(&path, key, ENGINE_SALT, payload);
        }
    }
}

/// Serializes one entry body (header lines + payload), without the footer.
fn entry_body(key: &CacheKey, salt: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(payload.len() + 128);
    body.extend_from_slice(b"elivagar-cache v1\n");
    body.extend_from_slice(format!("salt {salt:016x}\n").as_bytes());
    body.extend_from_slice(format!("key {}\n", key.hex()).as_bytes());
    body.extend_from_slice(format!("payload {}\n", payload.len()).as_bytes());
    body.extend_from_slice(payload);
    body
}

/// Atomically writes an entry with the checkpoint discipline
/// ([`write_footed`]). `salt` is a parameter (rather than always
/// [`ENGINE_SALT`]) so the corruption battery can fabricate stale-version
/// entries through the real writer.
pub fn write_entry(
    path: &Path,
    key: &CacheKey,
    salt: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    // Separate processes may write one cache dir: the temp name is per pid.
    let tmp_suffix = format!(".tmp{}", std::process::id());
    let written = write_footed(path, &entry_body(key, salt, payload), &tmp_suffix)
        .map_err(|(_, e)| e)?;

    // Chaos hook: simulate a torn write surviving the atomic protocol
    // (dishonest disk) by chopping the committed entry in half.
    if elivagar_sim::faultpoint::wants_truncation("cache::store", key.low64()) {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(written / 2)?;
    }
    Ok(())
}

/// Validates and extracts the payload of one on-disk entry. `None` means
/// the entry is corrupt, truncated, or from a different engine version.
fn parse_entry(bytes: &[u8], expected: &CacheKey) -> Option<Vec<u8>> {
    let body = check_footer(bytes).ok()?;

    // Header lines, then the exact payload byte count.
    let mut rest = body;
    if take_line(&mut rest)? != b"elivagar-cache v1" {
        return None;
    }
    let salt_line = std::str::from_utf8(take_line(&mut rest)?).ok()?;
    let salt = u64::from_str_radix(salt_line.strip_prefix("salt ")?, 16).ok()?;
    if salt != ENGINE_SALT {
        return None;
    }
    let key_line = std::str::from_utf8(take_line(&mut rest)?).ok()?;
    if key_line.strip_prefix("key ")? != expected.hex() {
        return None;
    }
    let len_line = std::str::from_utf8(take_line(&mut rest)?).ok()?;
    let len: usize = len_line.strip_prefix("payload ")?.parse().ok()?;
    if rest.len() != len {
        return None;
    }
    Some(rest.to_vec())
}

/// Splits the next `\n`-terminated line off the front of `rest`.
fn take_line<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let at = rest.iter().position(|&b| b == b'\n')?;
    let (line, tail) = rest.split_at(at);
    *rest = &tail[1..];
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("elivagar-cache-{}-{name}", std::process::id()));
        p
    }

    fn key(n: u64) -> CacheKey {
        KeyBuilder::new("test").u64(n).finish()
    }

    /// The cache counters are process-global and tests run in parallel:
    /// every test that touches a cache holds this lock, so
    /// `counters_conserve_lookups_and_stores` counts only its own lookups
    /// and stores.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive_counters() -> std::sync::MutexGuard<'static, ()> {
        // A test that panicked while holding the lock leaves `()` intact.
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn memory_tier_roundtrips() {
        let _counters = exclusive_counters();
        let cache = Cache::memory_only(8);
        assert_eq!(cache.get(&key(1)), None);
        cache.put(&key(1), b"payload one");
        assert_eq!(cache.get(&key(1)).as_deref(), Some(&b"payload one"[..]));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let _counters = exclusive_counters();
        let cache = Cache::memory_only(2);
        cache.put(&key(1), b"a");
        cache.put(&key(2), b"b");
        assert!(cache.get(&key(1)).is_some()); // touch 1, making 2 oldest
        cache.put(&key(3), b"c");
        assert!(cache.get(&key(2)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn disk_tier_survives_a_fresh_handle() {
        let _counters = exclusive_counters();
        let dir = scratch("persist");
        let _ = fs::remove_dir_all(&dir);
        {
            let cache = Cache::open(&dir).unwrap();
            cache.put(&key(7), b"persisted");
        }
        let cache = Cache::open(&dir).unwrap();
        assert_eq!(cache.get(&key(7)).as_deref(), Some(&b"persisted"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payloads_may_contain_newlines_and_binary() {
        let _counters = exclusive_counters();
        let dir = scratch("binary");
        let _ = fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        let payload: Vec<u8> = (0..=255u8).chain(*b"\n\n\ntail").collect();
        cache.put(&key(9), &payload);
        let fresh = Cache::open(&dir).unwrap();
        assert_eq!(fresh.get(&key(9)).as_deref(), Some(&payload[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_discarded_as_a_miss() {
        let _counters = exclusive_counters();
        let dir = scratch("truncated");
        let _ = fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        cache.put(&key(3), b"about to be torn");
        let path = cache.entry_path(&key(3)).unwrap();
        let full = fs::read(&path).unwrap();
        for keep in [0, 4, full.len() / 2, full.len() - 2] {
            fs::write(&path, &full[..keep]).unwrap();
            let fresh = Cache::open(&dir).unwrap();
            assert_eq!(fresh.get(&key(3)), None, "keep {keep}");
            assert!(!path.exists(), "corrupt entry deleted (keep {keep})");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_crc_byte_is_discarded_as_a_miss() {
        let _counters = exclusive_counters();
        let dir = scratch("bitflip");
        let _ = fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        cache.put(&key(4), b"checksummed");
        let path = cache.entry_path(&key(4)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let fresh = Cache::open(&dir).unwrap();
        assert_eq!(fresh.get(&key(4)), None);
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_engine_salt_is_discarded_as_a_miss() {
        let _counters = exclusive_counters();
        let dir = scratch("salt");
        let _ = fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        let path = cache.entry_path(&key(5)).unwrap();
        // A well-formed entry (valid CRC) written by a previous engine
        // version: the header salt gives it away.
        write_entry(&path, &key(5), ENGINE_SALT ^ 0xDEAD, b"stale").unwrap();
        assert_eq!(cache.get(&key(5)), None);
        assert!(!path.exists(), "stale-version entry deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_echo_mismatch_is_discarded_as_a_miss() {
        let _counters = exclusive_counters();
        let dir = scratch("echo");
        let _ = fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        // A valid entry for key 6 placed under key 7's file name (e.g. a
        // botched manual copy between cache directories).
        let path = cache.entry_path(&key(7)).unwrap();
        write_entry(&path, &key(6), ENGINE_SALT, b"misfiled").unwrap();
        assert_eq!(cache.get(&key(7)), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_conserve_lookups_and_stores() {
        let _counters = exclusive_counters();
        let before = elivagar_obs::metrics::snapshot();
        let dir = scratch("counters");
        let _ = fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        for n in 0..8 {
            assert!(cache.get(&key(100 + n)).is_none());
            cache.put(&key(100 + n), b"x");
        }
        for n in 0..8 {
            assert!(cache.get(&key(100 + n)).is_some());
        }
        let delta = elivagar_obs::metrics::snapshot().since(&before);
        let c = |name| delta.counter(name);
        assert_eq!(c("cache.lookups"), c("cache.hits") + c("cache.misses"));
        assert!(c("cache.misses") >= c("cache.stores"));
        assert_eq!(c("cache.hits"), 8);
        assert_eq!(c("cache.misses"), 8);
        assert_eq!(c("cache.stores"), 8);
        fs::remove_dir_all(&dir).unwrap();
    }
}
