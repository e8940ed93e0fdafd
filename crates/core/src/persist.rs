//! Crash-safe on-disk persistence for the content-addressed compile cache.
//!
//! The in-memory compile cache (PR 4/5, `crate::cache`) turns a repeated
//! `(circuit, device, cost model, options, budget)` tuple into a ~150×
//! warm-path win — but only within one process. This module extends that
//! cache with a disk tier so warm state survives restarts and can be
//! shipped between machines: one file per 128-bit compile key, holding a
//! checksummed, version-stamped serialization of the whole
//! [`CompileResult`].
//!
//! The tier is built for hostile conditions, not happy paths:
//!
//! * **Atomic writes.** Entries are written to a temp file in the cache
//!   directory and `rename`d into place, so a crash mid-write leaves at
//!   worst an orphaned temp file — never a half-written entry under a
//!   live key.
//! * **Validate-then-trust.** Every load re-checks the magic, the format
//!   version, the embedded key (which must match the requested key, so a
//!   file copied under another key's name is rejected), the payload
//!   length, and a 128-bit FNV checksum of the payload before a byte of
//!   it is deserialized.
//! * **Quarantine, never crash.** Any validation failure renames the
//!   entry to `*.quarantined` and reports a miss; the caller recompiles
//!   and overwrites. A poisoned cache directory costs recomputation,
//!   never wrong output and never a panic.
//!
//! Entries are loaded lazily — the daemon consults the directory only on
//! an in-memory miss — so startup cost is independent of cache size.
//!
//! ## Entry format (version 1)
//!
//! ```text
//! qsync 1 <key:032x> <payload-len> <fnv128(payload):032x>\n
//! <payload: one JSON object, exactly payload-len bytes>
//! ```
//!
//! The payload serializes the placement map, the three circuit stages,
//! and the full [`CompileMetrics`] (via its existing JSON codec), so a
//! disk hit replays through the same
//! [`replay_cached`](crate::Compiler) path as a memory hit —
//! byte-identical output, fully traced.

use crate::compiler::CompileResult;
use crate::place::Placement;
use qsyn_circuit::{Circuit, Fnv128};
use qsyn_gate::{Gate, SINGLE_OPS};
use qsyn_trace::json::{self, Value};
use qsyn_trace::CompileMetrics;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Current on-disk entry format version. Bump on any payload or header
/// change: entries stamped with another version quarantine and recompute
/// instead of being misread.
pub const FORMAT_VERSION: u32 = 1;

/// Magic token opening every entry header.
const MAGIC: &str = "qsync";

/// Outcome of a disk-tier lookup.
#[derive(Debug)]
pub enum DiskLoad {
    /// A valid entry was found, verified, and deserialized.
    Hit(Box<CompileResult>),
    /// No entry exists for the key.
    Miss,
    /// An entry existed but failed validation; it has been renamed to
    /// `*.quarantined` and the reason is reported. The caller recomputes.
    Quarantined(String),
}

/// The on-disk compile-cache tier: a directory of one-file-per-key
/// entries. Cheap to clone conceptually — wrap in an `Arc` to share
/// across worker threads; all methods take `&self`.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (creating if necessary) a cache directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for a key.
    pub fn entry_path(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{key:032x}.qsc"))
    }

    /// Loads, validates, and deserializes the entry for `key`.
    ///
    /// Never returns an error: unreadable or invalid entries are
    /// quarantined and reported as [`DiskLoad::Quarantined`] so the
    /// caller falls back to a cold compile.
    pub fn load(&self, key: u128) -> DiskLoad {
        let path = self.entry_path(key);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                crate::cache::note_disk_miss();
                return DiskLoad::Miss;
            }
            Err(e) => return self.quarantine(&path, &format!("unreadable entry: {e}")),
        };
        match validate_entry(&raw, key) {
            Ok(result) => {
                crate::cache::note_disk_hit();
                DiskLoad::Hit(Box::new(result))
            }
            Err(reason) => self.quarantine(&path, &reason),
        }
    }

    /// Serializes and atomically writes the entry for `key`: the bytes are
    /// assembled in full, written to a temp file in the cache directory,
    /// and `rename`d over the final name, so readers and a crash mid-write
    /// both see either the old entry or the new one — never a torn entry.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or renaming the temp file (the temp file is
    /// removed on failure, best-effort).
    pub fn store(&self, key: u128, result: &CompileResult) -> io::Result<()> {
        let payload = serialize_result(result).to_string().into_bytes();
        let mut entry = header_line(key, &payload).into_bytes();
        entry.extend_from_slice(&payload);
        let tmp = self
            .dir
            .join(format!(".tmp-{key:032x}-{}", std::process::id()));
        let write = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&entry)?;
            f.sync_all()?;
            fs::rename(&tmp, self.entry_path(key))
        })();
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
        } else {
            crate::cache::note_disk_write();
        }
        write
    }

    /// Moves a failed entry aside (never deletes it — quarantined files
    /// are evidence) and counts the quarantine.
    fn quarantine(&self, path: &Path, reason: &str) -> DiskLoad {
        let mut target = path.as_os_str().to_owned();
        target.push(".quarantined");
        // A second corruption of the same key overwrites the first
        // quarantine file; if even the rename fails, fall back to removal
        // so the poisoned entry cannot be served forever.
        if fs::rename(path, &target).is_err() {
            let _ = fs::remove_file(path);
        }
        crate::cache::note_disk_quarantine();
        DiskLoad::Quarantined(reason.to_string())
    }

    /// Deliberately corrupts the stored entry for `key` by flipping one
    /// payload byte — the "poisoned disk entry" service fault. Requires an
    /// existing entry.
    ///
    /// # Errors
    ///
    /// I/O errors, or an entry too short to poison.
    #[cfg(feature = "fault-injection")]
    pub fn poison(&self, key: u128) -> io::Result<()> {
        let path = self.entry_path(key);
        let mut raw = fs::read(&path)?;
        let last = raw.len().checked_sub(1).ok_or(io::ErrorKind::UnexpectedEof)?;
        raw[last] ^= 0x40;
        fs::write(&path, raw)
    }

    /// Truncates the stored entry for `key` to half its length, simulating
    /// a partial write that a crash (kill between `write` and `rename`,
    /// with a non-atomic writer) could leave behind. Requires an existing
    /// entry.
    ///
    /// # Errors
    ///
    /// I/O errors reading or rewriting the entry.
    #[cfg(feature = "fault-injection")]
    pub fn truncate_entry(&self, key: u128) -> io::Result<()> {
        let path = self.entry_path(key);
        let raw = fs::read(&path)?;
        fs::write(&path, &raw[..raw.len() / 2])
    }

    /// Scans the directory and deletes entries violating the given caps:
    /// first every entry older than `max_age`, then — if the survivors
    /// still exceed `max_bytes` — the oldest-mtime entries until the
    /// directory fits. Quarantined files and temp files are left alone
    /// (quarantines are evidence; temp files belong to in-flight writers).
    ///
    /// The daemon runs this at startup and then periodically while
    /// serving (`--cache-max-bytes` / `--cache-max-age`, on the
    /// metrics-file cadence); deletions are counted in the
    /// `cache.disk.evicted_entries` / `cache.disk.evicted_bytes` metrics.
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory. Per-entry stat or delete
    /// failures are tolerated: an entry that vanishes mid-scan (another
    /// process evicting concurrently) is simply skipped.
    pub fn evict(
        &self,
        max_bytes: Option<u64>,
        max_age: Option<std::time::Duration>,
    ) -> io::Result<EvictionSummary> {
        let now = std::time::SystemTime::now();
        let mut entries: Vec<(PathBuf, std::time::SystemTime, u64)> = Vec::new();
        for dirent in fs::read_dir(&self.dir)? {
            let Ok(dirent) = dirent else { continue };
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("qsc") {
                continue;
            }
            let Ok(meta) = dirent.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(now);
            entries.push((path, mtime, meta.len()));
        }
        let mut summary = EvictionSummary {
            scanned: entries.len(),
            ..EvictionSummary::default()
        };
        // Oldest first: the age pass walks a prefix of this order and the
        // size pass continues from wherever it stopped.
        entries.sort_by_key(|&(_, mtime, _)| mtime);
        let mut total: u64 = entries.iter().map(|&(_, _, len)| len).sum();
        for (path, mtime, len) in entries {
            let too_old = max_age
                .is_some_and(|cap| now.duration_since(mtime).is_ok_and(|age| age > cap));
            let too_big = max_bytes.is_some_and(|cap| total > cap);
            if !(too_old || too_big) {
                summary.remaining += 1;
                summary.remaining_bytes += len;
                continue;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                summary.evicted += 1;
                summary.evicted_bytes += len;
            } else {
                summary.remaining += 1;
                summary.remaining_bytes += len;
            }
        }
        crate::cache::note_disk_eviction(summary.evicted as u64, summary.evicted_bytes);
        Ok(summary)
    }
}

/// What one [`DiskCache::evict`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionSummary {
    /// Entries found in the directory.
    pub scanned: usize,
    /// Entries deleted.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries kept.
    pub remaining: usize,
    /// Bytes still held by kept entries.
    pub remaining_bytes: u64,
}

/// Renders the entry header for a payload.
fn header_line(key: u128, payload: &[u8]) -> String {
    format!(
        "{MAGIC} {FORMAT_VERSION} {key:032x} {} {:032x}\n",
        payload.len(),
        checksum(payload)
    )
}

/// 128-bit FNV checksum of the payload bytes.
fn checksum(payload: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(payload);
    h.finish()
}

/// Header + payload validation; returns the deserialized result or the
/// human-readable reason the entry cannot be trusted.
fn validate_entry(raw: &[u8], want_key: u128) -> Result<CompileResult, String> {
    let newline = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("truncated entry: no header line")?;
    let header =
        std::str::from_utf8(&raw[..newline]).map_err(|_| "header is not UTF-8".to_string())?;
    let fields: Vec<&str> = header.split(' ').collect();
    if fields.len() != 5 || fields[0] != MAGIC {
        return Err(format!("malformed header `{header}`"));
    }
    let version: u32 = fields[1]
        .parse()
        .map_err(|_| format!("malformed version `{}`", fields[1]))?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "stale format version {version} (this build writes {FORMAT_VERSION})"
        ));
    }
    let key = u128::from_str_radix(fields[2], 16)
        .map_err(|_| format!("malformed key `{}`", fields[2]))?;
    if key != want_key {
        return Err(format!(
            "key mismatch: entry is for {key:032x}, lookup wanted {want_key:032x}"
        ));
    }
    let len: usize = fields[3]
        .parse()
        .map_err(|_| format!("malformed length `{}`", fields[3]))?;
    let sum = u128::from_str_radix(fields[4], 16)
        .map_err(|_| format!("malformed checksum `{}`", fields[4]))?;
    let payload = &raw[newline + 1..];
    if payload.len() != len {
        return Err(format!(
            "truncated payload: header claims {len} bytes, file holds {}",
            payload.len()
        ));
    }
    if checksum(payload) != sum {
        return Err("payload checksum mismatch".to_string());
    }
    let text =
        std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let value = json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    deserialize_result(&value).map_err(|e| format!("payload rejected: {e}"))
}

// ---------------------------------------------------------------------------
// CompileResult <-> JSON codec.
// ---------------------------------------------------------------------------

/// Serializes a compile result to the version-1 payload object.
fn serialize_result(result: &CompileResult) -> Value {
    Value::Obj(vec![
        (
            "placement".to_string(),
            Value::Arr(
                result
                    .placement
                    .as_slice()
                    .iter()
                    .map(|&p| Value::Num(p as f64))
                    .collect(),
            ),
        ),
        ("placed".to_string(), serialize_circuit(&result.placed)),
        (
            "unoptimized".to_string(),
            serialize_circuit(&result.unoptimized),
        ),
        ("optimized".to_string(), serialize_circuit(&result.optimized)),
        ("metrics".to_string(), result.metrics.to_json()),
    ])
}

/// Rebuilds a compile result from the version-1 payload object.
fn deserialize_result(v: &Value) -> Result<CompileResult, String> {
    let map: Vec<usize> = v
        .get("placement")
        .and_then(Value::as_arr)
        .ok_or("missing placement array")?
        .iter()
        .map(|p| p.as_usize().ok_or("non-numeric placement entry"))
        .collect::<Result<_, _>>()?;
    let placed = deserialize_circuit(v.get("placed").ok_or("missing placed circuit")?)?;
    let unoptimized =
        deserialize_circuit(v.get("unoptimized").ok_or("missing unoptimized circuit")?)?;
    let optimized = deserialize_circuit(v.get("optimized").ok_or("missing optimized circuit")?)?;
    let metrics = CompileMetrics::from_json(v.get("metrics").ok_or("missing metrics")?)
        .ok_or("unreadable metrics")?;
    Ok(CompileResult {
        placement: Placement::from_map(map),
        placed,
        unoptimized,
        optimized,
        verified: metrics.verified,
        metrics,
    })
}

/// Serializes a circuit as `{"n": .., "name": .., "gates": [..]}` with one
/// compact array per gate.
fn serialize_circuit(c: &Circuit) -> Value {
    let gates = c
        .gates()
        .iter()
        .map(|g| {
            let tag = |s: &str| Value::Str(s.to_string());
            let num = |q: usize| Value::Num(q as f64);
            Value::Arr(match g {
                Gate::Single { op, qubit } => vec![tag(op.qasm_name()), num(*qubit)],
                Gate::Cx { control, target } => vec![tag("cx"), num(*control), num(*target)],
                Gate::Cz { control, target } => vec![tag("cz"), num(*control), num(*target)],
                Gate::Swap { a, b } => vec![tag("swap"), num(*a), num(*b)],
                Gate::Mct { controls, target } => vec![
                    tag("mct"),
                    Value::Arr(controls.iter().map(|&q| num(q)).collect()),
                    num(*target),
                ],
            })
        })
        .collect();
    let mut fields = vec![
        ("n".to_string(), Value::Num(c.n_qubits() as f64)),
        ("gates".to_string(), Value::Arr(gates)),
    ];
    if let Some(name) = c.name() {
        fields.insert(1, ("name".to_string(), Value::Str(name.to_string())));
    }
    Value::Obj(fields)
}

/// Validating circuit deserializer: every line index is bounds-checked and
/// gate invariants (distinct lines) are rejected with an error, never an
/// assertion, so a corrupted payload that slips past the checksum still
/// cannot panic the loader.
fn deserialize_circuit(v: &Value) -> Result<Circuit, String> {
    let n = v
        .get("n")
        .and_then(Value::as_usize)
        .ok_or("circuit missing qubit count")?;
    let line = |q: &Value| -> Result<usize, String> {
        let q = q.as_usize().ok_or("non-numeric qubit index")?;
        if q >= n {
            return Err(format!("qubit index {q} out of range for {n} lines"));
        }
        Ok(q)
    };
    let mut gates = Vec::new();
    for g in v
        .get("gates")
        .and_then(Value::as_arr)
        .ok_or("circuit missing gates array")?
    {
        let parts = g.as_arr().ok_or("gate is not an array")?;
        let tag = parts
            .first()
            .and_then(Value::as_str)
            .ok_or("gate missing mnemonic")?;
        let two = |ctor: fn(usize, usize) -> Gate| -> Result<Gate, String> {
            if parts.len() != 3 {
                return Err(format!("`{tag}` wants 2 lines, got {}", parts.len() - 1));
            }
            let (a, b) = (line(&parts[1])?, line(&parts[2])?);
            if a == b {
                return Err(format!("`{tag}` with a repeated line {a}"));
            }
            Ok(ctor(a, b))
        };
        let gate = match tag {
            "cx" => two(Gate::cx)?,
            "cz" => two(Gate::cz)?,
            "swap" => two(Gate::swap)?,
            "mct" => {
                if parts.len() != 3 {
                    return Err("`mct` wants [controls, target]".to_string());
                }
                let controls: Vec<usize> = parts[1]
                    .as_arr()
                    .ok_or("`mct` controls is not an array")?
                    .iter()
                    .map(line)
                    .collect::<Result<_, _>>()?;
                let target = line(&parts[2])?;
                let mut sorted = controls.clone();
                sorted.sort_unstable();
                if sorted.windows(2).any(|w| w[0] == w[1]) || sorted.contains(&target) {
                    return Err("`mct` with repeated lines".to_string());
                }
                Gate::mct(controls, target)
            }
            op => {
                let op = SINGLE_OPS
                    .into_iter()
                    .find(|o| o.qasm_name() == tag)
                    .ok_or_else(|| format!("unknown gate mnemonic `{op}`"))?;
                if parts.len() != 2 {
                    return Err(format!("`{tag}` wants 1 line"));
                }
                Gate::single(op, line(&parts[1])?)
            }
        };
        gates.push(gate);
    }
    let mut c = Circuit::from_gates(n, gates);
    if let Some(name) = v.get("name").and_then(Value::as_str) {
        c.set_name(name);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsyn_arch::devices;
    use crate::Compiler;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qsyn-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn toffoli_result() -> CompileResult {
        let mut spec = Circuit::new(3);
        spec.push(Gate::toffoli(0, 1, 2));
        Compiler::new(devices::ibmqx4())
            .compile(&spec)
            .expect("toffoli compiles")
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let result = toffoli_result();
        let back = deserialize_result(&serialize_result(&result)).expect("round trip");
        assert_eq!(back.placement, result.placement);
        assert_eq!(back.placed, result.placed);
        assert_eq!(back.unoptimized, result.unoptimized);
        assert_eq!(back.optimized, result.optimized);
        assert_eq!(back.verified, result.verified);
        assert_eq!(back.metrics.to_json(), result.metrics.to_json());
    }

    #[test]
    fn circuit_codec_covers_every_gate_kind() {
        let mut c = Circuit::new(5).with_name("menagerie");
        for op in SINGLE_OPS {
            c.push(Gate::single(op, 0));
        }
        c.push(Gate::cx(0, 1));
        c.push(Gate::cz(1, 2));
        c.push(Gate::swap(2, 3));
        c.push(Gate::mct(vec![0, 1, 2], 4));
        let back = deserialize_circuit(&serialize_circuit(&c)).expect("round trip");
        assert_eq!(back, c);
    }

    #[test]
    fn store_load_hits_and_misses() {
        let cache = DiskCache::open(tmp_dir("hit")).unwrap();
        let result = toffoli_result();
        assert!(matches!(cache.load(7), DiskLoad::Miss));
        cache.store(7, &result).unwrap();
        match cache.load(7) {
            DiskLoad::Hit(back) => assert_eq!(back.optimized, result.optimized),
            other => panic!("want hit, got {other:?}"),
        }
        // No temp files linger after a successful store.
        let stray: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bit_flip_quarantines_and_recompute_matches_cold_compile() {
        let cache = DiskCache::open(tmp_dir("bit-flip")).unwrap();
        let result = toffoli_result();
        cache.store(11, &result).unwrap();
        // Flip one bit in the middle of the payload.
        let path = cache.entry_path(11);
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x01;
        fs::write(&path, raw).unwrap();
        match cache.load(11) {
            DiskLoad::Quarantined(reason) => {
                assert!(
                    reason.contains("checksum") || reason.contains("payload"),
                    "{reason}"
                )
            }
            other => panic!("want quarantine, got {other:?}"),
        }
        // The entry moved aside as evidence; the live name is free again.
        assert!(!path.exists());
        let mut quarantined = path.into_os_string();
        quarantined.push(".quarantined");
        assert!(PathBuf::from(quarantined).exists());
        // The recompute a quarantine falls back to is byte-identical to
        // the original cold compile.
        let recomputed = toffoli_result();
        assert_eq!(
            recomputed.optimized.to_qasm().unwrap(),
            result.optimized.to_qasm().unwrap()
        );
        cache.store(11, &recomputed).unwrap();
        assert!(matches!(cache.load(11), DiskLoad::Hit(_)));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncation_quarantines() {
        let cache = DiskCache::open(tmp_dir("truncate")).unwrap();
        cache.store(13, &toffoli_result()).unwrap();
        let path = cache.entry_path(13);
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        match cache.load(13) {
            DiskLoad::Quarantined(reason) => {
                assert!(reason.contains("truncated"), "{reason}")
            }
            other => panic!("want quarantine, got {other:?}"),
        }
        // Truncating into the header line loses the newline entirely.
        let cache2 = DiskCache::open(tmp_dir("truncate-header")).unwrap();
        cache2.store(13, &toffoli_result()).unwrap();
        let path2 = cache2.entry_path(13);
        let raw2 = fs::read(&path2).unwrap();
        fs::write(&path2, &raw2[..8]).unwrap();
        assert!(matches!(cache2.load(13), DiskLoad::Quarantined(_)));
        let _ = fs::remove_dir_all(cache.dir());
        let _ = fs::remove_dir_all(cache2.dir());
    }

    #[test]
    fn stale_version_stamp_quarantines() {
        let cache = DiskCache::open(tmp_dir("stale")).unwrap();
        cache.store(17, &toffoli_result()).unwrap();
        let path = cache.entry_path(17);
        let raw = fs::read(&path).unwrap();
        // Restamp the header with a future format version, leaving the
        // payload untouched (a downgraded binary reading a newer cache).
        let newline = raw.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&raw[..newline]).unwrap();
        let bumped = header.replacen(
            &format!("{MAGIC} {FORMAT_VERSION} "),
            &format!("{MAGIC} {} ", FORMAT_VERSION + 1),
            1,
        );
        let mut rewritten = bumped.into_bytes();
        rewritten.extend_from_slice(&raw[newline..]);
        fs::write(&path, rewritten).unwrap();
        match cache.load(17) {
            DiskLoad::Quarantined(reason) => {
                assert!(reason.contains("stale format version"), "{reason}")
            }
            other => panic!("want quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entry_copied_under_another_key_quarantines() {
        // Two cost models yield two distinct compile keys for the same
        // circuit (CostModel::cache_params feeds the key); copying one
        // model's entry under the other's key must not serve wrong
        // results — the embedded key defeats the swap.
        let mut spec = Circuit::new(3);
        spec.push(Gate::toffoli(0, 1, 2));
        let eqn2_key = Compiler::new(devices::ibmqx4())
            .with_cache(crate::cache::CacheMode::Mem)
            .compile_key(&spec)
            .expect("mem mode has a key");
        let volume_key = Compiler::new(devices::ibmqx4())
            .with_cost_model(Box::new(qsyn_arch::VolumeCost))
            .with_cache(crate::cache::CacheMode::Mem)
            .compile_key(&spec)
            .expect("mem mode has a key");
        assert_ne!(eqn2_key, volume_key, "cache_params must separate keys");

        let cache = DiskCache::open(tmp_dir("cross-key")).unwrap();
        cache.store(eqn2_key, &toffoli_result()).unwrap();
        fs::copy(cache.entry_path(eqn2_key), cache.entry_path(volume_key)).unwrap();
        match cache.load(volume_key) {
            DiskLoad::Quarantined(reason) => {
                assert!(reason.contains("key mismatch"), "{reason}")
            }
            other => panic!("want quarantine, got {other:?}"),
        }
        // The legitimate entry is untouched.
        assert!(matches!(cache.load(eqn2_key), DiskLoad::Hit(_)));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn evict_by_age_clears_old_entries_and_spares_quarantines() {
        let cache = DiskCache::open(tmp_dir("evict-age")).unwrap();
        let result = toffoli_result();
        for key in [21u128, 22, 23] {
            cache.store(key, &result).unwrap();
        }
        // A quarantined file must survive any sweep (it is evidence).
        fs::write(cache.dir().join("bad.qsc.quarantined"), b"junk").unwrap();
        // max_age = 0 makes every entry "too old".
        let summary = cache
            .evict(None, Some(std::time::Duration::from_secs(0)))
            .unwrap();
        assert_eq!(summary.scanned, 3);
        assert_eq!(summary.evicted, 3);
        assert_eq!(summary.remaining, 0);
        assert!(summary.evicted_bytes > 0);
        assert!(cache.dir().join("bad.qsc.quarantined").exists());
        for key in [21u128, 22, 23] {
            assert!(!cache.entry_path(key).exists());
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn evict_by_bytes_removes_oldest_first() {
        let cache = DiskCache::open(tmp_dir("evict-bytes")).unwrap();
        let result = toffoli_result();
        for key in [31u128, 32, 33] {
            cache.store(key, &result).unwrap();
            // Space the mtimes out past the filesystem's timestamp
            // granularity so "oldest" is well defined.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let entry_len = fs::metadata(cache.entry_path(31)).unwrap().len();
        // Cap at two entries' worth: the single oldest entry must go.
        let summary = cache.evict(Some(entry_len * 2), None).unwrap();
        assert_eq!(summary.evicted, 1, "{summary:?}");
        assert_eq!(summary.remaining, 2);
        assert!(!cache.entry_path(31).exists(), "oldest entry evicted");
        assert!(cache.entry_path(32).exists());
        assert!(cache.entry_path(33).exists());
        assert!(summary.remaining_bytes <= entry_len * 2);
        // A sweep with generous caps is a no-op.
        let idle = cache.evict(Some(entry_len * 10), None).unwrap();
        assert_eq!(idle.evicted, 0);
        assert_eq!(idle.remaining, 2);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn eviction_bumps_the_global_counters() {
        let cache = DiskCache::open(tmp_dir("evict-count")).unwrap();
        cache.store(41, &toffoli_result()).unwrap();
        let before = crate::cache::stats();
        cache.evict(Some(0), None).unwrap();
        let after = crate::cache::stats();
        assert_eq!(after.disk_evicted_entries - before.disk_evicted_entries, 1);
        assert!(after.disk_evicted_bytes > before.disk_evicted_bytes);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn malformed_payload_quarantines_not_panics() {
        let cache = DiskCache::open(tmp_dir("bad-payload")).unwrap();
        // A structurally valid entry whose payload passes the checksum but
        // fails deserialization (an out-of-range qubit index).
        let payload = br#"{"placement":[0],"placed":{"n":1,"gates":[["cx",0,9]]}}"#;
        let mut entry = header_line(3, payload).into_bytes();
        entry.extend_from_slice(payload);
        fs::write(cache.entry_path(3), entry).unwrap();
        match cache.load(3) {
            DiskLoad::Quarantined(reason) => {
                assert!(reason.contains("out of range"), "{reason}")
            }
            other => panic!("want quarantine, got {other:?}"),
        }
        assert!(!cache.entry_path(3).exists());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
