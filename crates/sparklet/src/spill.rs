//! Disk tier for out-of-core execution: per-executor spill files plus the
//! codec registry that serializes typed payloads into them.
//!
//! Both memory pools of the engine overflow here. The
//! [`crate::storage::BlockManager`] spills cache blocks instead of dropping
//! them when a codec for the block's element type is registered, and the
//! [`crate::shuffle::ShuffleService`] spills whole map outputs once an
//! executor's resident shuffle bytes exceed the resident-shuffle pool (a
//! fifth of executor memory). Lineage recompute remains the *last* resort:
//! it is only taken when no codec exists (cache) or the spill file died with
//! its executor (shuffle → `FetchFailed` → recovery).
//!
//! # Codecs
//!
//! Engine payloads are type-erased `Arc<Vec<T>>` behind `Arc<dyn Any>`, and
//! Rust has no reflection, so the registry maps `TypeId::of::<Vec<T>>()` to
//! a pair of closures installed by whoever knows `T`:
//!
//! * [`SpillManager::register_fixed`] covers any [`FixedBytes`] type —
//!   primitives, tuples and arrays of them serialize at a fixed width with
//!   no per-element allocation. A small set of common element types is
//!   pre-registered.
//! * [`SpillManager::register_codec`] takes explicit encode/decode closures
//!   for variable-length types. This is how `fastknn` registers its
//!   `VecBatch` payloads **column-wise** (ids, labels, then each `f64`
//!   column contiguously) — the spill format mirrors the SoA layout instead
//!   of re-rowifying.
//!
//! Round-trips must be byte-exact (`f64` travels as `to_bits`), which is
//! what keeps pinned detection digests bit-identical with spill forced on.
//!
//! # Files and failure domain
//!
//! Each executor appends to one spill file per incarnation under a
//! process-unique temp directory. Killing an executor bumps its spill
//! incarnation and deletes the file — a [`SpillSlot`] from the old
//! incarnation then refuses to read, exactly like a Spark node loss taking
//! its local shuffle files with it. The directory is removed when the last
//! cluster handle drops.

use crate::metrics::ClusterMetrics;
use crate::task;
use parking_lot::{Mutex, RwLock};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Location of one spilled payload inside an executor's spill file.
///
/// The slot is only valid for the spill-file incarnation it was written
/// under; [`SpillManager::read`] returns `None` for slots orphaned by an
/// executor kill, which callers surface as a fetch failure so lineage
/// recovery can run.
#[derive(Debug, Clone)]
pub struct SpillSlot {
    executor: usize,
    incarnation: u64,
    offset: u64,
    len: u64,
    type_key: TypeId,
}

/// Fixed-width byte serialization for POD-ish element types.
///
/// Implemented for the integer/float primitives, `bool`, 2- and 3-tuples
/// and const-size arrays of implementors. Downstream crates implement it
/// for their own `Copy` types (e.g. `fastknn`'s fixed-arity pair vectors)
/// and register them with [`SpillManager::register_fixed`].
pub trait FixedBytes: Sized + Send + Sync + 'static {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Append exactly [`FixedBytes::WIDTH`] bytes to `out`.
    fn write_to(&self, out: &mut Vec<u8>);
    /// Decode from exactly [`FixedBytes::WIDTH`] bytes.
    fn read_from(bytes: &[u8]) -> Self;
    /// Split [`FixedBytes::WIDTH`] bytes off the front of `cursor` and
    /// decode them — the one framing every spill codec reads with. `None`,
    /// leaving `cursor` where it was, when fewer bytes are left.
    fn take_from(cursor: &mut &[u8]) -> Option<Self> {
        let (head, rest) = cursor.split_at_checked(Self::WIDTH)?;
        *cursor = rest;
        Some(Self::read_from(head))
    }
}

macro_rules! fixed_bytes_int {
    ($($t:ty),*) => {$(
        impl FixedBytes for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn write_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_from(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("fixed width"))
            }
        }
    )*};
}

fixed_bytes_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl FixedBytes for usize {
    const WIDTH: usize = 8;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("fixed width")) as usize
    }
}

impl FixedBytes for bool {
    const WIDTH: usize = 1;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn read_from(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

// Floats travel as raw bits: the round-trip must be byte-exact (NaN
// payloads and signed zeros included) for pinned digests to survive spill.
impl FixedBytes for f32 {
    const WIDTH: usize = 4;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        f32::from_bits(u32::from_le_bytes(bytes.try_into().expect("fixed width")))
    }
}

impl FixedBytes for f64 {
    const WIDTH: usize = 8;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("fixed width")))
    }
}

impl<A: FixedBytes, B: FixedBytes> FixedBytes for (A, B) {
    const WIDTH: usize = A::WIDTH + B::WIDTH;
    fn write_to(&self, out: &mut Vec<u8>) {
        self.0.write_to(out);
        self.1.write_to(out);
    }
    fn read_from(bytes: &[u8]) -> Self {
        (
            A::read_from(&bytes[..A::WIDTH]),
            B::read_from(&bytes[A::WIDTH..]),
        )
    }
}

impl<A: FixedBytes, B: FixedBytes, C: FixedBytes> FixedBytes for (A, B, C) {
    const WIDTH: usize = A::WIDTH + B::WIDTH + C::WIDTH;
    fn write_to(&self, out: &mut Vec<u8>) {
        self.0.write_to(out);
        self.1.write_to(out);
        self.2.write_to(out);
    }
    fn read_from(bytes: &[u8]) -> Self {
        (
            A::read_from(&bytes[..A::WIDTH]),
            B::read_from(&bytes[A::WIDTH..A::WIDTH + B::WIDTH]),
            C::read_from(&bytes[A::WIDTH + B::WIDTH..]),
        )
    }
}

impl<T: FixedBytes, const N: usize> FixedBytes for [T; N] {
    const WIDTH: usize = T::WIDTH * N;
    fn write_to(&self, out: &mut Vec<u8>) {
        for x in self {
            x.write_to(out);
        }
    }
    fn read_from(bytes: &[u8]) -> Self {
        std::array::from_fn(|i| T::read_from(&bytes[i * T::WIDTH..(i + 1) * T::WIDTH]))
    }
}

type ErasedEncode = Box<dyn Fn(&(dyn Any + Send + Sync)) -> Option<Vec<u8>> + Send + Sync>;
type ErasedDecode = Box<dyn Fn(&[u8]) -> Option<Arc<dyn Any + Send + Sync>> + Send + Sync>;

struct Codec {
    encode: ErasedEncode,
    decode: ErasedDecode,
}

/// Write-side state of one executor's spill file.
struct ExecFile {
    /// Append handle; `None` until the first spill of this incarnation.
    file: Option<File>,
    path: PathBuf,
    incarnation: u64,
    offset: u64,
}

struct SpillInner {
    dir: PathBuf,
    shuffle_capacity: usize,
    codecs: RwLock<HashMap<TypeId, Codec>>,
    execs: Vec<Mutex<ExecFile>>,
    /// Resident bytes per executor across both pools (cache used + shuffle
    /// resident), maintained by the block manager and shuffle service.
    resident: Vec<AtomicU64>,
    /// High-water mark of `resident`, per executor.
    peak: Vec<AtomicU64>,
    metrics: ClusterMetrics,
}

impl Drop for SpillInner {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Process-unique suffix so concurrent clusters (and test threads) never
/// share a spill directory.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// The disk tier: codec registry, per-executor spill files and joint
/// resident-memory accounting. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct SpillManager {
    inner: Arc<SpillInner>,
}

impl SpillManager {
    /// Create a disk tier for `num_executors` executors.
    ///
    /// `shuffle_capacity` is the per-executor resident-shuffle byte budget.
    /// No directory or file is created until the first actual spill.
    pub fn new(num_executors: usize, shuffle_capacity: usize, metrics: ClusterMetrics) -> Self {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sparklet-spill-{}-{}", std::process::id(), seq));
        let execs = (0..num_executors.max(1))
            .map(|e| {
                Mutex::new(ExecFile {
                    file: None,
                    path: dir.join(format!("exec-{e}-0.spill")),
                    incarnation: 0,
                    offset: 0,
                })
            })
            .collect();
        let n = num_executors.max(1);
        let mgr = SpillManager {
            inner: Arc::new(SpillInner {
                dir,
                shuffle_capacity,
                codecs: RwLock::new(HashMap::new()),
                execs,
                resident: (0..n).map(|_| AtomicU64::new(0)).collect(),
                peak: (0..n).map(|_| AtomicU64::new(0)).collect(),
                metrics,
            }),
        };
        mgr.register_default_codecs();
        mgr
    }

    /// Per-executor resident-shuffle byte budget.
    pub(crate) fn shuffle_capacity(&self) -> usize {
        self.inner.shuffle_capacity
    }

    /// Register encode/decode closures for element type `T`. Payloads are
    /// whole `Vec<T>` slabs (a cache block or one shuffle bucket); `encode`
    /// appends to the output buffer, `decode` must reproduce the vector
    /// byte-exactly or return `None`. Re-registering replaces the codec.
    pub fn register_codec<T, E, D>(&self, encode: E, decode: D)
    where
        T: Send + Sync + 'static,
        E: Fn(&[T], &mut Vec<u8>) + Send + Sync + 'static,
        D: Fn(&[u8]) -> Option<Vec<T>> + Send + Sync + 'static,
    {
        let erased_encode: ErasedEncode = Box::new(move |any| {
            let v = <dyn Any>::downcast_ref::<Vec<T>>(any)?;
            let mut out = Vec::new();
            encode(v, &mut out);
            Some(out)
        });
        let erased_decode: ErasedDecode =
            Box::new(move |bytes| decode(bytes).map(|v| Arc::new(v) as Arc<dyn Any + Send + Sync>));
        self.inner.codecs.write().insert(
            TypeId::of::<Vec<T>>(),
            Codec {
                encode: erased_encode,
                decode: erased_decode,
            },
        );
    }

    /// Register the canonical fixed-width codec for a [`FixedBytes`] type.
    pub fn register_fixed<T: FixedBytes>(&self) {
        self.register_codec::<T, _, _>(
            |items, out| {
                out.reserve(items.len() * T::WIDTH);
                for x in items {
                    x.write_to(out);
                }
            },
            |mut bytes| {
                // A zero-width cursor read would never advance.
                if T::WIDTH == 0 {
                    return None;
                }
                let mut items = Vec::with_capacity(bytes.len() / T::WIDTH);
                while !bytes.is_empty() {
                    items.push(T::take_from(&mut bytes)?);
                }
                Some(items)
            },
        );
    }

    fn register_default_codecs(&self) {
        self.register_fixed::<u8>();
        self.register_fixed::<u32>();
        self.register_fixed::<u64>();
        self.register_fixed::<usize>();
        self.register_fixed::<i64>();
        self.register_fixed::<f64>();
        self.register_fixed::<(u32, u32)>();
        self.register_fixed::<(u64, u32)>();
        self.register_fixed::<(u64, u64)>();
        self.register_fixed::<(u64, f64)>();
        self.register_fixed::<(usize, u64)>();
        self.register_fixed::<[f64; 8]>();
    }

    /// Serialize `data` (a type-erased `Vec<T>`) into `executor`'s spill
    /// file. Returns `None` when no codec is registered for the payload
    /// type. Charges [`crate::CostModelConfig::spill_write_ns`] per encoded
    /// byte to the current task, if any.
    ///
    /// Public so downstream crates can round-trip-test the codecs they
    /// register; the engine calls it from the block manager and shuffle
    /// service.
    pub fn write(&self, executor: usize, data: &(dyn Any + Send + Sync)) -> Option<SpillSlot> {
        let type_key = data.type_id();
        let encoded = {
            let codecs = self.inner.codecs.read();
            (codecs.get(&type_key)?.encode)(data)?
        };
        let mut exec = self.inner.execs[executor % self.inner.execs.len()].lock();
        if exec.file.is_none() {
            std::fs::create_dir_all(&self.inner.dir).ok()?;
            exec.file = Some(
                OpenOptions::new()
                    .create(true)
                    .write(true)
                    .truncate(true)
                    .open(&exec.path)
                    .ok()?,
            );
            self.inner.metrics.spill_files_created.inc();
        }
        let offset = exec.offset;
        exec.file.as_mut()?.write_all(&encoded).ok()?;
        exec.offset += encoded.len() as u64;
        let slot = SpillSlot {
            executor: executor % self.inner.execs.len(),
            incarnation: exec.incarnation,
            offset,
            len: encoded.len() as u64,
            type_key,
        };
        drop(exec);
        self.inner.metrics.spill_bytes_written.add(slot.len);
        task::with_current(|ctx| {
            if let Some(ctx) = ctx {
                ctx.add_spill_write(slot.len);
            }
        });
        Some(slot)
    }

    /// Read a payload back from disk. Returns `None` when the slot's spill
    /// file died with its executor (the caller treats this like a lost
    /// shuffle output) or the bytes no longer decode. Charges
    /// [`crate::CostModelConfig::spill_read_ns`] per byte to the current
    /// task, if any.
    ///
    /// Public for the same reason as [`SpillManager::write`].
    pub fn read(&self, slot: &SpillSlot) -> Option<Arc<dyn Any + Send + Sync>> {
        let mut buf = vec![0u8; slot.len as usize];
        {
            let exec = self.inner.execs[slot.executor].lock();
            if exec.incarnation != slot.incarnation {
                return None;
            }
            let mut f = File::open(&exec.path).ok()?;
            f.seek(SeekFrom::Start(slot.offset)).ok()?;
            f.read_exact(&mut buf).ok()?;
        }
        let decoded = self.decode_as(slot.type_key, &buf)?;
        self.inner.metrics.spill_bytes_read.add(slot.len);
        task::with_current(|ctx| {
            if let Some(ctx) = ctx {
                ctx.add_spill_read(slot.len);
            }
        });
        Some(decoded)
    }

    /// Decode `bytes` as a `Vec<T>` payload with the codec registered for
    /// `T` — what [`SpillManager::read`] does with a slot's bytes. `None`
    /// when no codec is registered or the bytes do not decode.
    ///
    /// Public so downstream crates can sweep the codecs they register over
    /// cut and garbled bytes, which a slot on disk never hands them.
    pub fn decode<T: 'static>(&self, bytes: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
        self.decode_as(TypeId::of::<Vec<T>>(), bytes)
    }

    fn decode_as(&self, type_key: TypeId, bytes: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
        let codecs = self.inner.codecs.read();
        (codecs.get(&type_key)?.decode)(bytes)
    }

    /// Drop `executor`'s spill file and invalidate every slot written to it
    /// (stale reads return `None`). Called on executor kills: the disk tier
    /// is executor-local, so it dies with the node.
    pub(crate) fn invalidate_executor(&self, executor: usize) {
        if self.inner.execs.is_empty() {
            return;
        }
        let mut exec = self.inner.execs[executor % self.inner.execs.len()].lock();
        exec.file = None;
        let _ = std::fs::remove_file(&exec.path);
        exec.incarnation += 1;
        exec.path = self.inner.dir.join(format!(
            "exec-{}-{}.spill",
            executor % self.inner.execs.len(),
            exec.incarnation
        ));
        exec.offset = 0;
    }

    /// Remove every spill file and reset resident accounting (between
    /// experiment runs; see [`crate::Cluster::reset_run_state`]).
    pub(crate) fn clear(&self) {
        for e in 0..self.inner.execs.len() {
            self.invalidate_executor(e);
        }
        for (r, p) in self.inner.resident.iter().zip(&self.inner.peak) {
            r.store(0, Ordering::Relaxed);
            p.store(0, Ordering::Relaxed);
        }
    }

    /// Account `bytes` newly resident on `executor` (cache or shuffle pool)
    /// and advance the peak high-water mark.
    pub(crate) fn add_resident(&self, executor: usize, bytes: u64) {
        let e = executor % self.inner.resident.len();
        let now = self.inner.resident[e].fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.inner.peak[e].fetch_max(now, Ordering::Relaxed);
    }

    /// Account `bytes` released from `executor`'s resident pools.
    pub(crate) fn sub_resident(&self, executor: usize, bytes: u64) {
        let e = executor % self.inner.resident.len();
        let _ = self.inner.resident[e].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
    }

    /// Current resident bytes per executor.
    pub fn resident(&self) -> Vec<u64> {
        self.inner
            .resident
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect()
    }

    /// Peak resident bytes per executor since the last reset — the job
    /// report's `peak_resident` row.
    pub(crate) fn peak_resident(&self) -> Vec<u64> {
        self.inner
            .peak
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect()
    }
}

impl std::fmt::Debug for SpillManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillManager")
            .field("shuffle_capacity", &self.inner.shuffle_capacity)
            .field("peak_resident", &self.peak_resident())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> SpillManager {
        SpillManager::new(2, 1024, ClusterMetrics::new())
    }

    fn erase<T: Send + Sync + 'static>(v: Vec<T>) -> Arc<dyn Any + Send + Sync> {
        Arc::new(v)
    }

    fn unerase<T: Clone + 'static>(any: &Arc<dyn Any + Send + Sync>) -> Vec<T> {
        <dyn Any>::downcast_ref::<Vec<T>>(&**any)
            .expect("payload type")
            .clone()
    }

    #[test]
    fn fixed_types_round_trip() {
        let m = mgr();
        let data: Vec<(u64, f64)> = (0..100).map(|i| (i, i as f64 * -0.5)).collect();
        let payload = erase(data.clone());
        let slot = m.write(0, &*payload).expect("codec pre-registered");
        assert_eq!(slot.len, 100 * 16);
        let back = m.read(&slot).expect("slot valid");
        assert_eq!(unerase::<(u64, f64)>(&back), data);
    }

    #[test]
    fn float_bits_survive_exactly() {
        let m = mgr();
        let data = vec![f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0];
        let slot = m.write(1, &*erase(data.clone())).unwrap();
        let back = unerase::<f64>(&m.read(&slot).unwrap());
        let bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
        let expect: Vec<u64> = data.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, expect, "spill must be bit-exact, NaN included");
    }

    #[test]
    fn unregistered_types_refuse_to_spill() {
        let m = mgr();
        #[derive(Clone)]
        struct Opaque(#[allow(dead_code)] String);
        let payload = erase(vec![Opaque("x".into())]);
        assert!(m.write(0, &*payload).is_none());
    }

    #[test]
    fn custom_codec_handles_variable_length() {
        let m = mgr();
        m.register_codec::<String, _, _>(
            |items, out| {
                for s in items {
                    (s.len() as u64).write_to(out);
                    out.extend_from_slice(s.as_bytes());
                }
            },
            |bytes| {
                let mut v = Vec::new();
                let mut i = 0;
                while i < bytes.len() {
                    let n = u64::read_from(bytes.get(i..i + 8)?) as usize;
                    i += 8;
                    v.push(String::from_utf8(bytes.get(i..i + n)?.to_vec()).ok()?);
                    i += n;
                }
                Some(v)
            },
        );
        let data = vec!["adr".to_string(), "".to_string(), "réaction".to_string()];
        let slot = m.write(0, &*erase(data.clone())).unwrap();
        assert_eq!(unerase::<String>(&m.read(&slot).unwrap()), data);
    }

    #[test]
    fn slots_interleave_within_one_file() {
        let m = mgr();
        let a = m.write(0, &*erase(vec![1u64, 2, 3])).unwrap();
        let b = m.write(0, &*erase((0..50u32).collect::<Vec<_>>())).unwrap();
        let c = m.write(0, &*erase(vec![9u64])).unwrap();
        assert_eq!(unerase::<u64>(&m.read(&c).unwrap()), vec![9]);
        assert_eq!(unerase::<u64>(&m.read(&a).unwrap()), vec![1, 2, 3]);
        assert_eq!(
            unerase::<u32>(&m.read(&b).unwrap()),
            (0..50).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn killing_an_executor_orphans_its_slots() {
        let m = mgr();
        let before = m.write(0, &*erase(vec![7u8; 16])).unwrap();
        let other = m.write(1, &*erase(vec![8u8; 16])).unwrap();
        m.invalidate_executor(0);
        assert!(m.read(&before).is_none(), "stale incarnation must not read");
        assert!(m.read(&other).is_some(), "executor 1's file is untouched");
        let after = m.write(0, &*erase(vec![9u8; 4])).unwrap();
        assert_eq!(unerase::<u8>(&m.read(&after).unwrap()), vec![9u8; 4]);
    }

    #[test]
    fn resident_accounting_tracks_the_peak() {
        let m = mgr();
        m.add_resident(0, 100);
        m.add_resident(0, 400);
        m.sub_resident(0, 300);
        m.add_resident(1, 50);
        assert_eq!(m.resident(), vec![200, 50]);
        assert_eq!(m.peak_resident(), vec![500, 50]);
        m.sub_resident(0, 10_000); // saturates, never underflows
        assert_eq!(m.resident()[0], 0);
        m.clear();
        assert_eq!(m.peak_resident(), vec![0, 0]);
    }

    #[test]
    fn spill_metrics_count_bytes_both_ways() {
        let metrics = ClusterMetrics::new();
        let m = SpillManager::new(1, 64, metrics.clone());
        let slot = m.write(0, &*erase(vec![0u64; 10])).unwrap();
        m.read(&slot).unwrap();
        assert_eq!(metrics.spill_bytes_written.get(), 80);
        assert_eq!(metrics.spill_bytes_read.get(), 80);
        assert_eq!(metrics.spill_files_created.get(), 1);
    }
}
