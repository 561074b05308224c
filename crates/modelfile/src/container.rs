//! The `.adm` binary container: header, metadata KVs, and dtype-tagged
//! tensor payloads (see `docs/FORMAT.md` for the normative byte-level
//! spec).
//!
//! The layout is GGUF-inspired and optimized for cold start: all
//! variable-length structure (KV section, tensor index) lives in a
//! prefix that is parsed once, and every tensor payload sits at a
//! 64-byte-aligned offset inside one contiguous data section — the
//! whole file arrives with a single sequential read and the hot path
//! never parses per tensor.
//!
//! Neither direction ever holds a payload twice: [`Container::read`]
//! streams the file through one 64 KiB buffer straight into the
//! decoded payloads, and [`ContainerBuilder`] encodes from handles.
//!
//! Parsing is defensive: every failure mode on hostile bytes is a typed
//! [`ModelFileError`], never a panic, and every tensor checksum is
//! verified before [`Container::read`] or [`Container::from_bytes`]
//! returns.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::error::ModelFileError;
use antidote_core::checkpoint::{atomic_write, fnv1a_extend, FNV_OFFSET};
use antidote_tensor::quant::QuantizedMatrix;
use antidote_tensor::Tensor;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic, the first four bytes of every `.adm` file.
pub const MAGIC: [u8; 4] = *b"ADMF";

/// Current container format version (header field 2).
pub const FORMAT_VERSION: u32 = 1;

/// Tensor payload alignment in bytes. Every payload offset — relative
/// to the data section, which itself starts on an alignment boundary in
/// the file — is a multiple of this.
pub const ALIGNMENT: u32 = 64;

/// Fixed header size in bytes (magic through `data_size`).
pub const HEADER_LEN: usize = 32;

/// Longest accepted KV key / tensor name, in bytes.
pub const MAX_NAME_LEN: u32 = 1024;

/// Longest accepted KV string value, in bytes (model configs are JSON).
pub const MAX_KV_STR_LEN: u32 = 1 << 20;

/// Highest accepted tensor rank.
pub const MAX_RANK: u8 = 8;

/// Most KV entries / tensors a file may declare.
pub const MAX_COUNT: u32 = 65_536;

/// Bytes per read of [`Container::read`] and per encoded block of
/// [`ContainerBuilder::write_to`]: the only payload-sized buffer either
/// direction holds besides the payloads themselves.
const CHUNK: usize = 64 * 1024;

/// FNV-1a 64 over a byte slice — the per-tensor checksum algorithm, the
/// same function as the checkpoint state checksum (re-exported from
/// `antidote-core`).
pub use antidote_core::checkpoint::fnv1a;

/// A metadata value. Unknown *keys* are ignored by loaders (forward
/// compatibility); an unknown value-type *tag* is a typed error because
/// its length cannot be known, so adding a variant requires a format
/// version bump.
#[derive(Debug, Clone, PartialEq)]
pub enum KvValue {
    /// UTF-8 string (tag 0).
    Str(String),
    /// Unsigned 64-bit integer (tag 1).
    U64(u64),
    /// IEEE-754 double (tag 2).
    F64(f64),
    /// Boolean (tag 3).
    Bool(bool),
}

/// Tensor element type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// Little-endian IEEE-754 `f32` values (tag 0); payload is
    /// `4 · product(dims)` bytes.
    F32,
    /// `i8` matrix with per-row dequantization scales (tag 1): `dims`
    /// must be rank 2 `[rows, cols]` and the payload is `rows·cols`
    /// `i8` bytes followed immediately by `rows` little-endian `f32`
    /// scales — the scales travel next to the weights they dequantize.
    I8,
}

impl Dtype {
    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            Dtype::F32 => 0,
            Dtype::I8 => 1,
        }
    }

    /// Decodes a tag byte; `None` for tags this build does not know.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Dtype::F32),
            1 => Some(Dtype::I8),
            _ => None,
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Dtype::F32 => "f32",
            Dtype::I8 => "i8",
        })
    }
}

/// One row of the tensor index.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorEntry {
    /// Tensor name (unique within a file).
    pub name: String,
    /// Element type.
    pub dtype: Dtype,
    /// Dimensions, outermost first.
    pub dims: Vec<u64>,
    /// Payload offset relative to the data section start; always a
    /// multiple of [`ALIGNMENT`].
    pub offset: u64,
    /// Payload size in bytes (for [`Dtype::I8`] this includes the
    /// trailing scales).
    pub nbytes: u64,
    /// FNV-1a 64 over the payload bytes.
    pub checksum: u64,
}

impl TensorEntry {
    /// Payload byte count implied by `dtype` and `dims`, or `None` on
    /// arithmetic overflow.
    fn expected_nbytes(dtype: Dtype, dims: &[u64]) -> Option<u64> {
        let mut elems: u64 = 1;
        for &d in dims {
            elems = elems.checked_mul(d)?;
        }
        match dtype {
            Dtype::F32 => elems.checked_mul(4),
            // i8 data + one f32 scale per row.
            Dtype::I8 => elems.checked_add(dims.first().copied()?.checked_mul(4)?),
        }
    }
}

/// Typed, never-panicking reads of the file prefix, over the file or an
/// in-memory image alike.
struct Cursor<R> {
    r: R,
    /// Bytes consumed so far: the file offset of the next read.
    pos: u64,
}

/// Running out of input while reading `what` at file offset `offset` is
/// [`ModelFileError::Truncated`]; anything else a reader reports is `Io`.
fn read_error(e: std::io::Error, what: &str, offset: u64) -> ModelFileError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ModelFileError::Truncated {
            what: what.to_string(),
            offset,
        }
    } else {
        ModelFileError::Io(e.to_string())
    }
}

impl<R: BufRead> Cursor<R> {
    fn fill(&mut self, buf: &mut [u8], what: &str) -> Result<(), ModelFileError> {
        self.r
            .read_exact(buf)
            .map_err(|e| read_error(e, what, self.pos))?;
        self.pos += buf.len() as u64;
        Ok(())
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], ModelFileError> {
        let mut buf = [0; N];
        self.fill(&mut buf, what)?;
        Ok(buf)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ModelFileError> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ModelFileError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ModelFileError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A length-prefixed UTF-8 string with an explicit length cap. The
    /// buffer grows with the bytes actually present, so a declared
    /// length never sizes an allocation by itself.
    fn string(&mut self, cap: u32, what: &str) -> Result<String, ModelFileError> {
        let len = self.u32(what)?;
        if len > cap {
            return Err(ModelFileError::Oversized {
                what: what.to_string(),
                declared: len as u64,
                limit: cap as u64,
            });
        }
        let mut bytes = Vec::new();
        let read = (&mut self.r)
            .take(len as u64)
            .read_to_end(&mut bytes)
            .map_err(|e| read_error(e, what, self.pos))?;
        if read != len as usize {
            return Err(read_error(std::io::ErrorKind::UnexpectedEof.into(), what, self.pos));
        }
        self.pos += len as u64;
        String::from_utf8(bytes)
            .map_err(|_| ModelFileError::Malformed(format!("{what}: not valid UTF-8")))
    }
}

/// A payload: what the builder encodes and what the reader decodes into.
/// Either way its bytes are `i8` values, then little-endian `f32`s.
#[derive(Debug)]
pub(crate) enum Payload {
    /// f32 values shared with a tensor (builder only).
    Tensor(Tensor),
    /// f32 values owned here.
    Values(Vec<f32>),
    /// An i8 matrix and its per-row scales.
    Matrix(Arc<QuantizedMatrix>),
}

impl Payload {
    /// The payload's `(i8 values, f32 values)`, in byte order.
    fn parts(&self) -> (&[i8], &[f32]) {
        match self {
            Payload::Tensor(t) => (&[], t.data()),
            Payload::Values(v) => (&[], v),
            Payload::Matrix(q) => (&q.data, &q.scales),
        }
    }

    fn dtype(&self) -> Dtype {
        match self {
            Payload::Matrix(_) => Dtype::I8,
            _ => Dtype::F32,
        }
    }

    fn nbytes(&self) -> usize {
        let (i8s, f32s) = self.parts();
        i8s.len() + 4 * f32s.len()
    }

    /// Hands the payload's bytes to `emit` in blocks of at most
    /// [`CHUNK`] bytes, encoded into `block`.
    fn encode(
        &self,
        block: &mut Vec<u8>,
        emit: &mut dyn FnMut(&[u8]) -> Result<(), ModelFileError>,
    ) -> Result<(), ModelFileError> {
        let (i8s, f32s) = self.parts();
        for values in i8s.chunks(CHUNK) {
            block.clear();
            block.extend(values.iter().map(|&v| v as u8));
            emit(block)?;
        }
        for values in f32s.chunks(CHUNK / 4) {
            block.resize(4 * values.len(), 0);
            for (word, v) in block.as_chunks_mut::<4>().0.iter_mut().zip(values) {
                *word = v.to_le_bytes();
            }
            emit(block)?;
        }
        Ok(())
    }
}

/// One payload being hashed and decoded as its bytes stream past, in
/// pieces cut anywhere.
struct Sink {
    hash: u64,
    /// Leading bytes that are `i8` values: `rows·cols` for an i8 matrix.
    i8_len: usize,
    i8s: Vec<i8>,
    f32s: Vec<f32>,
    /// The first bytes of an f32 the previous piece cut in two.
    carry: [u8; 4],
    carried: usize,
}

impl Sink {
    /// Allocates the entry's final buffers; called only once the file is
    /// known to hold every declared payload byte.
    fn new(entry: &TensorEntry) -> Self {
        let i8_len = match (entry.dtype, entry.dims.as_slice()) {
            (Dtype::I8, &[rows, cols]) => (rows * cols) as usize, // no overflow: checked at parse
            _ => 0,
        };
        Self {
            hash: FNV_OFFSET,
            i8_len,
            i8s: Vec::with_capacity(i8_len),
            f32s: Vec::with_capacity((entry.nbytes as usize).saturating_sub(i8_len) / 4),
            carry: [0; 4],
            carried: 0,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        self.hash = fnv1a_extend(self.hash, bytes);
        let i8_left = self.i8_len - self.i8s.len();
        let (i8s, mut rest) = bytes.split_at(bytes.len().min(i8_left));
        self.i8s.extend(i8s.iter().map(|&b| b as i8));
        if self.carried > 0 {
            let (head, tail) = rest.split_at(rest.len().min(4 - self.carried));
            for (slot, &b) in self.carry.iter_mut().skip(self.carried).zip(head) {
                *slot = b;
            }
            self.carried += head.len();
            rest = tail;
            if self.carried < 4 {
                return;
            }
            self.f32s.push(f32::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let (words, tail) = rest.as_chunks::<4>();
        self.f32s.extend(words.iter().map(|w| f32::from_le_bytes(*w)));
        for (slot, &b) in self.carry.iter_mut().zip(tail) {
            *slot = b;
        }
        self.carried = tail.len();
    }

    fn finish(self, entry: &TensorEntry) -> Payload {
        match (entry.dtype, entry.dims.as_slice()) {
            (Dtype::I8, &[rows, cols]) => Payload::Matrix(Arc::new(QuantizedMatrix {
                data: self.i8s,
                scales: self.f32s,
                rows: rows as usize,
                cols: cols as usize,
            })),
            _ => Payload::Values(self.f32s),
        }
    }
}

/// A parsed `.adm` file: metadata, tensor index, and every payload
/// decoded. Every checksum has been verified by the time a value of
/// this type exists.
#[derive(Debug)]
pub struct Container {
    /// Metadata entries in file order.
    pub kvs: Vec<(String, KvValue)>,
    /// Tensor index in file order.
    pub tensors: Vec<TensorEntry>,
    /// Decoded payloads, parallel to `tensors`; `None` once moved out.
    payloads: Vec<Option<Payload>>,
    /// Size of the data section in bytes.
    data_len: usize,
}

impl Container {
    /// Reads and fully validates a file in one front-to-back pass
    /// through a 64 KiB buffer: the prefix is parsed, then each
    /// payload is hashed and decoded into its final buffer as it streams
    /// past, and every checksum is verified before this returns. The
    /// file's bytes are never held whole.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when the file cannot be read, otherwise
    /// the error [`Container::from_bytes`] returns for the same bytes.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, ModelFileError> {
        let io = |e: std::io::Error| ModelFileError::Io(e.to_string());
        let file = std::fs::File::open(path.as_ref()).map_err(io)?;
        let len = file.metadata().map_err(io)?.len();
        Self::parse(BufReader::with_capacity(CHUNK, file), len)
    }

    /// Parses a file image, verifying magic, version, alignment,
    /// bounds, and every tensor checksum — the parser
    /// [`Container::read`] runs, over memory.
    ///
    /// # Errors
    ///
    /// A typed [`ModelFileError`] for every way the bytes can be wrong;
    /// hostile input never panics.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ModelFileError> {
        Self::parse(bytes.as_slice(), bytes.len() as u64)
    }

    /// The one parser: `r` yields the file from its first byte and the
    /// file is `file_len` bytes long.
    fn parse(r: impl BufRead, file_len: u64) -> Result<Self, ModelFileError> {
        let mut cur = Cursor { r, pos: 0 };
        let magic = cur.array("magic")?;
        if magic != MAGIC {
            return Err(ModelFileError::BadMagic { found: magic });
        }
        let version = cur.u32("version")?;
        if version != FORMAT_VERSION {
            return Err(ModelFileError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let alignment = cur.u32("alignment")?;
        if alignment != ALIGNMENT {
            return Err(ModelFileError::BadAlignment {
                declared: alignment,
                expected: ALIGNMENT,
            });
        }
        let kv_count = cur.u32("kv count")?;
        let tensor_count = cur.u32("tensor count")?;
        let _reserved = cur.u32("reserved")?;
        let data_size = cur.u64("data size")?;
        for (count, what) in [(kv_count, "kv count"), (tensor_count, "tensor count")] {
            if count > MAX_COUNT {
                return Err(ModelFileError::Oversized {
                    what: what.to_string(),
                    declared: count as u64,
                    limit: MAX_COUNT as u64,
                });
            }
        }

        let mut kvs = Vec::new();
        for _ in 0..kv_count {
            let key = cur.string(MAX_NAME_LEN, "kv key")?;
            let tag = cur.u8("kv value tag")?;
            let value = match tag {
                0 => KvValue::Str(cur.string(MAX_KV_STR_LEN, "kv string value")?),
                1 => KvValue::U64(cur.u64("kv u64 value")?),
                2 => KvValue::F64(f64::from_bits(cur.u64("kv f64 value")?)),
                3 => KvValue::Bool(cur.u8("kv bool value")? != 0),
                _ => return Err(ModelFileError::UnknownKvTag { key, tag }),
            };
            kvs.push((key, value));
        }

        let mut tensors: Vec<TensorEntry> = Vec::new();
        for _ in 0..tensor_count {
            let name = cur.string(MAX_NAME_LEN, "tensor name")?;
            let dtype_tag = cur.u8("tensor dtype")?;
            let Some(dtype) = Dtype::from_tag(dtype_tag) else {
                return Err(ModelFileError::UnknownDtype {
                    tensor: name,
                    tag: dtype_tag,
                });
            };
            let rank = cur.u8("tensor rank")?;
            if rank == 0 || rank > MAX_RANK {
                return Err(ModelFileError::Malformed(format!(
                    "tensor {name}: rank {rank} outside 1..={MAX_RANK}"
                )));
            }
            if dtype == Dtype::I8 && rank != 2 {
                return Err(ModelFileError::Malformed(format!(
                    "tensor {name}: i8 tensors must be rank 2, got {rank}"
                )));
            }
            let mut dims = Vec::with_capacity(rank as usize);
            for _ in 0..rank {
                dims.push(cur.u64("tensor dim")?);
            }
            let offset = cur.u64("tensor offset")?;
            let nbytes = cur.u64("tensor nbytes")?;
            let checksum = cur.u64("tensor checksum")?;
            if offset % ALIGNMENT as u64 != 0 {
                return Err(ModelFileError::MisalignedOffset {
                    tensor: name,
                    offset,
                });
            }
            let Some(expected) = TensorEntry::expected_nbytes(dtype, &dims) else {
                return Err(ModelFileError::Malformed(format!(
                    "tensor {name}: dims {dims:?} overflow"
                )));
            };
            if nbytes != expected {
                return Err(ModelFileError::Malformed(format!(
                    "tensor {name}: declares {nbytes} bytes but dims {dims:?} ({dtype}) need {expected}"
                )));
            }
            let Some(end) = offset.checked_add(nbytes) else {
                return Err(ModelFileError::Malformed(format!(
                    "tensor {name}: offset+nbytes overflows"
                )));
            };
            if end > data_size {
                return Err(ModelFileError::Oversized {
                    what: format!("tensor {name}"),
                    declared: end,
                    limit: data_size,
                });
            }
            if tensors.iter().any(|t| t.name == name) {
                return Err(ModelFileError::Malformed(format!(
                    "duplicate tensor name {name}"
                )));
            }
            tensors.push(TensorEntry {
                name,
                dtype,
                dims,
                offset,
                nbytes,
                checksum,
            });
        }

        // The data section starts at the next alignment boundary after
        // the index and must hold exactly `data_size` bytes.
        let pad_at = cur.pos;
        let data_start = pad_at.next_multiple_of(ALIGNMENT as u64);
        let mut pad = vec![0; (data_start - pad_at) as usize];
        cur.fill(&mut pad, "header padding")?;
        if pad.iter().any(|&b| b != 0) {
            return Err(ModelFileError::Truncated {
                what: "header padding".to_string(),
                offset: pad_at,
            });
        }
        let actual = file_len.saturating_sub(data_start);
        if actual != data_size {
            return Err(ModelFileError::Truncated {
                what: format!("data section: header declares {data_size} bytes, file holds {actual}"),
                offset: data_start,
            });
        }

        // The file holds every declared byte: only now do declared sizes
        // size buffers. Verify every checksum up front: a loaded
        // Container is known-good, and the hot path never re-validates.
        let sinks = stream_payloads(&mut cur, &tensors, data_size)?;
        let mut payloads = Vec::with_capacity(tensors.len());
        for (entry, sink) in tensors.iter().zip(sinks) {
            if sink.hash != entry.checksum {
                return Err(ModelFileError::ChecksumMismatch {
                    tensor: entry.name.clone(),
                    stored: entry.checksum,
                    computed: sink.hash,
                });
            }
            payloads.push(Some(sink.finish(entry)));
        }
        Ok(Container {
            kvs,
            tensors,
            payloads,
            data_len: data_size as usize,
        })
    }

    /// The decoded payload of the tensor named like `entry`.
    fn payload(&self, entry: &TensorEntry) -> Result<&Payload, ModelFileError> {
        self.tensors
            .iter()
            .position(|t| t.name == entry.name)
            .and_then(|i| self.payloads.get(i)?.as_ref())
            .ok_or_else(|| {
                ModelFileError::Malformed(format!("tensor {} has no payload here", entry.name))
            })
    }

    /// Moves a tensor's decoded payload and dims out of the container;
    /// `None` when no tensor has that name (or it was already taken).
    pub(crate) fn take(&mut self, name: &str) -> Option<(Vec<usize>, Payload)> {
        let i = self.tensors.iter().position(|t| t.name == name)?;
        let payload = self.payloads.get_mut(i)?.take()?;
        let dims = self.tensors.get(i)?.dims.iter().map(|&d| d as usize).collect();
        Some((dims, payload))
    }

    /// Looks up a metadata value by key.
    pub fn kv(&self, key: &str) -> Option<&KvValue> {
        self.kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a string metadata value by key.
    pub fn kv_str(&self, key: &str) -> Option<&str> {
        match self.kv(key) {
            Some(KvValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Looks up a tensor index entry by name.
    pub fn tensor(&self, name: &str) -> Option<&TensorEntry> {
        self.tensors.iter().find(|t| t.name == name)
    }

    /// An [`Dtype::F32`] tensor's decoded values.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Malformed`] when the entry is not `f32`.
    pub fn f32_values(&self, entry: &TensorEntry) -> Result<&[f32], ModelFileError> {
        match self.payload(entry)? {
            Payload::Matrix(_) => Err(ModelFileError::Malformed(format!(
                "tensor {} is {}, not f32",
                entry.name, entry.dtype
            ))),
            f32s => Ok(f32s.parts().1),
        }
    }

    /// An [`Dtype::I8`] tensor's decoded `(data, scales)`: `rows·cols`
    /// int8 values and `rows` per-row scales.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Malformed`] when the entry is not `i8`.
    pub fn i8_values(&self, entry: &TensorEntry) -> Result<(&[i8], &[f32]), ModelFileError> {
        match self.payload(entry)? {
            Payload::Matrix(q) => Ok((&q.data, &q.scales)),
            _ => Err(ModelFileError::Malformed(format!(
                "tensor {} is {}, not i8",
                entry.name, entry.dtype
            ))),
        }
    }

    /// Total payload bytes (the size of the data section).
    pub fn data_len(&self) -> usize {
        self.data_len
    }
}

/// One forward pass over the data section: hands every byte of every
/// payload, in whatever order and overlap the index lays them out, to
/// that payload's [`Sink`] (index order). At most [`MAX_COUNT`] payloads
/// per [`CHUNK`]-byte chunk is at most one test per byte.
fn stream_payloads(
    cur: &mut Cursor<impl BufRead>,
    tensors: &[TensorEntry],
    data_size: u64,
) -> Result<Vec<Sink>, ModelFileError> {
    let mut sinks: Vec<Sink> = tensors.iter().map(Sink::new).collect();
    let mut pos = 0;
    while pos < data_size {
        let at = cur.pos;
        let buf = (cur.r.fill_buf()).map_err(|e| read_error(e, "data section", at))?;
        let n = buf.len().min(usize::try_from(data_size - pos).unwrap_or(usize::MAX));
        if n == 0 {
            let eof = std::io::ErrorKind::UnexpectedEof.into();
            return Err(read_error(eof, "data section", at));
        }
        let end = pos + n as u64;
        for (t, sink) in tensors.iter().zip(&mut sinks) {
            let (start, stop) = (t.offset.max(pos), (t.offset + t.nbytes).min(end));
            if let Some(piece) = buf.get((start - pos) as usize..(stop.max(start) - pos) as usize) {
                sink.feed(piece);
            }
        }
        cur.r.consume(n);
        cur.pos += n as u64;
        pos = end;
    }
    Ok(sinks)
}

/// Assembles `.adm` file images. The builder computes aligned offsets
/// and checksums; callers only name tensors and provide values, by
/// handle where they can, so building never copies a weight.
#[derive(Debug, Default)]
pub struct ContainerBuilder {
    kvs: Vec<(String, KvValue)>,
    tensors: Vec<(String, Vec<u64>, Payload)>,
}

impl ContainerBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a metadata entry.
    ///
    /// # Panics
    ///
    /// Panics if the key exceeds [`MAX_NAME_LEN`] bytes.
    pub fn kv(&mut self, key: impl Into<String>, value: KvValue) -> &mut Self {
        let key = key.into();
        assert!(key.len() <= MAX_NAME_LEN as usize, "kv key too long");
        self.kvs.push((key, value));
        self
    }

    /// Appends an f32 tensor by handle: the builder shares `t`'s
    /// storage and encodes it only while writing.
    pub fn tensor(&mut self, name: impl Into<String>, t: Tensor) -> &mut Self {
        let dims = t.dims().to_vec();
        self.push(name.into(), &dims, Payload::Tensor(t));
        self
    }

    /// Appends an i8 matrix with its per-row scales by handle.
    pub fn matrix_i8(&mut self, name: impl Into<String>, q: Arc<QuantizedMatrix>) -> &mut Self {
        let dims = [q.rows, q.cols];
        assert_eq!(q.data.len(), q.rows * q.cols, "data length must be rows·cols");
        assert_eq!(q.scales.len(), q.rows, "one scale per row");
        self.push(name.into(), &dims, Payload::Matrix(q));
        self
    }

    /// Appends an f32 tensor, copying `values`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` does not multiply out to `values.len()`.
    pub fn tensor_f32(&mut self, name: impl Into<String>, dims: &[usize], values: &[f32]) -> &mut Self {
        let elems: usize = dims.iter().product();
        assert_eq!(elems, values.len(), "dims/value count mismatch");
        self.push(name.into(), dims, Payload::Values(values.to_vec()));
        self
    }

    /// Appends an i8 matrix with per-row scales, copying both.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows·cols` or `scales.len() != rows`.
    pub fn tensor_i8(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        data: &[i8],
        scales: &[f32],
    ) -> &mut Self {
        let (data, scales) = (data.to_vec(), scales.to_vec());
        self.matrix_i8(name, Arc::new(QuantizedMatrix { data, scales, rows, cols }))
    }

    fn push(&mut self, name: String, dims: &[usize], payload: Payload) {
        assert!(name.len() <= MAX_NAME_LEN as usize, "tensor name too long");
        assert!(
            !dims.is_empty() && dims.len() <= MAX_RANK as usize,
            "rank outside 1..={MAX_RANK}"
        );
        assert!(
            self.tensors.iter().all(|(n, ..)| *n != name),
            "duplicate tensor name {name}"
        );
        let dims = dims.iter().map(|&d| d as u64).collect();
        self.tensors.push((name, dims, payload));
    }

    /// Serializes the file image into memory (tests and
    /// [`Container::from_bytes`] round trips; files go through
    /// [`ContainerBuilder::write`], which never holds the image).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        #[allow(clippy::expect_used)] // writing into a Vec never fails
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams the file image — header, KV section, tensor index, then
    /// each payload at its aligned offset — into `w`. Each payload is
    /// encoded twice through one 64 KiB block: once for its
    /// index checksum, once to write. The one layout routine:
    /// [`ContainerBuilder::to_bytes`] and [`ContainerBuilder::write`]
    /// both emit exactly these bytes.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when `w` refuses a write.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ModelFileError> {
        let mut block = Vec::with_capacity(CHUNK);
        // Assign aligned payload offsets within the data section and
        // checksum each payload.
        let mut index = Vec::with_capacity(self.tensors.len());
        let mut off = 0usize;
        for (_, _, payload) in &self.tensors {
            off = off.next_multiple_of(ALIGNMENT as usize);
            let mut hash = FNV_OFFSET;
            payload.encode(&mut block, &mut |bytes| {
                hash = fnv1a_extend(hash, bytes);
                Ok(())
            })?;
            index.push((off, hash));
            off += payload.nbytes();
        }
        let data_size = off as u64;

        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&ALIGNMENT.to_le_bytes());
        out.extend_from_slice(&(self.kvs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        out.extend_from_slice(&data_size.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);

        for (key, value) in &self.kvs {
            out.extend_from_slice(&(key.len() as u32).to_le_bytes());
            out.extend_from_slice(key.as_bytes());
            match value {
                KvValue::Str(s) => {
                    out.push(0);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                KvValue::U64(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                KvValue::F64(v) => {
                    out.push(2);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                KvValue::Bool(v) => {
                    out.push(3);
                    out.push(*v as u8);
                }
            }
        }

        for ((name, dims, payload), (offset, hash)) in self.tensors.iter().zip(&index) {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(payload.dtype().tag());
            out.push(dims.len() as u8);
            for d in dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
            out.extend_from_slice(&(*offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.nbytes() as u64).to_le_bytes());
            out.extend_from_slice(&hash.to_le_bytes());
        }

        // Zero-pad to the data section boundary, then lay payloads at
        // their pre-assigned aligned offsets.
        out.resize(out.len().next_multiple_of(ALIGNMENT as usize), 0);
        let io = |e: std::io::Error| ModelFileError::Io(e.to_string());
        w.write_all(&out).map_err(io)?;
        let mut pos = 0usize;
        for ((_, _, payload), (offset, _)) in self.tensors.iter().zip(&index) {
            std::io::copy(&mut std::io::repeat(0).take((offset - pos) as u64), w).map_err(io)?;
            payload.encode(&mut block, &mut |bytes| w.write_all(bytes).map_err(io))?;
            pos = offset + payload.nbytes();
        }
        Ok(())
    }

    /// Writes the file atomically through
    /// [`antidote_core::checkpoint::atomic_write`] (unique temporary
    /// sibling + rename), so a crash mid-write never leaves a truncated
    /// artifact at `path` and concurrent saves to one path never mix;
    /// on any failure the temporary file is removed.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when creating, writing or renaming fails.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), ModelFileError> {
        atomic_write(path.as_ref(), |w| self.write_to(w))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn sample() -> ContainerBuilder {
        let mut b = ContainerBuilder::new();
        b.kv("model.family", KvValue::Str("vgg".into()))
            .kv("answer", KvValue::U64(42))
            .kv("ratio", KvValue::F64(0.5))
            .kv("flag", KvValue::Bool(true))
            .tensor_f32("w", &[2, 3], &[1.0, -2.0, 3.5, 0.0, 5.25, -6.125])
            .tensor_i8("q", 2, 2, &[1, -2, 3, -128], &[0.5, 0.25]);
        b
    }

    #[test]
    fn round_trips_kvs_and_tensors() {
        let c = Container::from_bytes(sample().to_bytes()).unwrap();
        assert_eq!(c.kv_str("model.family"), Some("vgg"));
        assert_eq!(c.kv("answer"), Some(&KvValue::U64(42)));
        assert_eq!(c.kv("ratio"), Some(&KvValue::F64(0.5)));
        assert_eq!(c.kv("flag"), Some(&KvValue::Bool(true)));
        assert_eq!(c.kv("missing"), None);
        let w = c.tensor("w").unwrap();
        assert_eq!(w.dims, vec![2, 3]);
        assert_eq!(
            c.f32_values(w).unwrap(),
            vec![1.0, -2.0, 3.5, 0.0, 5.25, -6.125]
        );
        let q = c.tensor("q").unwrap();
        let (data, scales) = c.i8_values(q).unwrap();
        assert_eq!(data, vec![1, -2, 3, -128]);
        assert_eq!(scales, vec![0.5, 0.25]);
    }

    #[test]
    fn offsets_are_aligned_and_read_is_sequential_image() {
        let bytes = sample().to_bytes();
        let c = Container::from_bytes(bytes).unwrap();
        for t in &c.tensors {
            assert_eq!(t.offset % ALIGNMENT as u64, 0, "{} misaligned", t.name);
        }
        // Data section bytes exactly cover the last payload.
        let last = c.tensors.last().unwrap();
        assert_eq!(c.data_len() as u64, last.offset + last.nbytes);
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("adm_container_{}.adm", std::process::id()));
        sample().write(&path).unwrap();
        let c = Container::read(&path).unwrap();
        assert_eq!(c.tensors.len(), 2);
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("adm_container") && n.contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "leftover temp files: {strays:?}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn streamed_file_is_the_in_memory_image() {
        let path = std::env::temp_dir().join(format!("adm_streamed_{}.adm", std::process::id()));
        // Payloads on both sides of BufWriter's 8 KiB buffer, with
        // padding between them.
        let mut b = sample();
        b.tensor_f32("big", &[3, 1001], &vec![0.25; 3003])
            .tensor_f32("tail", &[1], &[7.0]);
        b.write(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b.to_bytes());
        let _ = std::fs::remove_file(path);
    }

    /// Accepts `budget` bytes, then fails every write.
    struct FailsAfter {
        budget: usize,
    }

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_write_failing_anywhere_is_an_io_error() {
        let image_len = sample().to_bytes().len();
        for budget in 0..image_len {
            let err = sample().write_to(&mut FailsAfter { budget }).unwrap_err();
            assert!(
                matches!(err, ModelFileError::Io(_)),
                "budget {budget}: {err:?}"
            );
        }
        sample()
            .write_to(&mut FailsAfter { budget: image_len })
            .unwrap();
    }

    #[test]
    fn failed_write_leaves_no_temp_sibling() {
        // The target is a non-empty directory, so the final rename fails;
        // a missing parent directory fails earlier, at create.
        let dir = std::env::temp_dir().join(format!("adm_failed_write_{}", std::process::id()));
        let target = dir.join("model.adm");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        for path in [target.clone(), dir.join("missing").join("model.adm")] {
            assert!(matches!(sample().write(&path), Err(ModelFileError::Io(_))));
        }
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "leftover temp files: {strays:?}");
        assert!(
            target.join("occupied").is_dir(),
            "the target must be untouched"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_file_is_valid() {
        let c = Container::from_bytes(ContainerBuilder::new().to_bytes()).unwrap();
        assert!(c.kvs.is_empty() && c.tensors.is_empty());
        assert_eq!(c.data_len(), 0);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            Container::read("/nonexistent/never/model.adm"),
            Err(ModelFileError::Io(_))
        ));
    }
}
