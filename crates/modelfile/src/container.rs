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
//! Parsing is defensive: every failure mode on hostile bytes is a typed
//! [`ModelFileError`], never a panic, and every tensor checksum is
//! verified before [`Container::from_bytes`] returns.

use crate::error::ModelFileError;
use std::io::Write;
use std::path::Path;

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

/// FNV-1a 64 over a byte slice — the per-tensor checksum algorithm
/// (same constants as `antidote-core`'s parameter checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

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

/// Byte cursor with typed, never-panicking take helpers.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ModelFileError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| ModelFileError::Malformed(format!("{what}: length overflow")))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| ModelFileError::Truncated {
                what: what.to_string(),
                offset: self.pos as u64,
            })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ModelFileError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, ModelFileError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ModelFileError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length-prefixed UTF-8 string with an explicit length cap.
    fn string(&mut self, cap: u32, what: &str) -> Result<String, ModelFileError> {
        let len = self.u32(what)?;
        if len > cap {
            return Err(ModelFileError::Oversized {
                what: what.to_string(),
                declared: len as u64,
                limit: cap as u64,
            });
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ModelFileError::Malformed(format!("{what}: not valid UTF-8")))
    }
}

/// A parsed `.adm` file: metadata, tensor index, and the raw data
/// section. Every checksum has been verified by the time a value of
/// this type exists.
#[derive(Debug)]
pub struct Container {
    /// Metadata entries in file order.
    pub kvs: Vec<(String, KvValue)>,
    /// Tensor index in file order.
    pub tensors: Vec<TensorEntry>,
    /// The data section (payload bytes for all tensors).
    data: Vec<u8>,
}

impl Container {
    /// Reads and fully validates a file. The payload arrives with one
    /// sequential [`std::fs::read`]; only the header prefix is parsed.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when the file cannot be read, otherwise
    /// any parse/validation error from [`Container::from_bytes`].
    pub fn read(path: impl AsRef<Path>) -> Result<Self, ModelFileError> {
        let bytes =
            std::fs::read(path.as_ref()).map_err(|e| ModelFileError::Io(e.to_string()))?;
        Self::from_bytes(bytes)
    }

    /// Parses a file image, verifying magic, version, alignment,
    /// bounds, and every tensor checksum.
    ///
    /// # Errors
    ///
    /// A typed [`ModelFileError`] for every way the bytes can be wrong;
    /// hostile input never panics.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, ModelFileError> {
        let mut cur = Cursor::new(&bytes);
        let magic = cur.take(4, "magic")?;
        if magic != MAGIC {
            return Err(ModelFileError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
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

        let mut kvs = Vec::with_capacity(kv_count as usize);
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

        let mut tensors: Vec<TensorEntry> = Vec::with_capacity(tensor_count as usize);
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
        let data_start = align_up(cur.pos, ALIGNMENT as usize);
        if bytes
            .get(cur.pos..data_start)
            .is_none_or(|pad| pad.iter().any(|&b| b != 0))
        {
            return Err(ModelFileError::Truncated {
                what: "header padding".to_string(),
                offset: cur.pos as u64,
            });
        }
        let actual = (bytes.len() - data_start) as u64;
        if actual != data_size {
            return Err(ModelFileError::Truncated {
                what: format!("data section: header declares {data_size} bytes, file holds {actual}"),
                offset: data_start as u64,
            });
        }
        let mut data = bytes;
        data.drain(..data_start);

        // Verify every payload checksum up front: a loaded Container is
        // known-good, and the hot path never re-validates.
        let container = Container { kvs, tensors, data };
        for entry in &container.tensors {
            let payload = container.payload(entry)?;
            let computed = fnv1a(payload);
            if computed != entry.checksum {
                return Err(ModelFileError::ChecksumMismatch {
                    tensor: entry.name.clone(),
                    stored: entry.checksum,
                    computed,
                });
            }
        }
        Ok(container)
    }

    /// Raw payload bytes of an index entry.
    fn payload(&self, entry: &TensorEntry) -> Result<&[u8], ModelFileError> {
        let start = entry.offset as usize;
        let end = start + entry.nbytes as usize; // bounds checked at parse
        self.data
            .get(start..end)
            .ok_or_else(|| ModelFileError::Truncated {
                what: format!("tensor {} payload", entry.name),
                offset: entry.offset,
            })
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

    /// Decodes an [`Dtype::F32`] tensor's payload into values.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Malformed`] when the entry is not `f32`.
    pub fn f32_values(&self, entry: &TensorEntry) -> Result<Vec<f32>, ModelFileError> {
        if entry.dtype != Dtype::F32 {
            return Err(ModelFileError::Malformed(format!(
                "tensor {} is {}, not f32",
                entry.name, entry.dtype
            )));
        }
        Ok(decode_f32(self.payload(entry)?))
    }

    /// Decodes an [`Dtype::I8`] tensor's payload into `(data, scales)`:
    /// `rows·cols` int8 values and `rows` per-row scales.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Malformed`] when the entry is not `i8`.
    pub fn i8_values(&self, entry: &TensorEntry) -> Result<(Vec<i8>, Vec<f32>), ModelFileError> {
        if entry.dtype != Dtype::I8 {
            return Err(ModelFileError::Malformed(format!(
                "tensor {} is {}, not i8",
                entry.name, entry.dtype
            )));
        }
        let payload = self.payload(entry)?;
        let rows = entry.dims[0] as usize; // rank 2 checked at parse
        let split = payload.len() - rows * 4;
        let data = payload[..split].iter().map(|&b| b as i8).collect();
        let scales = decode_f32(&payload[split..]);
        Ok((data, scales))
    }

    /// Total payload bytes (the size of the data section).
    pub fn data_len(&self) -> usize {
        self.data.len()
    }
}

fn decode_f32(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

/// Assembles `.adm` file images. The builder computes aligned offsets
/// and checksums; callers only name tensors and provide values.
#[derive(Debug, Default)]
pub struct ContainerBuilder {
    kvs: Vec<(String, KvValue)>,
    tensors: Vec<(String, Dtype, Vec<u64>, Vec<u8>)>,
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

    /// Appends an f32 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `dims` does not multiply out to `values.len()`.
    pub fn tensor_f32(&mut self, name: impl Into<String>, dims: &[usize], values: &[f32]) -> &mut Self {
        let elems: usize = dims.iter().product();
        assert_eq!(elems, values.len(), "dims/value count mismatch");
        let mut payload = Vec::with_capacity(values.len() * 4);
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.push(name.into(), Dtype::F32, dims, payload);
        self
    }

    /// Appends an i8 matrix with per-row scales.
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
        assert_eq!(data.len(), rows * cols, "data length must be rows·cols");
        assert_eq!(scales.len(), rows, "one scale per row");
        let mut payload = Vec::with_capacity(data.len() + scales.len() * 4);
        payload.extend(data.iter().map(|&v| v as u8));
        for s in scales {
            payload.extend_from_slice(&s.to_le_bytes());
        }
        self.push(name.into(), Dtype::I8, &[rows, cols], payload);
        self
    }

    fn push(&mut self, name: String, dtype: Dtype, dims: &[usize], payload: Vec<u8>) {
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
        self.tensors.push((name, dtype, dims, payload));
    }

    /// Serializes the file image into memory (tests and
    /// [`Container::from_bytes`] round trips; files go through
    /// [`ContainerBuilder::write`], which never holds the image).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams the file image — header, KV section, tensor index, then
    /// each payload at its aligned offset — into `w`. The one layout
    /// routine: [`ContainerBuilder::to_bytes`] and
    /// [`ContainerBuilder::write`] both emit exactly these bytes.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when `w` refuses a write.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ModelFileError> {
        // Assign aligned payload offsets within the data section.
        let mut offsets = Vec::with_capacity(self.tensors.len());
        let mut off = 0usize;
        for (_, _, _, payload) in &self.tensors {
            off = align_up(off, ALIGNMENT as usize);
            offsets.push(off);
            off += payload.len();
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

        for ((name, dtype, dims, payload), offset) in self.tensors.iter().zip(&offsets) {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(dtype.tag());
            out.push(dims.len() as u8);
            for d in dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
            out.extend_from_slice(&(*offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        }

        // Zero-pad to the data section boundary, then lay payloads at
        // their pre-assigned aligned offsets.
        out.resize(align_up(out.len(), ALIGNMENT as usize), 0);
        let io = |e: std::io::Error| ModelFileError::Io(e.to_string());
        w.write_all(&out).map_err(io)?;
        let mut pos = 0usize;
        for ((_, _, _, payload), offset) in self.tensors.iter().zip(&offsets) {
            w.write_all(&[0u8; ALIGNMENT as usize][..offset - pos])
                .map_err(io)?;
            w.write_all(payload).map_err(io)?;
            pos = offset + payload.len();
        }
        Ok(())
    }

    /// Writes the file atomically (temporary sibling + rename), so a
    /// crash mid-write never leaves a truncated artifact at `path`; on
    /// any failure the temporary file is removed.
    ///
    /// # Errors
    ///
    /// [`ModelFileError::Io`] when creating, writing or renaming fails.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), ModelFileError> {
        let path = path.as_ref();
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("model.adm");
        let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
        let io = |e: std::io::Error| ModelFileError::Io(e.to_string());
        let written = std::fs::File::create(&tmp)
            .map_err(io)
            .and_then(|file| {
                let mut w = std::io::BufWriter::new(file);
                self.write_to(&mut w)?;
                // Dropping a BufWriter swallows the last write's error.
                w.flush().map_err(io)
            })
            .and_then(|()| std::fs::rename(&tmp, path).map_err(io));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

#[cfg(test)]
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
