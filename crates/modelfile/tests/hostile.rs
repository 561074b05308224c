//! Hostile-file corpus: every malformed `.adm` image must come back as
//! a typed [`ModelFileError`] — never a panic, never a silently garbled
//! model. Each case starts from a valid image and corrupts one field at
//! a byte offset pinned by the `docs/FORMAT.md` layout.

use antidote_core::checkpoint::Checkpoint;
use antidote_modelfile::{
    fnv1a, Container, ContainerBuilder, Dtype, KvValue, ModelArtifact, ModelFileError, TensorEntry,
    HEADER_LEN, KV_CONFIG, KV_DTYPE, KV_FAMILY,
};
use antidote_models::{Vgg, VggConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// A valid image with no KVs and one f32 tensor named `w` (dims `[2,
/// 3]`). With a 1-byte name the index layout after the 32-byte header
/// is fixed, so corruption offsets below are exact:
///
/// ```text
/// 32  name_len u32     36  name "w"        37  dtype u8
/// 38  rank u8          39  dims 2×u64      55  offset u64
/// 63  nbytes u64       71  checksum u64
/// ```
fn one_tensor_image() -> Vec<u8> {
    let mut b = ContainerBuilder::new();
    b.tensor_f32("w", &[2, 3], &[1.0, -2.0, 3.5, 0.0, 5.25, -6.125]);
    b.to_bytes()
}

const DTYPE_AT: usize = 37;
const RANK_AT: usize = 38;
const OFFSET_AT: usize = 55;

#[test]
fn truncated_header_is_typed() {
    let image = one_tensor_image();
    for len in 0..HEADER_LEN {
        match Container::from_bytes(image[..len].to_vec()) {
            Err(ModelFileError::Truncated { .. }) => {}
            // Prefixes ≥ 4 bytes carry the real magic; shorter ones
            // still fail on the magic read itself.
            other => panic!("prefix of {len} bytes: {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut image = one_tensor_image();
    image[..4].copy_from_slice(b"JSON");
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::BadMagic { found }) if found == *b"JSON"
    ));
}

#[test]
fn wrong_version_is_typed() {
    let mut image = one_tensor_image();
    image[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::VersionMismatch {
            found: 99,
            expected: 1
        })
    ));
}

#[test]
fn wrong_alignment_is_typed() {
    let mut image = one_tensor_image();
    image[8..12].copy_from_slice(&8u32.to_le_bytes());
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::BadAlignment {
            declared: 8,
            expected: 64
        })
    ));
}

#[test]
fn misaligned_tensor_offset_is_typed() {
    let mut image = one_tensor_image();
    image[OFFSET_AT..OFFSET_AT + 8].copy_from_slice(&1u64.to_le_bytes());
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::MisalignedOffset { offset: 1, .. })
    ));
}

#[test]
fn flipped_payload_byte_fails_checksum() {
    let mut image = one_tensor_image();
    let last = image.len() - 1;
    image[last] ^= 0xff;
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::ChecksumMismatch { .. })
    ));
}

#[test]
fn flipped_stored_checksum_fails_checksum() {
    let mut image = one_tensor_image();
    image[71] ^= 0xff;
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::ChecksumMismatch { .. })
    ));
}

#[test]
fn unknown_dtype_tag_is_typed() {
    let mut image = one_tensor_image();
    image[DTYPE_AT] = 7;
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::UnknownDtype { tag: 7, .. })
    ));
}

#[test]
fn zero_and_oversized_rank_are_typed() {
    for rank in [0u8, 9u8] {
        let mut image = one_tensor_image();
        image[RANK_AT] = rank;
        assert!(matches!(
            Container::from_bytes(image),
            Err(ModelFileError::Malformed(_))
        ));
    }
}

#[test]
fn tensor_past_data_section_is_oversized() {
    let mut image = one_tensor_image();
    // Aligned (so it passes the alignment check) but far past the end.
    image[OFFSET_AT..OFFSET_AT + 8].copy_from_slice(&(64u64 * 1000).to_le_bytes());
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::Oversized { .. })
    ));
}

#[test]
fn oversized_name_is_typed() {
    let mut image = one_tensor_image();
    image[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::Oversized { .. })
    ));
}

#[test]
fn unknown_kv_value_tag_is_typed() {
    let mut b = ContainerBuilder::new();
    b.kv("k", KvValue::Bool(true));
    let mut image = b.to_bytes();
    // KV section: key_len u32 at 32, "k" at 36, value tag at 37.
    image[37] = 9;
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::UnknownKvTag { tag: 9, .. })
    ));
}

#[test]
fn truncated_data_section_is_typed() {
    let mut image = one_tensor_image();
    image.truncate(image.len() - 3);
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::Truncated { .. })
    ));
}

#[test]
fn nonzero_header_padding_is_rejected() {
    let mut image = one_tensor_image();
    // Byte 79 is inside the zero pad between the index (ends at 79) and
    // the 128-aligned data section.
    image[79] = 1;
    assert!(matches!(
        Container::from_bytes(image),
        Err(ModelFileError::Truncated { .. })
    ));
}

#[test]
fn every_single_byte_corruption_is_err_or_detected() {
    // Sledgehammer: flip each byte of the image in turn. The parser
    // must either reject the image with a typed error or — only where
    // the flip lands in genuinely free bytes (none here: every byte of
    // this image is load-bearing except the reserved header word) —
    // return an equivalent container. It must never panic.
    let image = one_tensor_image();
    for i in 0..image.len() {
        let mut corrupt = image.clone();
        corrupt[i] ^= 0xff;
        let result = Container::from_bytes(corrupt);
        if (20..24).contains(&i) {
            // The reserved header word is ignored by design.
            assert!(result.is_ok(), "reserved byte {i} should be ignored");
        } else {
            assert!(result.is_err(), "flipping byte {i} went undetected");
        }
    }
}

#[test]
fn valid_container_that_is_no_model_is_bad_model() {
    let path = std::env::temp_dir().join(format!("adm_no_model_{}.adm", std::process::id()));
    let mut b = ContainerBuilder::new();
    b.kv("model.family", KvValue::Str("vgg".into()));
    b.write(&path).unwrap();
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ModelFileError::BadModel(_))
    ));
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_kv_keys_are_ignored_for_forward_compat() {
    let mut b = ContainerBuilder::new();
    b.kv("future.knob", KvValue::U64(3))
        .tensor_f32("w", &[1], &[1.0]);
    let c = Container::from_bytes(b.to_bytes()).unwrap();
    assert_eq!(c.kv("future.knob"), Some(&KvValue::U64(3)));
}

// ------------------------------------------------ hostile network state

/// A seeded `vgg_tiny` captured with its config.
fn tiny_checkpoint(batchnorm: bool) -> Checkpoint {
    let mut config = VggConfig::vgg_tiny(8, 3);
    config.batchnorm = batchnorm;
    let mut net = Vgg::new(&mut SmallRng::seed_from_u64(17), config.clone());
    Checkpoint::capture(&mut net).with_vgg_config(config)
}

fn bad_model<T: std::fmt::Debug>(r: Result<T, ModelFileError>) -> String {
    match r {
        Err(ModelFileError::BadModel(msg)) => msg,
        other => panic!("expected BadModel, got {other:?}"),
    }
}

#[test]
fn non_finite_fp32_weight_in_a_checkpoint_is_bad_model() {
    let mut ckpt = tiny_checkpoint(false);
    ckpt.params[0].data_mut()[5] = f32::NAN;
    let msg = bad_model(ModelArtifact::from_checkpoint(&ckpt, None));
    assert!(msg.contains("non-finite"), "{msg}");
}

#[test]
fn batchnorm_checkpoint_without_buffers_is_bad_model() {
    let mut ckpt = tiny_checkpoint(true);
    ckpt.buffers.clear();
    let msg = bad_model(ModelArtifact::from_checkpoint(&ckpt, None));
    assert!(msg.contains("buffer"), "{msg}");
}

#[test]
fn non_finite_fp32_weight_in_an_adm_is_bad_model() {
    let path = temp_file("nan_weight", &[]);
    ModelArtifact::from_checkpoint(&tiny_checkpoint(true), None)
        .unwrap()
        .save(&path)
        .unwrap();
    // Re-assemble the file with one poisoned weight; every container
    // checksum is valid, so only the model validator can refuse it.
    let c = Container::read(&path).unwrap();
    let mut b = ContainerBuilder::new();
    for (key, value) in &c.kvs {
        b.kv(key.clone(), value.clone());
    }
    for entry in &c.tensors {
        let mut values = c.f32_values(entry).unwrap().to_vec();
        if entry.name == "conv.1.weight" {
            values[7] = f32::INFINITY;
        }
        let dims: Vec<usize> = entry.dims.iter().map(|&d| d as usize).collect();
        b.tensor_f32(entry.name.clone(), &dims, &values);
    }
    b.write(&path).unwrap();
    let msg = bad_model(ModelArtifact::load(&path));
    assert!(msg.contains("conv 1 weight"), "{msg}");
    let _ = std::fs::remove_file(path);
}

/// An fp32 file in the positional schema older builds wrote (one
/// `param.NNNN` tensor per checkpoint parameter) names none of the
/// tensors the loader needs.
#[test]
fn positional_fp32_adm_is_bad_model() {
    let ckpt = tiny_checkpoint(false);
    let config = ckpt.vgg_config.clone().unwrap();
    let mut b = ContainerBuilder::new();
    b.kv(KV_FAMILY, KvValue::Str("vgg".into()))
        .kv(KV_DTYPE, KvValue::Str("f32".into()))
        .kv(KV_CONFIG, KvValue::Str(serde_json::to_string(&config).unwrap()));
    for (i, t) in ckpt.params.iter().enumerate() {
        b.tensor(format!("param.{i:04}"), t.clone());
    }
    let path = temp_file("positional", &b.to_bytes());
    let msg = bad_model(ModelArtifact::load(&path));
    assert!(msg.contains("conv.0.weight"), "{msg}");
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------- file reader vs in-memory

/// The file reader's chunk size: `Container::read` streams the file
/// through one buffer of this many bytes.
const CHUNK: usize = 64 * 1024;

/// Everything a container holds, with payload values as bits so NaNs
/// compare equal to themselves.
type Contents = (String, Vec<TensorEntry>, Vec<Vec<u32>>);

fn contents(c: &Container) -> Contents {
    let payloads = c
        .tensors
        .iter()
        .map(|t| match t.dtype {
            Dtype::F32 => c
                .f32_values(t)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            Dtype::I8 => {
                let (data, scales) = c.i8_values(t).unwrap();
                let data = data.iter().map(|&v| u32::from(v as u8));
                data.chain(scales.iter().map(|v| v.to_bits())).collect()
            }
        })
        .collect();
    (format!("{:?}", c.kvs), c.tensors.clone(), payloads)
}

fn outcome(r: Result<Container, ModelFileError>) -> Result<Contents, ModelFileError> {
    r.map(|c| contents(&c))
}

fn temp_file(name: &str, image: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("adm_{name}_{}.adm", std::process::id()));
    std::fs::write(&path, image).unwrap();
    path
}

/// Both readers on one image: `Container::read` of `path` (which holds
/// `image`) and `Container::from_bytes` of `image` itself.
fn both_readers(path: &Path, image: &[u8]) -> [Result<Contents, ModelFileError>; 2] {
    [
        outcome(Container::read(path)),
        outcome(Container::from_bytes(image.to_vec())),
    ]
}

/// `(data_start, data_size)` of a well-formed image's header.
fn data_section(image: &[u8]) -> (usize, usize) {
    let size = u64::from_le_bytes(image[24..32].try_into().unwrap()) as usize;
    (image.len() - size, size)
}

/// Byte positions of each index entry's `offset` and `checksum` fields,
/// in index order, for an image without KV entries.
fn index_fields(image: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(&image[12..16], &[0; 4], "walker assumes no KV entries");
    let count = u32::from_le_bytes(image[16..20].try_into().unwrap());
    let mut pos = HEADER_LEN;
    (0..count)
        .map(|_| {
            let name_len = u32::from_le_bytes(image[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + name_len + 1;
            let rank = image[pos] as usize;
            pos += 1 + 8 * rank;
            let fields = (pos, pos + 16);
            pos += 24;
            fields
        })
        .collect()
}

/// Points index entry `k` at data offset `offset` and stores the
/// checksum of the `nbytes` bytes it now covers.
fn repoint(image: &mut [u8], k: usize, offset: usize, nbytes: usize) {
    let (data_start, _) = data_section(image);
    let (off_at, sum_at) = index_fields(image)[k];
    let start = data_start + offset;
    let sum = fnv1a(&image[start..start + nbytes]);
    image[off_at..off_at + 8].copy_from_slice(&(offset as u64).to_le_bytes());
    image[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
}

/// A multi-tensor image longer than two read chunks, with alignment gaps
/// between payloads: the first chunk boundary falls inside the f32
/// payload `big`, the second inside the scale block of the i8 matrix
/// `q`, splitting one scale's four bytes.
fn chunked_image() -> Vec<u8> {
    const ROWS: usize = 61;
    let build = |cols: usize| {
        let big: Vec<f32> = (0..20_001).map(|i| i as f32 * 0.5 - 3e3).collect();
        let data: Vec<i8> = (0..ROWS * cols).map(|i| (i * 7 % 251) as i8).collect();
        let scales: Vec<f32> = (0..ROWS).map(|r| 1.0 / (r as f32 + 3.0)).collect();
        let mut b = ContainerBuilder::new();
        b.kv("model.family", KvValue::Str("vgg".into()))
            .tensor_f32("head", &[5], &[1.0, -2.0, 3.5, 0.0, f32::NAN])
            .tensor_f32("big", &[3, 6667], &big)
            .tensor_i8("q", ROWS, cols, &data, &scales)
            .tensor_f32("tail", &[3], &[7.0, 8.0, 9.0]);
        b.to_bytes()
    };
    // Offsets up to `q`'s scale block do not depend on `q`'s width.
    let probe = build(1);
    let (data_start, _) = data_section(&probe);
    let c = Container::from_bytes(probe).unwrap();
    let q_start = data_start + c.tensor("q").unwrap().offset as usize;
    let cols = (1..)
        .find(|&cols| {
            let scales = q_start + ROWS * cols;
            scales < 2 * CHUNK
                && 2 * CHUNK < scales + 4 * ROWS
                && !(2 * CHUNK - scales).is_multiple_of(4)
        })
        .unwrap();
    let image = build(cols);
    let (data_start, _) = data_section(&image);
    let c = Container::from_bytes(image.clone()).unwrap();
    let big = c.tensor("big").unwrap();
    let big_start = data_start + big.offset as usize;
    assert!(big_start < CHUNK && CHUNK < big_start + big.nbytes as usize);
    assert!(image.len() > 2 * CHUNK);
    image
}

#[test]
fn file_and_memory_readers_agree_on_every_truncation() {
    let image = chunked_image();
    let path = temp_file("agree_truncation", &image);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    for len in (0..=image.len()).rev() {
        file.set_len(len as u64).unwrap();
        let [read, from_bytes] = both_readers(&path, &image[..len]);
        assert_eq!(read, from_bytes, "truncated to {len} bytes");
        assert_eq!(read.is_ok(), len == image.len(), "truncated to {len} bytes");
    }
    let _ = std::fs::remove_file(path);
}

/// Flips every byte of the header, KV section, index and padding, and
/// every data-section byte within 8 of a payload edge, of `q`'s
/// data/scale split or of a chunk boundary, plus every 509th byte
/// elsewhere. (A flip inside a payload's interior is that payload's
/// checksum mismatch in both readers; all 130 K flips would take minutes.)
#[test]
fn file_and_memory_readers_agree_on_single_byte_flips() {
    let image = chunked_image();
    let (data_start, _) = data_section(&image);
    let c = Container::from_bytes(image.clone()).unwrap();
    let mut edges: Vec<usize> = vec![CHUNK, 2 * CHUNK];
    for t in &c.tensors {
        let start = data_start + t.offset as usize;
        edges.extend([start, start + t.nbytes as usize]);
        if t.dtype == Dtype::I8 {
            edges.push(start + (t.dims[0] * t.dims[1]) as usize);
        }
    }
    let flips = (0..image.len())
        .filter(|&i| i < data_start || i % 509 == 0 || edges.iter().any(|&e| i.abs_diff(e) <= 8));

    let path = temp_file("agree_flips", &image);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let mut corrupt = image.clone();
    let mut checked = 0;
    for i in flips {
        corrupt[i] ^= 0xff;
        file.write_all_at(&corrupt[i..=i], i as u64).unwrap();
        let [read, from_bytes] = both_readers(&path, &corrupt);
        assert_eq!(read, from_bytes, "byte {i} flipped");
        corrupt[i] ^= 0xff;
        file.write_all_at(&corrupt[i..=i], i as u64).unwrap();
        checked += 1;
    }
    assert!(checked > data_start + 200, "only {checked} flips");
    let _ = std::fs::remove_file(path);
}

/// The index may list payloads in any offset order: swapping two
/// entries' offsets and checksums swaps the values they load.
#[test]
fn out_of_order_payload_offsets_load_identical_values() {
    let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..16).map(|i| -(i as f32) - 0.5).collect();
    let mut builder = ContainerBuilder::new();
    builder
        .tensor_f32("a", &[4, 4], &a)
        .tensor_f32("gap", &[1], &[0.0])
        .tensor_f32("b", &[4, 4], &b);
    let mut image = builder.to_bytes();
    let c = Container::from_bytes(image.clone()).unwrap();
    let (oa, ob) = (c.tensors[0].offset as usize, c.tensors[2].offset as usize);
    repoint(&mut image, 0, ob, 64);
    repoint(&mut image, 2, oa, 64);

    let path = temp_file("out_of_order", &image);
    let [read, from_bytes] = both_readers(&path, &image);
    let _ = std::fs::remove_file(path);
    assert_eq!(read, from_bytes);
    let (_, entries, values) = read.unwrap();
    assert!(entries[0].offset > entries[2].offset);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(values[0], bits(&b));
    assert_eq!(values[2], bits(&a));
}

/// Payloads may share bytes: a full alias, an f32 tensor inside another,
/// and an i8 matrix whose scales start mid-value of the host tensor all
/// load the bytes they cover.
#[test]
fn overlapping_payload_offsets_load_identical_values() {
    let host: Vec<f32> = (0..64).map(|i| (i as f32 - 20.0) * 1.25).collect();
    let mut builder = ContainerBuilder::new();
    builder
        .tensor_f32("host", &[64], &host)
        .tensor_f32("alias", &[64], &host)
        .tensor_f32("inner", &[16], &[0.0; 16])
        .tensor_i8("q", 2, 5, &[0; 10], &[1.0, 1.0]);
    let mut image = builder.to_bytes();
    let host_at = Container::from_bytes(image.clone()).unwrap().tensors[0].offset as usize;
    repoint(&mut image, 1, host_at, 256);
    repoint(&mut image, 2, host_at + 64, 64);
    repoint(&mut image, 3, host_at + 128, 18);

    let path = temp_file("overlapping", &image);
    let [read, from_bytes] = both_readers(&path, &image);
    let _ = std::fs::remove_file(path);
    assert_eq!(read, from_bytes);
    let (_, _, values) = read.unwrap();
    let (data_start, _) = data_section(&image);
    let raw = &image[data_start + host_at..];
    let f32_bits = |bytes: &[u8]| {
        bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect::<Vec<_>>()
    };
    assert_eq!(values[1], values[0]);
    assert_eq!(values[2], f32_bits(&raw[64..128]));
    let mut q: Vec<u32> = raw[128..138].iter().map(|&b| u32::from(b)).collect();
    q.extend(f32_bits(&raw[138..146]));
    assert_eq!(values[3], q);
}
