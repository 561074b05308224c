//! Pins `docs/FORMAT.md` — the normative byte-level spec — to the
//! source constants. The document is included at compile time, so the
//! spec and the implementation cannot drift silently: changing a
//! constant in `container.rs` (or editing the number in the spec)
//! fails this suite until both agree again.

use antidote_modelfile::container::MAX_KV_STR_LEN;
use antidote_modelfile::{
    Dtype, KvValue, ALIGNMENT, FORMAT_VERSION, HEADER_LEN, KV_CALIBRATION, KV_CONFIG, KV_DTYPE,
    KV_FAMILY, KV_PROVENANCE_ARCH, KV_PROVENANCE_CHECKSUM, KV_QUANT_SCHEME, MAGIC, MAX_COUNT,
    MAX_NAME_LEN, MAX_RANK, QUANT_SCHEME,
};

const SPEC: &str = include_str!("../../../docs/FORMAT.md");

/// The spec must state `needle` verbatim; `what` names the claim.
fn pinned(needle: &str, what: &str) {
    assert!(
        SPEC.contains(needle),
        "docs/FORMAT.md no longer states {what}: expected the exact text {needle:?}"
    );
}

#[test]
fn spec_pins_header_constants() {
    assert_eq!(MAGIC, *b"ADMF");
    pinned("`ADMF`", "the magic bytes");
    assert_eq!(FORMAT_VERSION, 1);
    pinned("MUST be `1`", "the format version");
    assert_eq!(ALIGNMENT, 64);
    pinned("MUST be `64`", "the payload alignment");
    assert_eq!(HEADER_LEN, 32);
    pinned("`HEADER_LEN` is 32", "the fixed header length");
    pinned("# The `.adm` model file format, version 1", "the versioned title");
}

#[test]
fn spec_pins_size_limits() {
    assert_eq!(MAX_NAME_LEN, 1024);
    pinned("| `MAX_NAME_LEN` | 1024 |", "the name length cap");
    assert_eq!(MAX_KV_STR_LEN, 1 << 20);
    pinned("| `MAX_KV_STR_LEN` | 1048576 |", "the KV string cap");
    assert_eq!(MAX_RANK, 8);
    pinned("| `MAX_RANK` | 8 |", "the rank cap");
    assert_eq!(MAX_COUNT, 65_536);
    pinned("| `MAX_COUNT` | 65536 |", "the count cap");
}

#[test]
fn spec_pins_dtype_tags() {
    assert_eq!(Dtype::F32.tag(), 0);
    pinned("| 0 | f32 |", "the f32 dtype tag");
    assert_eq!(Dtype::I8.tag(), 1);
    pinned("| 1 | i8 |", "the i8 dtype tag");
    // The tag space the spec documents is exactly the tag space the
    // code knows: 0 and 1 decode, everything else is an error.
    assert_eq!(Dtype::from_tag(0), Some(Dtype::F32));
    assert_eq!(Dtype::from_tag(1), Some(Dtype::I8));
    for tag in 2..=u8::MAX {
        assert_eq!(Dtype::from_tag(tag), None, "undocumented tag {tag} decodes");
    }
}

#[test]
fn spec_pins_kv_value_tags() {
    pinned("| 0 | Str |", "the Str KV tag");
    pinned("| 1 | U64 |", "the U64 KV tag");
    pinned("| 2 | F64 |", "the F64 KV tag");
    pinned("| 3 | Bool |", "the Bool KV tag");
    // The spec's tag table mirrors the on-disk encoding order of the
    // KvValue variants; a round trip through the builder pins it.
    use antidote_modelfile::{Container, ContainerBuilder};
    let mut b = ContainerBuilder::new();
    b.kv("k", KvValue::Str("v".into()));
    let bytes = b.to_bytes();
    // First KV entry: key_len(4) + "k"(1) at HEADER_LEN, tag next.
    assert_eq!(bytes[HEADER_LEN + 5], 0, "Str must serialize as tag 0");
    let c = Container::from_bytes(bytes).unwrap();
    assert_eq!(c.kv_str("k"), Some("v"));
}

#[test]
fn spec_pins_metadata_keys() {
    for (key, what) in [
        (KV_FAMILY, "the family key"),
        (KV_DTYPE, "the dtype key"),
        (KV_CONFIG, "the config key"),
        (KV_CALIBRATION, "the calibration key"),
        (KV_QUANT_SCHEME, "the quant-scheme key"),
        (KV_PROVENANCE_ARCH, "the provenance-architecture key"),
        (KV_PROVENANCE_CHECKSUM, "the provenance-checksum key"),
    ] {
        pinned(&format!("`{key}`"), what);
    }
    pinned(&format!("`{QUANT_SCHEME}`"), "the quantization scheme name");
}

#[test]
fn spec_pins_checksum_algorithm() {
    pinned("0xcbf29ce484222325", "the FNV-1a offset basis");
    pinned("0x100000001b3", "the FNV-1a prime");
    // And the stated constants are the ones the implementation uses:
    // FNV-1a of the empty input is the offset basis.
    assert_eq!(antidote_modelfile::fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
}

#[test]
fn spec_pins_tensor_name_schemas() {
    for (needle, what) in [
        ("`conv.{i}.weight`", "the fp32 conv weight naming"),
        ("`conv.{i}.qweight`", "the int8 conv weight naming"),
        ("`bn.{i}.running_var`", "the batch-norm statistics naming"),
        ("`quant.act_scales`", "the activation-scales tensor"),
        ("`linear.weight`", "the classifier head naming"),
    ] {
        pinned(needle, what);
    }
}
