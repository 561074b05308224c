//! One copy of the weights, counted: a counting global allocator bounds
//! the live heap while a `vgg_small` artifact is saved and loaded, fp32
//! and int8 — the weights once, one read/encode chunk and the index, and
//! never a second copy of any payload.
//!
//! This is its own test binary so no test elsewhere allocates in the
//! same process; the tests below take one lock so they never overlap.

use antidote_core::checkpoint::Checkpoint;
use antidote_core::quant::CalibrationMethod;
use antidote_modelfile::{Container, ModelArtifact, ModelFileError, MAGIC};
use antidote_models::{Vgg, VggConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Live heap bytes, the peak since the last reset, the bytes handed out
/// zeroed since then, and the largest single request since then.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ZEROED: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    LARGEST.fetch_max(size, Relaxed);
}

// SAFETY: every method forwards to `System` unchanged and only updates
// counters on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ZEROED.fetch_add(layout.size(), Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Both blocks may be live while the contents move.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// What one call did to the heap.
#[derive(Debug)]
struct Heap {
    /// Peak live bytes above the live bytes at the start.
    peak_extra: usize,
    /// Bytes allocated zeroed. Untouched zero pages cost no memory until
    /// written, and `Parameter::new`'s zeroed gradients are written only
    /// by training.
    zeroed: usize,
    /// The largest single allocation.
    largest: usize,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    ZEROED.store(0, Relaxed);
    LARGEST.store(0, Relaxed);
    let out = f();
    let heap = Heap {
        peak_extra: PEAK.load(Relaxed) - base,
        zeroed: ZEROED.load(Relaxed),
        largest: LARGEST.load(Relaxed),
    };
    (out, heap)
}

/// One read chunk, one encode block, the writer's buffer and small
/// bookkeeping.
const SLACK: usize = 256 * 1024;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adm_heap_{name}_{}.adm", std::process::id()))
}

fn vgg_small_fp32() -> ModelArtifact {
    let config = VggConfig::vgg_small(32, 10, 16).with_batchnorm();
    let mut net = Vgg::new(&mut SmallRng::seed_from_u64(5), config.clone());
    ModelArtifact::from_checkpoint(&Checkpoint::capture(&mut net).with_vgg_config(config), None)
        .unwrap()
}

#[test]
fn save_and_load_hold_one_copy_of_the_weights() {
    let _serial = SERIAL.lock().unwrap();
    let fp32 = vgg_small_fp32();
    let int8 = fp32.quantize(CalibrationMethod::MinMax, 8, 1, 3).unwrap();
    for (label, artifact) in [("fp32", fp32), ("int8", int8)] {
        let path = tmp_path(label);
        let weights = artifact.weight_bytes() as usize;
        let (saved, save) = measure(|| artifact.save(&path));
        saved.unwrap();
        // The file's prefix: header, metadata and tensor index.
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        let index = file_len - Container::read(&path).unwrap().data_len();
        let (loaded, load) = measure(|| ModelArtifact::load(&path));
        let loaded = loaded.unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.weight_bytes() as usize, weights);
        assert!(
            weights > 2 * SLACK,
            "{label}: {weights} weight bytes is too small to tell"
        );

        // The artifact already holds its weights: saving adds no copy.
        assert!(
            save.peak_extra <= SLACK + index,
            "{label} save: {save:?} over {weights} weight bytes, index {index}"
        );
        assert!(
            load.peak_extra.saturating_sub(load.zeroed) <= weights + SLACK + index,
            "{label} load: {load:?} for {weights} weight bytes, index {index}"
        );
    }
}

#[test]
fn a_header_declaring_a_terabyte_allocates_no_more_than_the_file() {
    let _serial = SERIAL.lock().unwrap();
    const TIB: u64 = 1 << 40;
    let mut image = Vec::new();
    image.extend_from_slice(&MAGIC);
    for word in [1u32, 64, 0, 1, 0] {
        image.extend_from_slice(&word.to_le_bytes());
    }
    image.extend_from_slice(&TIB.to_le_bytes()); // data_size
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(b"w");
    image.extend_from_slice(&[0, 1]); // f32, rank 1
    for field in [TIB / 4, 0, TIB, 0] {
        // dims, offset, nbytes, checksum
        image.extend_from_slice(&field.to_le_bytes());
    }
    image.resize(200, 0);
    let path = tmp_path("terabyte");
    std::fs::write(&path, &image).unwrap();

    let (read, heap) = measure(|| Container::read(&path));
    assert!(
        matches!(read, Err(ModelFileError::Truncated { .. })),
        "{read:?}"
    );
    assert!(heap.largest <= image.len() + 64 * 1024, "{heap:?}");
    let (load, heap) = measure(|| ModelArtifact::load(&path));
    assert!(
        matches!(load, Err(ModelFileError::Truncated { .. })),
        "{load:?}"
    );
    assert!(heap.largest <= image.len() + 64 * 1024, "{heap:?}");
    let _ = std::fs::remove_file(path);
}
