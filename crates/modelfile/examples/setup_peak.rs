//! Peak resident memory of each set-up phase of a served fp32 VGG16 at
//! 32×32 (Linux only): build the artifact, save it as `.adm`, drop it,
//! load the file back — the order the serving benchmark's set-up runs.
//! Before each phase the kernel's high-water mark is reset through
//! `/proc/self/clear_refs`, so each row is that phase's own `VmHWM`.
//!
//! ```text
//! cargo run --release -p antidote-modelfile --example setup_peak
//! ```

use antidote_core::checkpoint::Checkpoint;
use antidote_modelfile::ModelArtifact;
use antidote_models::{Vgg, VggConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `VmHWM` of this process in MB.
fn peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb * 1024.0 / 1e6
}

/// Resets `VmHWM` to the current resident set.
fn reset_peak() {
    std::fs::write("/proc/self/clear_refs", "5").expect("writable clear_refs");
}

fn phase<T>(name: &str, f: impl FnOnce() -> T) -> T {
    reset_peak();
    let out = f();
    println!("{name:<24} {:>8.1} MB", peak_mb());
    out
}

fn main() {
    let path = std::env::temp_dir().join(format!("setup_peak_{}.adm", std::process::id()));
    let config = VggConfig::vgg16(32, 10);
    println!("{:<24} {:>11}", "phase", "VmHWM");
    let artifact = phase("Vgg::new", || {
        let mut net = Vgg::new(&mut SmallRng::seed_from_u64(42), config.clone());
        let ckpt = Checkpoint::capture(&mut net).with_vgg_config(config);
        ModelArtifact::from_checkpoint(&ckpt, None).expect("a fresh Vgg fits its config")
    });
    let weights = artifact.weight_bytes();
    phase("ModelArtifact::save", || {
        artifact.save(&path).expect("temp dir is writable")
    });
    drop(artifact);
    let loaded = phase("ModelArtifact::load", || {
        ModelArtifact::load(&path).expect("file just written")
    });
    assert_eq!(loaded.weight_bytes(), weights);
    println!("weights: {:.1} MiB", weights as f64 / (1 << 20) as f64);
    let _ = std::fs::remove_file(path);
}
