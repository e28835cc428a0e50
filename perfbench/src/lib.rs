//! End-to-end benchmark of QOC paper experiments, with per-layer accounting
//! taken at the backend boundary by a timing forwarder ([`probe::Probe`]).
//! See `README.md` next to this crate for the workloads and metrics.

pub mod layers;
pub mod probe;
pub mod workload;

/// Linear-interpolated quantile (`q` in [0, 1]) of unsorted samples; 0 for
/// an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
