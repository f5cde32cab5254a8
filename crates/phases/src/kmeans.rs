//! Seeded, dependency-free k-means over randomly-projected BBV slices.
//!
//! The SimPoint recipe: project each slice's sparse basic-block vector
//! down to a small dense space (random signed projection, ~16 dims —
//! distances are approximately preserved, Achlioptas-style), normalize
//! by slice length so phases are about *shape* not *size*, run Lloyd's
//! k-means for every candidate `k`, and keep the `k` with the best
//! BIC-style score. One representative slice (the member closest to its
//! centroid) is then chosen per cluster, weighted by the branches of the
//! whole cluster.
//!
//! Everything is deterministic for a fixed [`ClusterConfig::seed`]:
//! the projection signs are a pure hash of `(pc, dim, seed)`, centroid
//! seeding uses the workspace's seeded [`rand::rngs::StdRng`]
//! (compat shim), points are visited in slice order, ties break toward
//! the lowest index, and no hash-ordered container is ever iterated —
//! the crate's `clippy.toml` bans `HashMap`/`HashSet` and clock reads.

use crate::file::PhaseEntry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use stbpu_trace::bbv::{BbvProfile, SliceProfile};

/// How to cluster a BBV profile.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Largest `k` the BIC-style scan considers (clamped to the slice
    /// count).
    pub k_max: usize,
    /// Random-projection target dimensionality.
    pub dims: usize,
    /// Seed for projection signs and centroid initialization.
    pub seed: u64,
    /// Lloyd-iteration cap per candidate `k`.
    pub max_iters: usize,
    /// Force exactly this many clusters, skipping the BIC scan. A value
    /// of at least the slice count makes every slice its own phase —
    /// the degenerate clustering that reproduces full simulation
    /// exactly.
    pub forced_k: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            k_max: 8,
            dims: 16,
            seed: 42,
            max_iters: 64,
            forced_k: None,
        }
    }
}

/// The result of clustering a slice sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// Number of clusters actually used.
    pub k: usize,
    /// Cluster id of each slice, in slice order.
    pub assignment: Vec<usize>,
    /// Representative slice index per cluster (the member closest to the
    /// cluster centroid; ties go to the lowest slice index).
    pub representatives: Vec<usize>,
}

/// SplitMix64 finalizer — the deterministic bit mixer behind the
/// projection signs.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The ±1 projection sign for basic block `pc` on dimension `dim`.
fn sign(pc: u64, dim: usize, seed: u64) -> f64 {
    let h = mix(pc ^ mix(seed ^ (dim as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    if h & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Projects each slice's sparse BBV into `dims` dense dimensions,
/// frequency-normalized by the slice's instruction count.
fn project(slices: &[SliceProfile], dims: usize, seed: u64) -> Vec<Vec<f64>> {
    slices
        .iter()
        .map(|s| {
            let mut v = vec![0.0f64; dims];
            let norm = if s.instructions == 0 {
                1.0
            } else {
                s.instructions as f64
            };
            for (&pc, &weight) in &s.vector {
                let w = weight as f64 / norm;
                for (d, slot) in v.iter_mut().enumerate() {
                    *slot += w * sign(pc, d, seed);
                }
            }
            v
        })
        .collect()
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// The cluster whose centroid is nearest to `p` (ties → lowest id).
fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = dist2(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

/// One full Lloyd run for a fixed `k`: seeded centroid choice (a shuffle
/// of the point indices), then assign/update until stable or the
/// iteration cap. Returns the assignment and the total within-cluster
/// squared distance (inertia).
fn lloyd(points: &[Vec<f64>], k: usize, seed: u64, max_iters: usize) -> (Vec<usize>, f64) {
    let n = points.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    order.shuffle(&mut rng);
    let mut centroids: Vec<Vec<f64>> = order.iter().take(k).map(|&i| points[i].clone()).collect();

    let mut assignment = vec![0usize; n];
    let mut inertia = 0.0;
    for _ in 0..max_iters {
        inertia = 0.0;
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let (c, d) = nearest(p, &centroids);
            if assignment[i] != c {
                assignment[i] = c;
                changed = true;
            }
            inertia += d;
        }
        // Centroid update: the mean of each cluster's members; a cluster
        // that lost every member keeps its previous centroid (still
        // deterministic, and it can win points back next round).
        let dims = centroids.first().map(Vec::len).unwrap_or(0);
        let mut sums = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in points.iter().enumerate() {
            let c = assignment[i];
            counts[c] += 1;
            for (slot, x) in sums[c].iter_mut().zip(p) {
                *slot += x;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            if counts[c] > 0 {
                for (slot, sum) in centroid.iter_mut().zip(&sums[c]) {
                    *slot = sum / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (assignment, inertia)
}

/// BIC-style model score for a clustering of `n` points in `dims`
/// dimensions with within-cluster variance `inertia`: a spherical
/// Gaussian log-likelihood minus the SimPoint parameter penalty. Higher
/// is better.
fn bic_score(n: usize, dims: usize, k: usize, inertia: f64) -> f64 {
    let nf = n as f64;
    let df = dims as f64;
    let sigma2 = (inertia / (nf * df)).max(1e-12);
    let log_likelihood = -0.5 * nf * df * sigma2.ln();
    let penalty = 0.5 * (k as f64) * (df + 1.0) * nf.ln();
    log_likelihood - penalty
}

/// The identity clustering: every slice is its own phase.
fn identity(n: usize) -> Clustering {
    Clustering {
        k: n,
        assignment: (0..n).collect(),
        representatives: (0..n).collect(),
    }
}

/// Clusters `slices` per `cfg`: random projection, a BIC-scored scan
/// over `k = 1..=k_max` (or the forced `k`), and one representative per
/// cluster. Bit-identical across runs for the same inputs and seed.
pub fn cluster_slices(slices: &[SliceProfile], cfg: &ClusterConfig) -> Clustering {
    let n = slices.len();
    if n == 0 {
        return Clustering {
            k: 0,
            assignment: Vec::new(),
            representatives: Vec::new(),
        };
    }
    if let Some(k) = cfg.forced_k {
        if k >= n {
            return identity(n);
        }
    }
    let dims = cfg.dims.max(1);
    let points = project(slices, dims, cfg.seed);

    let (k, assignment) = match cfg.forced_k {
        Some(k) => {
            let k = k.max(1);
            (k, lloyd(&points, k, cfg.seed, cfg.max_iters).0)
        }
        None => {
            let k_max = cfg.k_max.clamp(1, n);
            let mut best: Option<(f64, usize, Vec<usize>)> = None;
            for k in 1..=k_max {
                let (assignment, inertia) = lloyd(&points, k, cfg.seed, cfg.max_iters);
                let score = bic_score(n, dims, k, inertia);
                let better = match &best {
                    Some((s, _, _)) => score > *s,
                    None => true,
                };
                if better {
                    best = Some((score, k, assignment));
                }
            }
            match best {
                Some((_, k, assignment)) => (k, assignment),
                None => (1, vec![0; n]),
            }
        }
    };

    // Representatives: per cluster, the member nearest its centroid.
    // Clusters that ended empty are dropped (their id disappears), so
    // every phase has a representative and a nonzero weight.
    let mut sums = vec![vec![0.0f64; dims]; k];
    let mut counts = vec![0usize; k];
    for (i, p) in points.iter().enumerate() {
        let c = assignment[i];
        counts[c] += 1;
        for (slot, x) in sums[c].iter_mut().zip(p) {
            *slot += x;
        }
    }
    let mut remap = vec![usize::MAX; k];
    let mut representatives = Vec::new();
    let mut dense_assignment = vec![0usize; n];
    for c in 0..k {
        if counts[c] == 0 {
            continue;
        }
        let centroid: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
        let mut best_i = usize::MAX;
        let mut best_d = f64::INFINITY;
        for (i, p) in points.iter().enumerate() {
            if assignment[i] == c {
                let d = dist2(p, &centroid);
                if d < best_d {
                    best_d = d;
                    best_i = i;
                }
            }
        }
        remap[c] = representatives.len();
        representatives.push(best_i);
    }
    for (i, slot) in dense_assignment.iter_mut().enumerate() {
        *slot = remap[assignment[i]];
    }
    Clustering {
        k: representatives.len(),
        assignment: dense_assignment,
        representatives,
    }
}

/// Turns a clustering into per-phase records (no embedded checkpoints
/// yet), sorted by representative slice index so start coordinates are
/// strictly increasing. Phase weights partition the stream: summed
/// `weight_branches` equals the profile's total branch count
/// (test-enforced).
pub fn phase_entries(profile: &BbvProfile, clustering: &Clustering) -> Vec<PhaseEntry> {
    let mut entries: Vec<PhaseEntry> = clustering
        .representatives
        .iter()
        .enumerate()
        .map(|(c, &rep)| {
            let rep_slice = &profile.slices[rep];
            let mut weight_branches = 0u64;
            let mut weight_instructions = 0u64;
            let mut weight_slices = 0u64;
            for (i, s) in profile.slices.iter().enumerate() {
                if clustering.assignment[i] == c {
                    weight_branches += s.branches;
                    weight_instructions += s.instructions;
                    weight_slices += 1;
                }
            }
            PhaseEntry {
                rep_slice: rep as u64,
                weight_branches,
                weight_instructions,
                weight_slices,
                start_branch: rep_slice.start_branch,
                start_event: rep_slice.start_event,
                rep_branches: rep_slice.branches,
                rep_instructions: rep_slice.instructions,
                checkpoint: Vec::new(),
            }
        })
        .collect();
    entries.sort_by_key(|e| e.rep_slice);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_trace::bbv::extract_bbv;
    use stbpu_trace::{TraceGenerator, WorkloadProfile};

    fn profile(branches: usize, slice: u64) -> BbvProfile {
        let mut src =
            TraceGenerator::new(&WorkloadProfile::test_profile(), 11).into_source(branches);
        extract_bbv(&mut src, slice).unwrap()
    }

    #[test]
    fn clustering_is_bit_identical_across_runs() {
        let p = profile(4_000, 200);
        let cfg = ClusterConfig::default();
        let a = cluster_slices(&p.slices, &cfg);
        let b = cluster_slices(&p.slices, &cfg);
        assert_eq!(a, b);
        assert!(a.k >= 1 && a.k <= p.slices.len());
        // A different seed is allowed to differ; it must still be valid.
        let c = cluster_slices(&p.slices, &ClusterConfig { seed: 1234, ..cfg });
        assert_eq!(c.assignment.len(), p.slices.len());
    }

    #[test]
    fn weights_partition_the_stream() {
        let p = profile(5_000, 300);
        let clustering = cluster_slices(&p.slices, &ClusterConfig::default());
        let entries = phase_entries(&p, &clustering);
        assert_eq!(entries.len(), clustering.k);
        let b: u64 = entries.iter().map(|e| e.weight_branches).sum();
        let i: u64 = entries.iter().map(|e| e.weight_instructions).sum();
        let s: u64 = entries.iter().map(|e| e.weight_slices).sum();
        assert_eq!(b, p.total_branches);
        assert_eq!(i, p.total_instructions);
        assert_eq!(s, p.slices.len() as u64);
        // Entries are sorted with strictly increasing coordinates.
        for w in entries.windows(2) {
            assert!(w[0].rep_slice < w[1].rep_slice);
            assert!(w[0].start_branch < w[1].start_branch);
        }
    }

    #[test]
    fn forced_k_at_slice_count_is_the_identity() {
        let p = profile(2_000, 250);
        let n = p.slices.len();
        let clustering = cluster_slices(
            &p.slices,
            &ClusterConfig {
                forced_k: Some(n),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(clustering.k, n);
        assert_eq!(clustering.assignment, (0..n).collect::<Vec<_>>());
        assert_eq!(clustering.representatives, (0..n).collect::<Vec<_>>());
        let entries = phase_entries(&p, &clustering);
        for (e, s) in entries.iter().zip(&p.slices) {
            assert_eq!(e.weight_branches, s.branches);
            assert_eq!(e.rep_branches, s.branches);
        }
    }

    #[test]
    fn identical_slices_collapse_to_one_phase() {
        // Duplicate one slice profile many times: the BIC scan must pick
        // k = 1 (zero inertia at every k, so the penalty decides).
        let p = profile(600, 200);
        let one = p.slices[0].clone();
        let slices: Vec<_> = (0..6)
            .map(|i| {
                let mut s = one.clone();
                s.index = i as u64;
                s.start_branch = i as u64 * 200;
                s
            })
            .collect();
        let clustering = cluster_slices(&slices, &ClusterConfig::default());
        assert_eq!(clustering.k, 1);
        assert_eq!(clustering.representatives.len(), 1);
    }

    #[test]
    fn empty_input_yields_empty_clustering() {
        let clustering = cluster_slices(&[], &ClusterConfig::default());
        assert_eq!(clustering.k, 0);
        assert!(clustering.assignment.is_empty());
    }
}
