//! Experiment E15 — ablation of the bucket-hash construction for `h3`.
//!
//! The paper's analysis uses a `Θ(log(1/ε)/log log(1/ε))`-wise independent
//! family (Lemma 2); its O(1)-time implementation substitutes Siegel/Pagh–Pagh
//! machinery, which this reproduction replaces with tabulation hashing (the
//! `knw_hash::tabulation` module docs give the argument).  This ablation runs the full F0 sketch under both options
//! and compares accuracy and update throughput, demonstrating that the
//! substitution does not change the estimator's behaviour while being faster
//! per update.

use knw_bench::report::fmt_f64;
use knw_bench::{measure_updates, AccuracyStats, Table};
use knw_core::{F0Config, HashStrategy, KnwF0Sketch};
use knw_stream::{StreamGenerator, UniformGenerator};

fn main() {
    let universe = 1u64 << 22;
    let stream_len = 500_000usize;
    let trials = 12u64;

    let mut table = Table::new(
        "Hash strategy ablation for h3 (eps in {0.1, 0.05})",
        &[
            "epsilon",
            "strategy",
            "median |rel err|",
            "p90 |rel err|",
            "mean ns/update",
            "h3 space (share of sketch)",
        ],
    );

    for &eps in &[0.1f64, 0.05] {
        for (strategy, label) in [
            (HashStrategy::PolynomialKWise, "polynomial k-wise"),
            (HashStrategy::Tabulation, "tabulation"),
        ] {
            let mut stats = AccuracyStats::new();
            let mut mean_ns = 0.0;
            let mut space_note = String::new();
            for seed in 0..trials {
                let mut gen = UniformGenerator::new(universe, seed * 3 + 1);
                let items = gen.take_vec(stream_len);
                let truth = gen.distinct_so_far() as f64;
                let cfg = F0Config::new(eps, universe)
                    .with_seed(seed * 7 + 1)
                    .with_hash_strategy(strategy);
                let mut sketch = KnwF0Sketch::new(cfg);
                let t = measure_updates(&mut sketch, &items, 8_192, |s, i| s.insert(i));
                mean_ns += t.mean_ns;
                stats.record(sketch.estimate_f0(), truth);
                space_note = format!("{} bits total", knw_core::SpaceUsage::space_bits(&sketch));
            }
            mean_ns /= trials as f64;
            table.add_row(&[
                eps.to_string(),
                label.to_string(),
                fmt_f64(stats.median_abs_error()),
                fmt_f64(stats.abs_error_quantile(0.9)),
                fmt_f64(mean_ns),
                space_note,
            ]);
        }
    }
    table.print();
}
