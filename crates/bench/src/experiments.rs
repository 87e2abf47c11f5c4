//! Per-figure experiment drivers (TABLE IV, Figs. 10–15).
//!
//! Experiment 1 (Figs. 10–13) sweeps the average vertex degree per label
//! with 4-RPQ sets; Experiment 2 (Figs. 14–15) sweeps the number of RPQs
//! per set on RMAT_3 and Advogato. One pass over each dataset produces the
//! metrics for all figures of its experiment, so `all` does not repeat the
//! expensive runs.

use crate::datasets::{experiment2_datasets, real_surrogates, synthetic_sweep, Dataset};
use crate::profiles::Profile;
use crate::runner::{run_all_strategies, RunMetrics};
use crate::table::{fmt_ratio, fmt_secs, Table};
use rpq_datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
use std::time::Duration;

/// Strategy metrics averaged across the multiple-RPQ sets of one dataset.
#[derive(Clone, Debug, Default)]
pub struct AggMetrics {
    /// Mean query response time (seconds).
    pub total_s: f64,
    /// Mean `Shared_Data` time (seconds).
    pub shared_s: f64,
    /// Mean `Pre⋈R⁺` time (seconds).
    pub pre_join_s: f64,
    /// Mean remainder time (seconds).
    pub remainder_s: f64,
    /// Mean shared-data size (pairs).
    pub shared_pairs: f64,
    /// Mean shared-structure vertex count.
    pub shared_vertices: f64,
}

impl AggMetrics {
    fn accumulate(&mut self, m: &RunMetrics) {
        self.total_s += m.total.as_secs_f64();
        self.shared_s += m.breakdown.shared_data.as_secs_f64();
        self.pre_join_s += m.breakdown.pre_join.as_secs_f64();
        self.remainder_s += m.breakdown.remainder().as_secs_f64();
        self.shared_pairs += m.shared_pairs as f64;
        self.shared_vertices += m.shared_vertices as f64;
    }

    fn divide(&mut self, n: f64) {
        self.total_s /= n;
        self.shared_s /= n;
        self.pre_join_s /= n;
        self.remainder_s /= n;
        self.shared_pairs /= n;
        self.shared_vertices /= n;
    }
}

/// Aggregated Experiment 1 measurements for one dataset.
pub struct Exp1Row {
    /// Dataset name.
    pub name: String,
    /// Average vertex degree per label.
    pub degree: f64,
    /// Per-strategy aggregates, indexed as `Strategy::ALL` (No, Full, RTC).
    pub agg: [AggMetrics; 3],
}

/// Runs Experiment 1 on the given datasets with `set_size` RPQs per set.
pub fn run_experiment1(datasets: &[Dataset], profile: Profile, set_size: usize) -> Vec<Exp1Row> {
    let mut rows = Vec::with_capacity(datasets.len());
    for ds in datasets {
        let sets = generate_workload(
            &alphabet_of(&ds.graph),
            &WorkloadConfig {
                rs_per_length: profile.rs_per_length(),
                queries_per_set: set_size,
                ..WorkloadConfig::default()
            },
        );
        let mut agg: [AggMetrics; 3] = Default::default();
        for set in &sets {
            let runs = run_all_strategies(&ds.graph, set.prefix(set_size));
            for (slot, m) in agg.iter_mut().zip(&runs) {
                slot.accumulate(m);
            }
        }
        let n = sets.len() as f64;
        for slot in agg.iter_mut() {
            slot.divide(n);
        }
        rows.push(Exp1Row {
            name: ds.name.clone(),
            degree: ds.graph.degree_per_label(),
            agg,
        });
    }
    rows
}

/// Fig. 10: query response time of No / Full / RTC per dataset.
pub fn fig10_table(title: &str, rows: &[Exp1Row]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "dataset", "degree", "No(s)", "Full(s)", "RTC(s)", "Full/RTC", "No/RTC",
        ],
    );
    for r in rows {
        let (no, full, rtc) = (&r.agg[0], &r.agg[1], &r.agg[2]);
        t.row(vec![
            r.name.clone(),
            format!("{:.4}", r.degree),
            fmt_secs(Duration::from_secs_f64(no.total_s)),
            fmt_secs(Duration::from_secs_f64(full.total_s)),
            fmt_secs(Duration::from_secs_f64(rtc.total_s)),
            fmt_ratio(full.total_s, rtc.total_s),
            fmt_ratio(no.total_s, rtc.total_s),
        ]);
    }
    t
}

/// Fig. 11: three-part computation time of Full vs RTC per dataset.
pub fn fig11_table(title: &str, rows: &[Exp1Row]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "dataset",
            "method",
            "Shared_Data(s)",
            "Pre⋈R+(s)",
            "Remainder(s)",
        ],
    );
    for r in rows {
        for (idx, strategy) in [(1usize, "Full"), (2, "RTC")] {
            let a = &r.agg[idx];
            t.row(vec![
                r.name.clone(),
                strategy.to_string(),
                fmt_secs(Duration::from_secs_f64(a.shared_s)),
                fmt_secs(Duration::from_secs_f64(a.pre_join_s)),
                fmt_secs(Duration::from_secs_f64(a.remainder_s)),
            ]);
        }
    }
    t
}

/// Fig. 12: shared data size (pairs) of Full (`R⁺_G`) vs RTC (`R̄⁺_G`).
pub fn fig12_table(title: &str, rows: &[Exp1Row]) -> Table {
    let mut t = Table::new(
        title,
        &["dataset", "degree", "Full pairs", "RTC pairs", "Full/RTC"],
    );
    for r in rows {
        let (full, rtc) = (&r.agg[1], &r.agg[2]);
        t.row(vec![
            r.name.clone(),
            format!("{:.4}", r.degree),
            format!("{:.0}", full.shared_pairs),
            format!("{:.0}", rtc.shared_pairs),
            fmt_ratio(full.shared_pairs, rtc.shared_pairs),
        ]);
    }
    t
}

/// Fig. 13: number of vertices `|V_R|` (Full) vs `|V̄_R|` (RTC).
pub fn fig13_table(title: &str, rows: &[Exp1Row]) -> Table {
    let mut t = Table::new(
        title,
        &["dataset", "degree", "|V_R| (Full)", "|V̄_R| (RTC)", "ratio"],
    );
    for r in rows {
        let (full, rtc) = (&r.agg[1], &r.agg[2]);
        t.row(vec![
            r.name.clone(),
            format!("{:.4}", r.degree),
            format!("{:.0}", full.shared_vertices),
            format!("{:.0}", rtc.shared_vertices),
            fmt_ratio(full.shared_vertices, rtc.shared_vertices),
        ]);
    }
    t
}

/// Aggregated Experiment 2 measurements: one row per (dataset, #RPQs).
pub struct Exp2Row {
    /// Dataset name.
    pub name: String,
    /// Number of RPQs in the set.
    pub set_size: usize,
    /// Per-strategy aggregates (No, Full, RTC).
    pub agg: [AggMetrics; 3],
}

/// Runs Experiment 2 (vary #RPQs) on RMAT_3 and the Advogato surrogate.
pub fn run_experiment2(profile: Profile) -> Vec<Exp2Row> {
    let mut rows = Vec::new();
    for ds in experiment2_datasets(profile) {
        let sets = generate_workload(
            &alphabet_of(&ds.graph),
            &WorkloadConfig {
                rs_per_length: profile.rs_per_length_exp2(),
                queries_per_set: *profile.set_sizes().last().unwrap_or(&10),
                ..WorkloadConfig::default()
            },
        );
        for &k in &profile.set_sizes() {
            let mut agg: [AggMetrics; 3] = Default::default();
            for set in &sets {
                let runs = run_all_strategies(&ds.graph, set.prefix(k));
                for (slot, m) in agg.iter_mut().zip(&runs) {
                    slot.accumulate(m);
                }
            }
            let n = sets.len() as f64;
            for slot in agg.iter_mut() {
                slot.divide(n);
            }
            rows.push(Exp2Row {
                name: ds.name.clone(),
                set_size: k,
                agg,
            });
        }
    }
    rows
}

/// Fig. 14: response time vs number of RPQs.
pub fn fig14_table(rows: &[Exp2Row]) -> Table {
    let mut t = Table::new(
        "Fig 14: query response time vs #RPQs",
        &[
            "dataset", "#RPQs", "No(s)", "Full(s)", "RTC(s)", "Full/RTC", "No/RTC",
        ],
    );
    for r in rows {
        let (no, full, rtc) = (&r.agg[0], &r.agg[1], &r.agg[2]);
        t.row(vec![
            r.name.clone(),
            r.set_size.to_string(),
            fmt_secs(Duration::from_secs_f64(no.total_s)),
            fmt_secs(Duration::from_secs_f64(full.total_s)),
            fmt_secs(Duration::from_secs_f64(rtc.total_s)),
            fmt_ratio(full.total_s, rtc.total_s),
            fmt_ratio(no.total_s, rtc.total_s),
        ]);
    }
    t
}

/// Fig. 15: three-part computation time vs number of RPQs.
pub fn fig15_table(rows: &[Exp2Row]) -> Table {
    let mut t = Table::new(
        "Fig 15: computation time of three parts vs #RPQs",
        &[
            "dataset",
            "#RPQs",
            "method",
            "Shared_Data(s)",
            "Pre⋈R+(s)",
            "Remainder(s)",
        ],
    );
    for r in rows {
        for (idx, name) in [(1usize, "Full"), (2, "RTC")] {
            let a = &r.agg[idx];
            t.row(vec![
                r.name.clone(),
                r.set_size.to_string(),
                name.to_string(),
                fmt_secs(Duration::from_secs_f64(a.shared_s)),
                fmt_secs(Duration::from_secs_f64(a.pre_join_s)),
                fmt_secs(Duration::from_secs_f64(a.remainder_s)),
            ]);
        }
    }
    t
}

/// TABLE IV: statistics of the datasets used in the experiments.
pub fn table4(profile: Profile) -> Table {
    let mut t = Table::new(
        "TABLE IV: statistics of datasets",
        &["dataset", "|V|", "|E|", "|Σ|", "|E|/(|V||Σ|)"],
    );
    for ds in real_surrogates(profile)
        .iter()
        .chain(synthetic_sweep(profile).iter())
    {
        let s = ds.stats();
        t.row(vec![
            ds.name.clone(),
            s.vertices.to_string(),
            s.edges.to_string(),
            s.labels.to_string(),
            format!("{:.4}", s.degree_per_label),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment1_fast_profile_smoke() {
        // One tiny dataset end-to-end through all figures.
        let datasets = vec![crate::datasets::Dataset {
            name: "RMAT_2".into(),
            graph: rpq_datasets::rmat::rmat_n_scaled(2, 8, 3),
            synthetic: true,
        }];
        let rows = run_experiment1(&datasets, Profile::Fast, 2);
        assert_eq!(rows.len(), 1);
        let f10 = fig10_table("Fig 10(a)", &rows);
        assert_eq!(f10.len(), 1);
        let f11 = fig11_table("Fig 11(a)", &rows);
        assert_eq!(f11.len(), 2); // Full + RTC
        let f12 = fig12_table("Fig 12(a)", &rows);
        assert!(!f12.is_empty());
        let f13 = fig13_table("Fig 13(a)", &rows);
        assert!(!f13.is_empty());
        // RTC shared pairs never exceed Full shared pairs.
        let r = &rows[0];
        assert!(r.agg[2].shared_pairs <= r.agg[1].shared_pairs + 1e-9);
        assert!(r.agg[2].shared_vertices <= r.agg[1].shared_vertices + 1e-9);
    }

    #[test]
    fn table4_lists_all_datasets() {
        let t = table4(Profile::Fast);
        // 4 surrogates + 3 fast-profile RMAT points.
        assert_eq!(t.len(), 7);
    }
}
