//! The annotation pipeline's stage graph.
//!
//! Figure 2 of the paper shows the Xenograft annotation as a sequence of
//! stages whose parallelism swings from tens (stateful sorts, red bars)
//! to thousands (the Cartesian comparison, grey bars). [`stages`]
//! synthesises that graph for any Table 2 job:
//!
//! 1. `load-dataset` — parse/chunk the imzML input (stateless).
//! 2. `formula-gen` — generate database formulas ("a maximum of a few
//!    hundred parallel tasks", stateless).
//! 3. `db-segment` — sort & segment the database (**stateful**, the
//!    paper's "32 tasks in database partitioning").
//! 4. `ds-segment` — sort & partition the dataset (**stateful**, the
//!    dominant all-to-all; for Xenograft this is the §4.2 sort
//!    experiment's ~25 GB / 64 GB-of-memory operation).
//! 5. `annotate` — compare dataset segments against database segments
//!    (Cartesian, massively parallel).
//! 6. `fdr` — decoy scoring (stateless).
//! 7. `collect` — group and publish results (**stateful**, small).
//!
//! Task counts and volumes derive from the Table 2 columns; CPU
//! densities are profile parameters standing in for the real datasets
//! (see [`jobs`](crate::jobs)).

use crate::jobs::JobSpec;

// The stage description types live in the `workload` crate now (the
// general stage-DAG workload layer); re-exported here so the rest of
// the workspace keeps addressing them as `metaspace::pipeline::Stage`
// and friends.
pub use workload::{Stage, StageEdge, StageKind, Workload};

/// The sort volume of the dataset segmentation stage, GB. (The paper's
/// §4.2 sort experiment processes a larger standalone volume — ~25 GB
/// under 64 GB of memory — than the in-pipeline segmentation, whose
/// stateful window Table 3 shows at ~40 % of the run.)
pub fn dataset_sort_gb(job: &JobSpec) -> f64 {
    match job.name {
        "Brain" => 0.7,
        "Xenograft" => 20.0,
        "X089" => 30.0,
        _ => job.dataset_gb * 10.0,
    }
}

/// The database segmentation volume, GB (formula envelopes + metadata).
pub fn db_sort_gb(job: &JobSpec) -> f64 {
    job.db_formulas as f64 / 1000.0 * 0.045
}

/// The job's annotation pipeline as a full workload description (the
/// canonical 9-stage graph with its dataflow edges), expressed through
/// the [`workload::families::metaspace`] family.
pub fn job_workload(job: &JobSpec) -> Workload {
    workload::families::metaspace(&workload::families::MetaspaceParams {
        name: job.name.to_owned(),
        dataset_gb: job.dataset_gb,
        db_formulas_k: job.db_formulas as f64 / 1000.0,
        max_volume_gb: job.max_volume_gb,
        annotate_cpu_secs: job.annotate_cpu_secs,
        dataset_sort_gb: dataset_sort_gb(job),
        db_sort_gb: db_sort_gb(job),
    })
}

/// Builds the stage graph for a job.
pub fn stages(job: &JobSpec) -> Vec<Stage> {
    job_workload(job).stages
}

/// The dependency edges of a stage list, one `Vec<StageEdge>` per
/// stage, aligned index-for-index.
///
/// For the canonical METASPACE stage list (the nine names [`stages`]
/// produces, in order) this is the real annotation dataflow of the
/// paper's Figure 2: the dataset branch (`load-dataset` →
/// `parse-spectra` → `ds-segment`) and the database branch
/// (`formula-gen` → `db-segment`) proceed independently until
/// `annotate` joins them — partition-wise against the dataset segments,
/// all-to-all against the (replicated) database segments — and the
/// scoring tail (`metrics` → `fdr`) chains partition-wise into the
/// final `collect` shuffle.
///
/// Any other stage list (scaled replicas keep the canonical names; toy
/// graphs in tests do not) degrades to the conservative linear chain of
/// all-to-all edges — exactly the barrier order, so dataflow scheduling
/// stays correct for arbitrary pipelines, just without overlap.
pub fn edges(stages: &[Stage]) -> Vec<Vec<StageEdge>> {
    const CANON: [&str; 9] = [
        "load-dataset",
        "parse-spectra",
        "formula-gen",
        "db-segment",
        "ds-segment",
        "annotate",
        "metrics",
        "fdr",
        "collect",
    ];
    let canonical = stages.len() == CANON.len()
        && stages.iter().zip(CANON).all(|(s, n)| s.name == n);
    if canonical {
        return vec![
            vec![],                                                       // load-dataset
            vec![StageEdge::one_to_one(0)],                               // parse-spectra
            vec![],                                                       // formula-gen
            vec![StageEdge::all_to_all(2)],                               // db-segment
            vec![StageEdge::all_to_all(1)],                               // ds-segment
            vec![StageEdge::one_to_one(4), StageEdge::all_to_all(3)],     // annotate
            vec![StageEdge::one_to_one(5)],                               // metrics
            vec![StageEdge::one_to_one(6)],                               // fdr
            vec![StageEdge::all_to_all(7)],                               // collect
        ];
    }
    (0..stages.len())
        .map(|i| {
            if i == 0 {
                vec![]
            } else {
                vec![StageEdge::all_to_all(i - 1)]
            }
        })
        .collect()
}

/// Builds a down-scaled stage graph for a job: task counts and exchange
/// volumes multiplied by `scale` (per-task work unchanged), with a
/// two-task floor so every stage still exercises parallel dispatch.
///
/// Fleet-scale traffic simulations run dozens of concurrent jobs; at
/// `scale = 1.0` a single Xenograft already spawns thousands of tasks,
/// so tenants submit scaled replicas that keep the stage *shape*
/// (elasticity swings, stateful windows) at a tractable task volume.
///
/// # Panics
///
/// Panics unless `0 < scale <= 1`.
pub fn scaled_stages(job: &JobSpec, scale: f64) -> Vec<Stage> {
    scaled_workload(job, scale).stages
}

/// [`scaled_stages`] with the dataflow edges attached: the down-scaled
/// job as a full workload description. Uses the generic workload scaler
/// with this pipeline's historical floors (two tasks, 0.005 GB).
///
/// # Panics
///
/// Panics unless `0 < scale <= 1`.
pub fn scaled_workload(job: &JobSpec, scale: f64) -> Workload {
    job_workload(job).scaled_with(
        scale,
        &workload::ScaleOptions { min_tasks: 2, min_exchange_gb: 0.005 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs;

    #[test]
    fn xenograft_shape_matches_figure2() {
        let stages = stages(&jobs::xenograft());
        assert_eq!(stages.len(), 9);
        // Stateful stages: db-segment, ds-segment, collect.
        let stateful: Vec<&str> = stages
            .iter()
            .filter(|s| s.is_stateful())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(stateful, vec!["db-segment", "ds-segment", "collect"]);
        // db partitioning runs 32 tasks, as the paper says.
        assert_eq!(stages.iter().find(|s| s.name == "db-segment").unwrap().tasks, 32);
        // The comparison stage reaches a few thousand parallel tasks.
        let annotate = stages.iter().find(|s| s.name == "annotate").unwrap();
        assert!((1500..=4000).contains(&annotate.tasks), "{}", annotate.tasks);
    }

    #[test]
    fn name_matched_edges_equal_each_job_workloads_own_edges() {
        // Callers that moved from name-matched edges onto the
        // workload's own edges must see the same graph.
        for job in jobs::all() {
            let w = job_workload(&job);
            assert_eq!(edges(&w.stages), w.edges, "{}", job.name);
            let small = scaled_workload(&job, 0.02);
            assert_eq!(edges(&small.stages), small.edges, "{} scaled", job.name);
        }
    }

    #[test]
    fn elasticity_spans_orders_of_magnitude() {
        // "parallelism of a workload ranges from modestly parallel stages
        // to massive concurrency".
        let stages = stages(&jobs::xenograft());
        let min = stages.iter().map(|s| s.tasks).min().unwrap();
        let max = stages.iter().map(|s| s.tasks).max().unwrap();
        assert!(max / min >= 50, "min {min} max {max}");
    }

    #[test]
    fn xenograft_dataset_sort_matches_section_4_2() {
        // 25 GB at the 2.5x memory factor fills the 64 GB the paper
        // provisions in the sort experiment.
        let v = dataset_sort_gb(&jobs::xenograft());
        assert!((10.0..26.0).contains(&v));
    }

    #[test]
    fn bigger_jobs_have_bigger_annotate_stages() {
        let brain = stages(&jobs::brain());
        let xeno = stages(&jobs::xenograft());
        let a = |s: &[Stage]| s.iter().find(|s| s.name == "annotate").unwrap().tasks;
        assert!(a(&xeno) > 4 * a(&brain));
    }

    #[test]
    fn scaled_stages_keep_shape_at_lower_volume() {
        let full = stages(&jobs::xenograft());
        let scaled = scaled_stages(&jobs::xenograft(), 0.05);
        assert_eq!(full.len(), scaled.len());
        for (f, s) in full.iter().zip(&scaled) {
            assert_eq!(f.name, s.name);
            assert!(s.tasks >= 2);
            assert!(s.tasks <= f.tasks);
            assert_eq!(f.is_stateful(), s.is_stateful());
        }
        let tasks = |st: &[Stage]| st.iter().map(|s| s.tasks).sum::<usize>();
        assert!(tasks(&scaled) * 10 < tasks(&full));
    }

    #[test]
    fn canonical_edges_form_a_dag_joining_at_annotate() {
        let st = stages(&jobs::brain());
        let deps = edges(&st);
        assert_eq!(deps.len(), st.len());
        // Every edge is topological.
        for (i, es) in deps.iter().enumerate() {
            for e in es {
                assert!(e.from < i, "edge {} -> {i}", e.from);
            }
        }
        // Two independent roots: the dataset and database branches.
        let roots: Vec<usize> = deps
            .iter()
            .enumerate()
            .filter(|(_, es)| es.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(roots, vec![0, 2], "load-dataset and formula-gen");
        // annotate (index 5) joins both branches.
        assert_eq!(deps[5].len(), 2);
        // Shuffles are all-to-all; map chains are one-to-one.
        assert_eq!(deps[4], vec![StageEdge::all_to_all(1)]);
        assert_eq!(deps[6], vec![StageEdge::one_to_one(5)]);
    }

    #[test]
    fn scaled_stages_keep_the_canonical_dataflow() {
        // Scaled replicas preserve stage names, so the fleet's pipelined
        // jobs get the real DAG, not the linear fallback.
        let st = scaled_stages(&jobs::xenograft(), 0.05);
        let deps = edges(&st);
        assert_eq!(deps[5].len(), 2, "annotate still joins two branches");
    }

    #[test]
    fn unknown_stage_lists_fall_back_to_a_linear_chain() {
        let mut st = stages(&jobs::brain());
        st.truncate(3);
        let deps = edges(&st);
        assert_eq!(deps[0], vec![]);
        assert_eq!(deps[1], vec![StageEdge::all_to_all(0)]);
        assert_eq!(deps[2], vec![StageEdge::all_to_all(1)]);
    }

    #[test]
    fn workload_description_matches_the_canonical_graph() {
        // The migration gate: the DSL-expressible workload description
        // must carry exactly the dataflow `edges` hard-coded for the
        // canonical stage list, for every Table 2 job, and survive a
        // text round-trip unchanged.
        for job in jobs::all() {
            let w = job_workload(&job);
            w.validate().expect("job workloads validate");
            assert_eq!(w.edges, edges(&w.stages), "{}", job.name);
            let back = workload::parse(&workload::emit(&w)).expect("round-trip parses");
            assert_eq!(back, w, "{} drifts through the DSL", job.name);
        }
    }

    #[test]
    fn scaled_workload_keeps_edges_aligned() {
        let w = scaled_workload(&jobs::xenograft(), 0.05);
        w.validate().expect("scaled workloads stay valid");
        assert_eq!(w.stages, scaled_stages(&jobs::xenograft(), 0.05));
        assert_eq!(w.edges, edges(&w.stages));
    }

    #[test]
    fn annotate_volume_covers_table2_max_volume() {
        for job in jobs::all() {
            let st = stages(&job);
            let annotate = st.iter().find(|s| s.name == "annotate").unwrap();
            let total_read_gb = annotate.tasks as f64 * annotate.read_mb_per_task / 1024.0;
            assert!(
                (total_read_gb - job.max_volume_gb).abs() / job.max_volume_gb < 0.01,
                "{}: {total_read_gb} vs {}",
                job.name,
                job.max_volume_gb
            );
        }
    }
}
