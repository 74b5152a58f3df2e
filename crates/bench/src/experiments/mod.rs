//! Experiment implementations, one function per paper table/figure.

pub mod ablations;
pub mod app_figs;
pub mod app_tables;
pub mod net_figs;
pub mod reliability;
pub mod static_tables;
pub mod storage_figs;

use skyrise::micro::ExperimentResult;

pub use ablations::{ablation_binary_size, ablation_combining, extra_observations};
pub use app_figs::{fig14, fig15};
pub use app_tables::{table04, table05, table06};
pub use net_figs::{fig05, fig06, fig07};
pub use reliability::reliability;
pub use static_tables::{table01, table02, table03, table07, table08};
pub use storage_figs::{fig08, fig09, fig10, fig11, fig12, fig13};

/// A registry entry: the name `skyrise-bench` selects it by, and its body.
pub type Experiment = (&'static str, fn() -> ExperimentResult);

/// The complete suite, in paper order. The single source of truth for the
/// `skyrise-bench` CLI, the findings table (each row names an experiment
/// here, see [`crate::findings`]) and the parallel-determinism test — so
/// none of them can drift out of sync with a new experiment.
pub const ALL: &[Experiment] = &[
    ("table01", table01),
    ("table02", table02),
    ("table03", table03),
    ("table04", table04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("table05", table05),
    ("table06", table06),
    ("table07", table07),
    ("table08", table08),
    ("reliability", reliability),
    ("ablation_combining", ablation_combining),
    ("ablation_binary_size", ablation_binary_size),
    ("extra_observations", extra_observations),
];
