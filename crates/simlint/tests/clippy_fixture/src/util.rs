//! The far end of the re-export chains (`det008_cross_file_reexport`,
//! `graph_crate_root_reexport_via_glob`).

pub use std::collections::HashMap as FastMap; //~ disallowed_types
pub use std::collections::HashSet as IdSet; //~ disallowed_types
