//! Experiment drivers: one module per table/figure of the paper's
//! evaluation (see DESIGN.md's experiment index).
//!
//! Each module exposes a `run(…)` function returning structured data
//! plus a `render(…)` producing the text the corresponding bench
//! binary prints. Scale parameters let the test suite exercise every
//! experiment quickly while the binaries run at full paper scale.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8_table4;
pub mod fig9;
pub mod paper_depot;
pub mod table1;
pub mod table2;
pub mod table3;
