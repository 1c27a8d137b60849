//! One module per paper table/figure.
//!
//! Naming follows the paper: `fig02` reproduces Figure 2, `table1`
//! Table 1, and so on. Figures 7 and 8 are architecture diagrams with no
//! data series; Figure 6's pipelining illustration is reproduced as an
//! ASCII Gantt chart from a real run.

pub mod ablation;
pub mod chaos;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod frontier;
pub mod table1;
pub mod table2;
