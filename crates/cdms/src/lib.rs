//! # esg-cdms — Climate Data Management System
//!
//! The data layer of the ESG prototype: CDAT/CDMS at LLNL gave users "a view
//! of data as a collection of datasets, comprised primarily of
//! multidimensional data variables together with descriptive, textual data"
//! (§3). This crate reproduces that layer end to end:
//!
//! * [`model`] — axes, variables, datasets (the CDMS data model).
//! * [`ncio`] — a self-describing binary file format ("ESG1", standing in
//!   for netCDF) with robust corruption handling.
//! * [`hyperslab`] — spatiotemporal region extraction (VCDAT's selection,
//!   and the subsetting ESG-II planned to push server-side).
//! * [`analysis`] — time/zonal/area-weighted means, statistics.
//! * [`synth`] — deterministic synthetic climate fields (substitution for
//!   PCMDI archives; see DESIGN.md).
//! * [`partition`] — dataset → logical file chunking (the unit the replica
//!   catalog and GridFTP operate on), including real files on disk.
//! * [`regrid`] — bilinear regridding and PCMDI-style model
//!   intercomparison (bias/RMS/pattern correlation), the "intercomparing
//!   distributed data" goal of the paper's introduction.
//! * [`viz`] — ASCII and PPM rendering (Figure 3's role).

pub mod analysis;
pub mod hyperslab;
pub mod model;
pub mod ncio;
pub mod partition;
pub mod regrid;
pub mod synth;
pub mod viz;

pub use analysis::{global_mean_series, stats, time_mean, zonal_mean, Field2d, Stats};
pub use hyperslab::{extract, extract_dataset, Hyperslab};
pub use model::{Axis, Dataset, ModelError, Variable};
pub use ncio::{from_bytes, load, read_dataset, save, to_bytes, write_dataset, NcError};
pub use partition::{chunk_of, files_for_range, partition_by_time, write_chunks, LogicalFile};
pub use regrid::{intercompare, regrid_bilinear, Intercomparison};
pub use synth::{generate, SynthParams};
pub use viz::{ascii_map, ppm, save_ppm};
