//! Sparse-matrix substrate for the SMASH reproduction.
//!
//! This crate provides the storage formats the paper builds on and compares
//! against (dense, COO, CSR, CSC, BCSR), conversions between them, and the
//! seeded synthetic workload generators that stand in for the SuiteSparse
//! matrices of Table 3 and the locality-of-sparsity experiments of §7.2.3.
//!
//! # Example
//!
//! ```
//! use smash_matrix::{Coo, Csr};
//!
//! let mut coo = Coo::<f64>::new(4, 4);
//! coo.push(0, 0, 3.2);
//! coo.push(1, 0, 1.2);
//! coo.push(1, 2, 4.2);
//! coo.push(2, 3, 5.1);
//! coo.push(3, 0, 5.3);
//! coo.push(3, 1, 3.3);
//! let csr = Csr::from_coo(&coo);
//! assert_eq!(csr.nnz(), 6);
//! let y = csr.spmv(&[1.0, 1.0, 1.0, 1.0]);
//! assert_eq!(y[1], 1.2 + 4.2);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bcsr;
mod coo;
mod csc;
mod csr;
mod dense;
mod error;
pub mod generators;
pub mod locality;
pub mod market;
mod rowread;
mod scalar;
pub mod simd;
pub mod suite;

pub use bcsr::Bcsr;
pub use coo::Coo;
pub use csc::Csc;
pub use csr::{Csr, CsrBuilder};
pub use dense::{axpy_dense_tiles, block_row_tiles, for_each_rhs_tile, Dense};
pub use error::MatrixError;
pub use rowread::{spmm_dense_rows, spmv_rows, RowRead};
pub use scalar::Scalar;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, MatrixError>;
