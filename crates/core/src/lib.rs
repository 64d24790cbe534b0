//! Fidelius — the paper's primary contribution.
//!
//! A software extension to AMD SEV that protects guest VMs against an
//! untrusted hypervisor by separating critical-resource *management* from
//! service *provisioning*:
//!
//! - [`fidelius::Fidelius`] — the protection context, implemented as a
//!   `fidelius_xen::Guardian`, living at the hypervisor's privilege level
//!   but isolated by non-bypassable memory isolation;
//! - [`gates`] — the three transition gates (WP-toggle / checking-loop /
//!   add-mapping) of §4.1.3;
//! - [`pit`] / [`git`] — the page and grant information tables driving the
//!   policy checks of §5.2;
//! - [`shadow`] — VMCB/register shadowing with exit-reason masking (§4.2.1,
//!   §5.1), the "software SEV-ES";
//! - [`policy`] — the Table-2 instruction policies plus write-once /
//!   execute-once enforcement (§5.3);
//! - [`scanner`] — the binary scanner monopolizing privileged instructions
//!   (§4.1.2);
//! - [`lifecycle`] — full VM life-cycle protection: encrypted boot through
//!   the retrofitted SEND/RECEIVE APIs (§4.3.2–4.3.3), sealing, shutdown;
//! - [`migrate`] — SEV-based VM migration (§4.3.6).
//!
//! # Quick start
//!
//! ```
//! use fidelius_core::fidelius::Fidelius;
//! use fidelius_xen::System;
//!
//! # fn main() -> Result<(), fidelius_xen::XenError> {
//! let sys = System::new(24 * 1024 * 1024, 42, Box::new(Fidelius::new()))?;
//! assert_eq!(sys.guardian.name(), "fidelius");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fidelius;
pub mod gates;
pub mod git;
pub mod lifecycle;
pub mod migrate;
pub mod pit;
pub mod policy;
pub mod scanner;
pub mod shadow;

pub use fidelius::Fidelius;
pub use fidelius_xen::guardian::GuardError;
