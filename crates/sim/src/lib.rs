//! # scalia-sim
//!
//! The evaluation simulator of the Scalia reproduction (§IV of the paper).
//!
//! The paper evaluates Scalia purely in terms of **cost**: for a given
//! workload it compares the money billed by the providers under (a) every
//! static provider set of Fig. 13, (b) Scalia's adaptive placement, and
//! (c) the per-period *ideal* placement computed with perfect knowledge of
//! each period's demand. This crate rebuilds that methodology:
//!
//! * [`workload`] — workload generators: the Slashdot spike, the Gallery
//!   (diurnal website traffic with Pareto picture popularity), the periodic
//!   40 MB backup writer, and the synthetic website trace used for the
//!   trend-detection figures.
//! * [`static_sets`] — the 26 static provider sets of Fig. 13.
//! * [`policy`] — placement policies: static, ideal (oracle) and the Scalia
//!   adaptive policy (trend detection + Algorithm 1 + migration gate).
//! * [`accounting`] — per-period cost and resource accounting for a policy
//!   over a workload.
//! * [`experiment`] — scenario runners producing the over-cost tables
//!   (Figs. 14, 16, §IV-D) and the resource/ cumulative-cost series
//!   (Figs. 12, 15, 17, 18).
//! * [`scenarios`] — the four paper scenarios parameterised exactly as in
//!   §IV, plus the trend-detection traces of Figs. 8 and 9.
//! * [`traffic`] — the request-level traffic harness: seeded multi-tenant
//!   traces (flash crowds, diurnal cycles, Zipf hot keys, mid-burst
//!   outages, price-drop migrations) replayed in virtual time through the
//!   front-end service's admission control and fair scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod experiment;
pub mod policy;
pub mod scenarios;
pub mod static_sets;
pub mod traffic;
pub mod workload;

/// Commonly used items.
pub mod prelude {

    pub use crate::traffic::{
        generate_trace, run_traffic, trace_digest, ArrivalPattern, OpMix, TenantSpec, TrafficEvent,
        TrafficSpec,
    };
}
