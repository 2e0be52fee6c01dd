//! The work-stealing shard dispenser. It lives in
//! [`mpwifi_simcore::fanout`] beside the fan-out engine that drives it;
//! this module keeps the `mpwifi_crowd::steal::StealQueue` path.

pub use mpwifi_simcore::fanout::StealQueue;
