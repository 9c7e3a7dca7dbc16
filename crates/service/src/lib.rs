//! # dramscope-service
//!
//! Characterization-as-a-service: the [`dramscoped`](crate::daemon)
//! daemon and the library engine behind it — a job queue over the
//! persistent [`FleetPool`](dramscope_core::FleetPool), in-flight
//! request coalescing, and a content-addressed dossier cache keyed on
//! `(profile_digest, seed, geometry_digest, options_digest)`.
//!
//! The wire protocol is JSON lines ([`protocol`]): one request per
//! line, byte-stable result lines, structured errors for every
//! malformed input (decoding is total — a client cannot crash the
//! daemon). The same handler serves stdin/stdout and a unix-socket
//! listener ([`daemon`]); [`cli`] holds the command-line grammar and
//! [`ServeConfig`], the one front-end of both daemon binaries.
//!
//! # Example: two identical jobs, one simulation
//!
//! ```
//! use dramscope_service::{profiles, CacheStatus, JobSpec, Service};
//!
//! let service = Service::new(1);
//! let (profile, opts) = profiles::named_job("test_small").unwrap();
//! let spec = JobSpec {
//!     profile_name: "test_small".into(),
//!     profile,
//!     seed: 7,
//!     opts,
//!     sharded: false,
//! };
//! let (first, s1) = service.submit(&spec, None).unwrap();
//! let (second, s2) = service.submit(&spec, None).unwrap();
//! assert_eq!(s1, CacheStatus::Miss);
//! assert_eq!(s2, CacheStatus::Hit);
//! assert_eq!(first.digest, second.digest);
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod cli;
pub mod daemon;
pub mod profiles;
pub mod protocol;
pub mod service;

pub use cli::ServeConfig;
#[cfg(unix)]
pub use daemon::serve_unix;
pub use daemon::{handle_connection, handle_connection_mode, serve_stdio, ConnMode};
pub use protocol::{parse_request, ProtocolError, Request, DEFAULT_SEED, MAX_REQUEST_BYTES};
pub use service::{
    CacheStatus, DossierKey, JobOutput, JobSpec, Service, ServiceError, ServiceStats,
};
