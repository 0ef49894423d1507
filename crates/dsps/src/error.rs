//! Error types for the stream processing runtime.

use std::fmt;

/// Errors produced by the stream processing runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum DspsError {
    /// A component name was declared twice.
    DuplicateComponent(String),
    /// A subscription referenced an unknown component.
    UnknownComponent(String),
    /// The topology graph has a cycle.
    Cycle {
        /// A component on the cycle.
        involving: String,
    },
    /// A component was declared with impossible parallelism.
    InvalidParallelism {
        /// The component.
        component: String,
        /// What went wrong.
        reason: String,
    },
    /// The topology has no spout, or a bolt has no subscription.
    InvalidTopology {
        /// What went wrong.
        reason: String,
    },
    /// The cluster was configured with impossible parameters.
    InvalidCluster {
        /// What went wrong.
        reason: String,
    },
    /// Not enough worker slots for the requested workers.
    InsufficientSlots {
        /// Workers requested.
        requested: usize,
        /// Slots available.
        available: usize,
    },
    /// A task panicked at runtime.
    TaskPanicked {
        /// The component.
        component: String,
        /// The task index.
        task: usize,
        /// The panic message.
        reason: String,
    },
    /// A supervised task kept panicking after exhausting its restart
    /// budget ([`ReliabilityConfig::max_task_restarts`](crate::runtime::ReliabilityConfig)).
    TaskRestartsExhausted {
        /// The component.
        component: String,
        /// The task index.
        task: usize,
        /// Restarts attempted before giving up.
        restarts: u32,
        /// The final panic message.
        reason: String,
    },
    /// The OS refused to start an executor thread.
    ExecutorSpawn {
        /// The component the executor runs.
        component: String,
        /// Its first task's index.
        task: usize,
        /// The OS error text.
        reason: String,
    },
    /// A durable state store failed an I/O operation
    /// ([`durability`](crate::durability)).
    Durability {
        /// The file or directory involved.
        path: String,
        /// Operation and OS error text.
        reason: String,
    },
    /// The metrics exposition endpoint could not bind its socket
    /// ([`MonitorConfig::expose`](crate::metrics::MonitorConfig)).
    ExpositionBind {
        /// The requested loopback port (0 = ephemeral).
        port: u16,
        /// The OS error text.
        reason: String,
    },
    /// A wire frame failed validation (bad length, checksum mismatch,
    /// unknown tag or truncated payload) — see
    /// [`transport`](crate::transport).
    Frame {
        /// What went wrong.
        reason: String,
    },
    /// XML topology text failed to parse.
    XmlParse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// XML topology was well-formed but semantically invalid.
    XmlInvalid {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for DspsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspsError::DuplicateComponent(c) => write!(f, "duplicate component: {c}"),
            DspsError::UnknownComponent(c) => write!(f, "unknown component: {c}"),
            DspsError::Cycle { involving } => {
                write!(f, "topology contains a cycle involving {involving}")
            }
            DspsError::InvalidParallelism { component, reason } => {
                write!(f, "invalid parallelism for {component}: {reason}")
            }
            DspsError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
            DspsError::InvalidCluster { reason } => write!(f, "invalid cluster: {reason}"),
            DspsError::InsufficientSlots { requested, available } => {
                write!(f, "requested {requested} workers but only {available} slots exist")
            }
            DspsError::TaskPanicked { component, task, reason } => {
                write!(f, "task {component}[{task}] panicked: {reason}")
            }
            DspsError::TaskRestartsExhausted { component, task, restarts, reason } => {
                write!(
                    f,
                    "task {component}[{task}] still panicking after {restarts} restarts: {reason}"
                )
            }
            DspsError::ExecutorSpawn { component, task, reason } => {
                write!(f, "could not start the executor of {component}[{task}]: {reason}")
            }
            DspsError::Durability { path, reason } => {
                write!(f, "durable state store failed at {path}: {reason}")
            }
            DspsError::ExpositionBind { port, reason } => {
                write!(f, "failed to bind metrics endpoint on 127.0.0.1:{port}: {reason}")
            }
            DspsError::Frame { reason } => write!(f, "invalid wire frame: {reason}"),
            DspsError::XmlParse { line, reason } => {
                write!(f, "XML parse error at line {line}: {reason}")
            }
            DspsError::XmlInvalid { reason } => write!(f, "invalid XML topology: {reason}"),
        }
    }
}

impl std::error::Error for DspsError {}
