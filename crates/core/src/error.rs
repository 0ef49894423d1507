//! Error type for the core system, wrapping each substrate's errors.

use std::fmt;

/// Errors produced by the core system.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Spatial substrate error.
    Geo(tms_geo::GeoError),
    /// Storage medium error.
    Storage(tms_storage::StorageError),
    /// Batch layer error.
    Batch(tms_batch::BatchError),
    /// CEP engine error.
    Cep(tms_cep::CepError),
    /// Stream processing runtime error.
    Dsps(tms_dsps::DspsError),
    /// Traffic substrate error.
    Traffic(tms_traffic::TrafficError),
    /// Regression / estimation error.
    Model {
        /// What went wrong.
        reason: String,
    },
    /// Rule specification error.
    Rule {
        /// What went wrong.
        reason: String,
    },
    /// System configuration error.
    Config {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Geo(e) => write!(f, "geo: {e}"),
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Batch(e) => write!(f, "batch: {e}"),
            CoreError::Cep(e) => write!(f, "cep: {e}"),
            CoreError::Dsps(e) => write!(f, "dsps: {e}"),
            CoreError::Traffic(e) => write!(f, "traffic: {e}"),
            CoreError::Model { reason } => write!(f, "estimation model: {reason}"),
            CoreError::Rule { reason } => write!(f, "rule: {reason}"),
            CoreError::Config { reason } => write!(f, "configuration: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Geo(e) => Some(e),
            CoreError::Storage(e) => Some(e),
            CoreError::Batch(e) => Some(e),
            CoreError::Cep(e) => Some(e),
            CoreError::Dsps(e) => Some(e),
            CoreError::Traffic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tms_geo::GeoError> for CoreError {
    fn from(e: tms_geo::GeoError) -> Self {
        CoreError::Geo(e)
    }
}
impl From<tms_storage::StorageError> for CoreError {
    fn from(e: tms_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}
impl From<tms_batch::BatchError> for CoreError {
    fn from(e: tms_batch::BatchError) -> Self {
        CoreError::Batch(e)
    }
}
impl From<tms_cep::CepError> for CoreError {
    fn from(e: tms_cep::CepError) -> Self {
        CoreError::Cep(e)
    }
}
impl From<tms_dsps::DspsError> for CoreError {
    fn from(e: tms_dsps::DspsError) -> Self {
        CoreError::Dsps(e)
    }
}
impl From<tms_traffic::TrafficError> for CoreError {
    fn from(e: tms_traffic::TrafficError) -> Self {
        CoreError::Traffic(e)
    }
}
