//! Forwarding stub: the `serde_json` names the benchmark package
//! (`perf/`) still imports, over the workspace's one JSON codec,
//! [`swim_obs::json`]. It has no parser or printer of its own, and no
//! workspace crate depends on it. ROADMAP item 1's benchmark change
//! deletes it once `perf/` imports `swim_obs::json` directly.

#![warn(missing_docs)]

pub use swim_obs::json::{parse_value, Value};

/// Compact JSON text; never fails.
pub fn to_string(value: &Value) -> Result<String, swim_obs::json::Error> {
    Ok(swim_obs::json::to_string(value))
}

/// Pretty-printed JSON text; never fails.
pub fn to_string_pretty(value: &Value) -> Result<String, swim_obs::json::Error> {
    Ok(swim_obs::json::to_string_pretty(value))
}
