//! Named device configurations for the multi-device front end.
//!
//! A per-cluster estimation service answers matrix and placement queries
//! over *named* simulation targets: the scheduler asks about `"rtx3060"`
//! or `"a100"`, not about raw capacity numbers. The [`DeviceRegistry`]
//! owns that name → [`GpuDevice`] mapping. It is thread-safe (`&self`
//! registration) so a running service can learn about new device types
//! without restarting, and it can be populated from a JSON file — the
//! deployment shape of one service instance per cluster, configured with
//! that cluster's device fleet.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::RwLock;
use xmem_core::EstimateError;
use xmem_runtime::GpuDevice;

const MIB: u64 = 1 << 20;

/// A thread-safe, name-keyed registry of simulation target devices.
///
/// Names are registry keys (`"rtx3060"`), distinct from the device's
/// marketing name (`"GeForce RTX 3060"`). Iteration orders are
/// deterministic (sorted by name), so placement tie-breaks and matrix
/// column orders are stable.
///
/// # Example
///
/// ```
/// use xmem_service::DeviceRegistry;
/// use xmem_runtime::GpuDevice;
///
/// let registry = DeviceRegistry::builtin();
/// assert!(registry.get("rtx3060").is_some());
/// registry.register("lab-a100", GpuDevice::a100_40g());
/// assert_eq!(registry.len(), 4);
/// ```
#[derive(Debug)]
pub struct DeviceRegistry {
    devices: RwLock<BTreeMap<String, GpuDevice>>,
}

impl Clone for DeviceRegistry {
    fn clone(&self) -> Self {
        DeviceRegistry {
            devices: RwLock::new(self.read().clone()),
        }
    }
}

impl Default for DeviceRegistry {
    /// The built-in evaluation devices ([`DeviceRegistry::builtin`]).
    fn default() -> Self {
        DeviceRegistry::builtin()
    }
}

impl DeviceRegistry {
    /// An empty registry.
    #[must_use]
    pub fn empty() -> Self {
        DeviceRegistry {
            devices: RwLock::new(BTreeMap::new()),
        }
    }

    /// The paper's evaluation devices under their CLI names:
    /// `rtx3060`, `rtx4060`, `a100`.
    #[must_use]
    pub fn builtin() -> Self {
        let registry = DeviceRegistry::empty();
        registry.register("rtx3060", GpuDevice::rtx3060());
        registry.register("rtx4060", GpuDevice::rtx4060());
        registry.register("a100", GpuDevice::a100_40g());
        registry
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, GpuDevice>> {
        self.devices.read().expect("device registry poisoned")
    }

    /// Registers (or replaces) `device` under `name`, returning the
    /// previous configuration for that name, if any.
    ///
    /// When replacing a device that an [`EstimationService`] simulates
    /// against, prefer [`EstimationService::register_device`] — it also
    /// retires the old configuration's cached simulation results.
    ///
    /// [`EstimationService`]: crate::EstimationService
    /// [`EstimationService::register_device`]: crate::EstimationService::register_device
    pub fn register(&self, name: impl Into<String>, device: GpuDevice) -> Option<GpuDevice> {
        self.devices
            .write()
            .expect("device registry poisoned")
            .insert(name.into(), device)
    }

    /// The device registered under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<GpuDevice> {
        self.read().get(name).copied()
    }

    /// Resolves every name in `names` to its device, in input order.
    ///
    /// # Errors
    /// [`EstimateError::UnknownDevice`] naming the first unresolvable
    /// entry.
    pub fn resolve(&self, names: &[&str]) -> Result<Vec<GpuDevice>, EstimateError> {
        let devices = self.read();
        names
            .iter()
            .map(|&name| {
                devices
                    .get(name)
                    .copied()
                    .ok_or_else(|| EstimateError::UnknownDevice(name.to_string()))
            })
            .collect()
    }

    /// All registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// All `(name, device)` pairs, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, GpuDevice)> {
        self.read().iter().map(|(n, d)| (n.clone(), *d)).collect()
    }

    /// Runs `f` over every `(name, device)` pair ordered by `(capacity,
    /// name)`, under the registry's read lock, so only the names `f`
    /// copies are cloned. `f` holds off every `register` until it
    /// returns, so keep it short, and it must not call back into the
    /// registry.
    pub(crate) fn with_capacity_order<T>(&self, f: impl FnOnce(&[(&str, GpuDevice)]) -> T) -> T {
        let devices = self.read();
        let mut fleet: Vec<(&str, GpuDevice)> = devices
            .iter()
            .map(|(name, device)| (name.as_str(), *device))
            .collect();
        // Stable: equal capacities keep the map's name order.
        fleet.sort_by_key(|&(_, device)| device.capacity);
        f(&fleet)
    }

    /// Number of registered devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the registry has no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Parses a registry file and registers every device in it on top of
    /// the current contents (same-name entries are replaced). Returns the
    /// number of devices read.
    ///
    /// The format is a JSON object with a `devices` array; sizes are in
    /// MiB, `framework_mib` defaults to 512 and `init_mib` to 0:
    ///
    /// ```json
    /// {
    ///   "devices": [
    ///     {"name": "tiny-l4", "capacity_mib": 6144, "framework_mib": 540},
    ///     {"name": "rtx3060", "capacity_mib": 12288, "framework_mib": 529}
    ///   ]
    /// }
    /// ```
    ///
    /// # Errors
    /// [`RegistryParseError`] for malformed JSON, a missing/empty
    /// `devices` array, or a device whose capacity does not exceed its
    /// framework + tenant overheads.
    pub fn extend_from_json_str(&self, json: &str) -> Result<usize, RegistryParseError> {
        let raw: RawRegistry = serde_json::from_str(json)
            .map_err(|e| RegistryParseError(format!("invalid registry json: {e}")))?;
        if raw.devices.is_empty() {
            return Err(RegistryParseError(
                "registry file lists no devices".to_string(),
            ));
        }
        let parsed: Vec<(String, GpuDevice)> = raw
            .devices
            .into_iter()
            .map(RawDevice::into_device)
            .collect::<Result<_, _>>()?;
        let count = parsed.len();
        for (name, device) in parsed {
            self.register(name, device);
        }
        Ok(count)
    }

    /// A fresh registry parsed from a registry file (see
    /// [`extend_from_json_str`](Self::extend_from_json_str) for the
    /// format).
    ///
    /// # Errors
    /// [`RegistryParseError`] as for `extend_from_json_str`.
    pub fn from_json_str(json: &str) -> Result<Self, RegistryParseError> {
        let registry = DeviceRegistry::empty();
        registry.extend_from_json_str(json)?;
        Ok(registry)
    }
}

/// Failure to parse a device-registry file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryParseError(String);

impl fmt::Display for RegistryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RegistryParseError {}

#[derive(Deserialize)]
struct RawRegistry {
    devices: Vec<RawDevice>,
}

#[derive(Deserialize)]
struct RawDevice {
    name: String,
    capacity_mib: u64,
    #[serde(default)]
    framework_mib: Option<u64>,
    #[serde(default)]
    init_mib: Option<u64>,
}

impl RawDevice {
    fn into_device(self) -> Result<(String, GpuDevice), RegistryParseError> {
        let framework_mib = self.framework_mib.unwrap_or(512);
        let init_mib = self.init_mib.unwrap_or(0);
        // Checked arithmetic end to end: registry files are untrusted
        // input, and a wrapped multiplication would silently register a
        // device with the wrong capacity.
        let oversized = |field: &str| {
            RegistryParseError(format!(
                "device `{}`: {field} does not fit in bytes (u64 overflow)",
                self.name
            ))
        };
        let capacity = self
            .capacity_mib
            .checked_mul(MIB)
            .ok_or_else(|| oversized("capacity_mib"))?;
        let framework_bytes = framework_mib
            .checked_mul(MIB)
            .ok_or_else(|| oversized("framework_mib"))?;
        let init_bytes = init_mib
            .checked_mul(MIB)
            .ok_or_else(|| oversized("init_mib"))?;
        let overhead = framework_bytes
            .checked_add(init_bytes)
            .ok_or_else(|| oversized("framework_mib + init_mib"))?;
        if capacity <= overhead {
            return Err(RegistryParseError(format!(
                "device `{}`: capacity_mib ({}) must exceed framework_mib + init_mib ({})",
                self.name,
                self.capacity_mib,
                framework_mib + init_mib
            )));
        }
        // `GpuDevice::name` is a `&'static str` (the builtin devices carry
        // literal marketing names); registry-file names are interned, so
        // the footprint is bounded by the set of *distinct* names ever
        // loaded — a service re-reading its fleet file on a timer does
        // not grow it, and runaway name churn hits the interner's cap
        // instead of leaking without bound.
        let name = intern_name(&self.name).ok_or_else(|| {
            RegistryParseError(format!(
                "device `{}`: too many distinct device names loaded this \
                 process (cap {MAX_INTERNED_NAMES}); registry names are \
                 expected to be a stable fleet vocabulary, not churned ids",
                self.name
            ))
        })?;
        let device = GpuDevice {
            name,
            capacity,
            framework_bytes,
            init_bytes,
        };
        Ok((self.name, device))
    }
}

/// Bound on distinct registry-file device names interned per process.
/// Names back `GpuDevice::name: &'static str`, so each distinct one is
/// leaked exactly once; the cap turns pathological name churn
/// (timestamped ids fed through a reload loop) into a load error instead
/// of unbounded memory growth. Real fleet vocabularies are tiny.
const MAX_INTERNED_NAMES: usize = 4096;

/// Process-wide name interner: each distinct device name is leaked
/// exactly once and reused on every later load. Returns `None` once
/// [`MAX_INTERNED_NAMES`] distinct names have been interned.
fn intern_name(name: &str) -> Option<&'static str> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut table = INTERNED
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("name intern table poisoned");
    if let Some(&interned) = table.get(name) {
        return Some(interned);
    }
    if table.len() >= MAX_INTERNED_NAMES {
        return None;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.insert(name.to_string(), leaked);
    Some(leaked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_devices_resolve_by_cli_name() {
        let registry = DeviceRegistry::builtin();
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.get("rtx3060"), Some(GpuDevice::rtx3060()));
        assert_eq!(registry.get("a100"), Some(GpuDevice::a100_40g()));
        assert_eq!(registry.names(), vec!["a100", "rtx3060", "rtx4060"]);
    }

    #[test]
    fn resolve_reports_the_unknown_name() {
        let registry = DeviceRegistry::builtin();
        let resolved = registry.resolve(&["rtx3060", "nope"]);
        assert_eq!(
            resolved,
            Err(EstimateError::UnknownDevice("nope".to_string()))
        );
        let ok = registry.resolve(&["rtx4060", "rtx3060"]).unwrap();
        assert_eq!(ok[0], GpuDevice::rtx4060());
        assert_eq!(ok[1], GpuDevice::rtx3060());
    }

    #[test]
    fn register_replaces_and_returns_the_old_config() {
        let registry = DeviceRegistry::builtin();
        let replaced = registry.register("rtx3060", GpuDevice::a100_40g());
        assert_eq!(replaced, Some(GpuDevice::rtx3060()));
        assert_eq!(registry.get("rtx3060"), Some(GpuDevice::a100_40g()));
    }

    #[test]
    fn registry_file_parses_with_defaults() {
        let json = r#"{
            "devices": [
                {"name": "tiny-l4", "capacity_mib": 6144, "framework_mib": 540},
                {"name": "shared-a10", "capacity_mib": 24576, "init_mib": 2048}
            ]
        }"#;
        let registry = DeviceRegistry::from_json_str(json).unwrap();
        assert_eq!(registry.len(), 2);
        let l4 = registry.get("tiny-l4").unwrap();
        assert_eq!(l4.capacity, 6144 * MIB);
        assert_eq!(l4.framework_bytes, 540 * MIB);
        assert_eq!(l4.init_bytes, 0);
        assert_eq!(l4.name, "tiny-l4");
        let a10 = registry.get("shared-a10").unwrap();
        assert_eq!(a10.framework_bytes, 512 * MIB, "framework defaults");
        assert_eq!(a10.init_bytes, 2048 * MIB);
    }

    #[test]
    fn registry_file_rejects_impossible_capacity() {
        let json = r#"{"devices": [{"name": "bad", "capacity_mib": 100}]}"#;
        let err = DeviceRegistry::from_json_str(json).unwrap_err();
        assert!(err.to_string().contains("bad"), "{err}");
        assert!(DeviceRegistry::from_json_str("{}").is_err());
        assert!(DeviceRegistry::from_json_str(r#"{"devices": []}"#).is_err());
    }

    #[test]
    fn registry_file_rejects_byte_overflow_instead_of_wrapping() {
        // 2^44 + 6144 MiB wraps modulo 2^64 when multiplied by MiB; it
        // must be rejected, not registered as a ~6 GiB card.
        let json = r#"{"devices": [{"name": "huge", "capacity_mib": 17592186050688}]}"#;
        let err = DeviceRegistry::from_json_str(json).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        let json = r#"{"devices": [{"name": "huge", "capacity_mib": 4096, "framework_mib": 18446744073709551615}]}"#;
        assert!(DeviceRegistry::from_json_str(json).is_err());
    }

    #[test]
    fn extend_merges_over_builtins() {
        let registry = DeviceRegistry::builtin();
        let json = r#"{"devices": [{"name": "rtx3060", "capacity_mib": 24576}]}"#;
        assert_eq!(registry.extend_from_json_str(json).unwrap(), 1);
        assert_eq!(registry.len(), 3, "replaced, not appended");
        assert_eq!(registry.get("rtx3060").unwrap().capacity, 24576 * MIB);
    }

    #[test]
    fn reloading_a_fleet_file_reuses_interned_names() {
        let json = r#"{"devices": [{"name": "reload-me", "capacity_mib": 8192}]}"#;
        let registry = DeviceRegistry::empty();
        registry.extend_from_json_str(json).unwrap();
        let first = registry.get("reload-me").unwrap().name;
        registry.extend_from_json_str(json).unwrap();
        let second = registry.get("reload-me").unwrap().name;
        assert!(
            std::ptr::eq(first, second),
            "repeated loads must reuse the interned name, not leak a new one"
        );
    }

    #[test]
    fn clones_are_independent_snapshots() {
        let registry = DeviceRegistry::builtin();
        let cloned = registry.clone();
        registry.register("extra", GpuDevice::a100_40g());
        assert_eq!(registry.len(), 4);
        assert_eq!(cloned.len(), 3);
    }
}
