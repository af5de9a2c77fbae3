//! Beldi runtime configuration.

use std::fmt;
use std::time::Duration;

/// Which of the paper's three measured systems to run as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full Beldi: exactly-once semantics over the linked DAAL.
    Beldi,
    /// Exactly-once semantics with a write's log entry in a separate
    /// table (the SSF's log) updated via cross-table transactions instead
    /// of a linked DAAL (the comparator in Figs. 13, 16, 25).
    CrossTable,
    /// Raw database/invocation calls, retried as in the logged modes but
    /// never logged (the paper's baseline): a retry re-applies effects
    /// (§2.1), so the crash checks expect violations here.
    Baseline,
}

impl Mode {
    /// The mode's spelling on command lines and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Beldi => "beldi",
            Mode::CrossTable => "cross-table",
            Mode::Baseline => "baseline",
        }
    }

    /// Parses [`Mode::name`]'s spelling (`cross` is accepted for
    /// `cross-table`).
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Beldi, Mode::CrossTable, Mode::Baseline]
            .into_iter()
            .find(|m| m.name() == s || (*m == Mode::CrossTable && s == "cross"))
    }
}

/// Tuning knobs for a [`crate::BeldiEnv`]. Durations are virtual time.
#[derive(Debug, Clone)]
pub struct BeldiConfig {
    /// Which system to run as.
    pub mode: Mode,
    /// Maximum write-log entries per DAAL row (the paper's `N`).
    ///
    /// On DynamoDB this is derived from the 400 KB row cap and the entry
    /// sizes; it is configurable here to drive the row-capacity ablation.
    pub daal_row_capacity: usize,
    /// `T`: the maximum lifetime of an SSF instance (§5), the platform's
    /// execution lease. Every instance still running `T` after its launch
    /// is killed at its next crash probe (a `platform.t_max` crash), a
    /// root retry is refused once `T` has passed since the first attempt,
    /// and the GC recycles an intent `T` after it finished and deletes a
    /// disconnected DAAL row `T` after disconnecting it.
    ///
    /// The lease always binds, so `T` must exceed the run's latency tail:
    /// a healthy instance slower than `T` is killed and its request
    /// fails once its retries run out.
    pub t_max: Duration,
    /// Minimum age of an unfinished intent before the intent collector
    /// re-launches it (the IC's first optimization, §3.3).
    pub ic_restart_delay: Duration,
    /// Period of the IC/GC timer triggers (AWS minimum: 1 minute, §7.2).
    pub collector_period: Duration,
    /// Cache the DAAL tail row id per `(table, key)` so reads and logged
    /// writes of data tables skip the traversal scan, and plain shadow
    /// writes try `HEAD` first (Beldi mode only; `daal::TailCache` has why
    /// a validated hit is sound). It is never authoritative, and disabling
    /// it changes costs, not semantics.
    pub daal_tail_cache: bool,
}

/// Why [`BeldiConfig::validate`] rejected a configuration.
///
/// Each variant names one incoherent combination; `validate` reports
/// the first one it finds (checks run in the order the variants are
/// declared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `daal_row_capacity` was zero: no DAAL row could hold any entry.
    ZeroRowCapacity,
    /// `collector_period` was zero: the timers would fire continuously.
    ZeroCollectorPeriod,
    /// `t_max` was zero: every instance would be killed at launch.
    ZeroLease,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::ZeroRowCapacity => "DAAL row capacity must be at least 1",
            ConfigError::ZeroCollectorPeriod => "collector period must be nonzero",
            ConfigError::ZeroLease => "t_max lease must be nonzero",
        })
    }
}

impl std::error::Error for ConfigError {}

impl BeldiConfig {
    /// Paper-like defaults in Beldi mode.
    pub fn beldi() -> Self {
        BeldiConfig {
            mode: Mode::Beldi,
            daal_row_capacity: 100,
            t_max: Duration::from_secs(60),
            ic_restart_delay: Duration::from_secs(30),
            collector_period: Duration::from_secs(60),
            daal_tail_cache: true,
        }
    }

    /// Defaults in cross-table-transaction mode.
    pub fn cross_table() -> Self {
        BeldiConfig {
            mode: Mode::CrossTable,
            ..BeldiConfig::beldi()
        }
    }

    /// Defaults in baseline mode.
    pub fn baseline() -> Self {
        BeldiConfig {
            mode: Mode::Baseline,
            ..BeldiConfig::beldi()
        }
    }

    /// Defaults for the given mode (the harness-facing dispatch the
    /// benches and the crash explorer share).
    pub fn for_mode(mode: Mode) -> Self {
        match mode {
            Mode::Beldi => BeldiConfig::beldi(),
            Mode::CrossTable => BeldiConfig::cross_table(),
            Mode::Baseline => BeldiConfig::baseline(),
        }
    }

    /// Checks the configuration for incoherent knob combinations and
    /// returns the first violation found.
    ///
    /// The `with_*` setters do not check anything themselves;
    /// [`crate::EnvBuilder::build`] calls this once, so every
    /// configuration is checked however it was assembled.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.daal_row_capacity == 0 {
            return Err(ConfigError::ZeroRowCapacity);
        }
        if self.collector_period.is_zero() {
            return Err(ConfigError::ZeroCollectorPeriod);
        }
        if self.t_max.is_zero() {
            return Err(ConfigError::ZeroLease);
        }
        Ok(())
    }

    /// Sets the DAAL row capacity (the paper's `N`).
    pub fn with_row_capacity(mut self, n: usize) -> Self {
        self.daal_row_capacity = n;
        self
    }

    /// Sets `T`, the maximum instance lifetime.
    pub fn with_t_max(mut self, t: Duration) -> Self {
        self.t_max = t;
        self
    }

    /// Sets the IC restart delay.
    pub fn with_ic_restart_delay(mut self, d: Duration) -> Self {
        self.ic_restart_delay = d;
        self
    }

    /// Sets the collector timer period.
    pub fn with_collector_period(mut self, d: Duration) -> Self {
        self.collector_period = d;
        self
    }

    /// Enables or disables the DAAL tail-row cache (on by default).
    /// Disabling it restores the always-scan read and write paths:
    /// §7.3's "one extra scan per read", which `fig13` and `costs`
    /// reproduce, and the paper's write protocol, whose scan `fig16`
    /// shows growing with an uncollected chain.
    pub fn with_tail_cache(mut self, on: bool) -> Self {
        self.daal_tail_cache = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_presets() {
        assert_eq!(BeldiConfig::beldi().mode, Mode::Beldi);
        assert_eq!(BeldiConfig::cross_table().mode, Mode::CrossTable);
        assert_eq!(BeldiConfig::baseline().mode, Mode::Baseline);
    }

    #[test]
    fn setters_apply() {
        let c = BeldiConfig::beldi()
            .with_row_capacity(7)
            .with_t_max(Duration::from_secs(5))
            .with_ic_restart_delay(Duration::from_secs(1))
            .with_collector_period(Duration::from_secs(2))
            .with_tail_cache(false);
        assert_eq!(c.daal_row_capacity, 7);
        assert_eq!(c.t_max, Duration::from_secs(5));
        assert_eq!(c.ic_restart_delay, Duration::from_secs(1));
        assert_eq!(c.collector_period, Duration::from_secs(2));
        assert!(!c.daal_tail_cache);
    }

    #[test]
    fn mode_names_parse_back() {
        for mode in [Mode::Beldi, Mode::CrossTable, Mode::Baseline] {
            assert_eq!(Mode::parse(mode.name()), Some(mode));
        }
        assert_eq!(Mode::parse("cross"), Some(Mode::CrossTable));
        assert_eq!(Mode::parse("both"), None);
    }

    #[test]
    fn every_mode_preset_validates() {
        for mode in [Mode::Beldi, Mode::CrossTable, Mode::Baseline] {
            BeldiConfig::for_mode(mode)
                .validate()
                .expect("presets must be coherent");
        }
    }

    #[test]
    fn validate_reports_each_incoherent_combination() {
        use ConfigError::*;
        let cases = [
            (BeldiConfig::beldi().with_row_capacity(0), ZeroRowCapacity),
            (
                BeldiConfig::beldi().with_collector_period(Duration::ZERO),
                ZeroCollectorPeriod,
            ),
            (BeldiConfig::beldi().with_t_max(Duration::ZERO), ZeroLease),
        ];
        for (cfg, want) in cases {
            let got = cfg.validate().expect_err("incoherent combo");
            assert_eq!(got, want, "{cfg:?}");
            assert!(!got.to_string().is_empty(), "error must explain itself");
        }
    }

    #[test]
    #[should_panic(expected = "DAAL row capacity must be at least 1")]
    fn env_build_panics_with_the_config_error_text() {
        let _ = crate::BeldiEnv::builder(BeldiConfig::beldi().with_row_capacity(0)).build();
    }
}
