//! SGX enclave exfiltration attacks (paper §VIII).
//!
//! The sender runs *inside* an enclave and modulates frontend paths; the
//! receiver decodes from outside. Two settings:
//!
//! * **non-MT** (§VIII-2): the receiver triggers the enclave and times the
//!   whole call (one `EENTER`/`EEXIT` per bit); the signal is the sender's
//!   internal interference, so it survives disabled hyper-threading.
//! * **MT** (§VIII-1): the sender thread stays inside the enclave and
//!   encodes continuously; the receiver on the sibling thread times its own
//!   loop, observing DSB partitioning and evictions.

use leaky_cpu::{Core, ProcessorModel, ThreadWork};
use leaky_frontend::ThreadId;
use leaky_isa::{BlockChain, FrontendGeometry};
use leaky_sgx::Enclave;
use leaky_stats::ThresholdDecoder;

use crate::channels::non_mt::NonMtKind;
use crate::channels::{calibrate_decoder, eviction_layout, misalignment_layout};
use crate::params::{ChannelParams, EncodeMode};
use crate::run::ChannelRun;

const CALIBRATION_BITS: usize = 16;

/// Errors from SGX attack construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgxAttackError {
    /// The processor lacks SGX (Gold 6226 in Table I).
    NoSgx {
        /// Model name.
        model: &'static str,
    },
    /// MT attack requested on a machine with hyper-threading disabled.
    NoSmt {
        /// Model name.
        model: &'static str,
    },
}

impl std::fmt::Display for SgxAttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgxAttackError::NoSgx { model } => write!(f, "{model} has no SGX support"),
            SgxAttackError::NoSmt { model } => {
                write!(f, "{model} has hyper-threading disabled")
            }
        }
    }
}

impl std::error::Error for SgxAttackError {}

/// Non-MT SGX covert channel (§VIII-2): one enclave entry and exit per bit,
/// timed from outside.
#[derive(Debug, Clone)]
pub struct SgxNonMtChannel {
    core: Core,
    enclave: Enclave,
    params: ChannelParams,
    mode: EncodeMode,
    recv: BlockChain,
    send_one: BlockChain,
    send_zero: BlockChain,
    decoder: Option<ThresholdDecoder>,
}

impl SgxNonMtChannel {
    /// Builds the channel.
    ///
    /// # Errors
    ///
    /// Returns [`SgxAttackError::NoSgx`] for non-SGX processors.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(
        model: ProcessorModel,
        kind: NonMtKind,
        mode: EncodeMode,
        params: ChannelParams,
        seed: u64,
    ) -> Result<Self, SgxAttackError> {
        if !model.sgx {
            return Err(SgxAttackError::NoSgx { model: model.name });
        }
        let geom = FrontendGeometry::skylake();
        params.validate(geom.dsb_ways, kind == NonMtKind::Misalignment);
        let (recv, send_one, send_zero) = match kind {
            NonMtKind::Eviction => {
                let l = eviction_layout(&params, &geom);
                (l.recv, l.send_one, l.send_zero)
            }
            NonMtKind::Misalignment => {
                let l = misalignment_layout(&params, &geom);
                (l.recv, l.send_one, l.send_zero)
            }
        };
        Ok(SgxNonMtChannel {
            core: Core::new(model, seed),
            enclave: Enclave::default(),
            params,
            mode,
            recv,
            send_one,
            send_zero,
            decoder: None,
        })
    }

    /// Times one whole enclave call that runs `p` Init/Encode/Decode rounds
    /// for bit `m` inside.
    fn measure_bit(&mut self, m: bool) -> f64 {
        let tid = ThreadId::T0;
        let t0 = self.core.rdtscp(tid);
        let recv = &self.recv;
        let send_one = &self.send_one;
        let send_zero = &self.send_zero;
        let rounds = self.params.p;
        let mode = self.mode;
        self.enclave.call(&mut self.core, tid, |core, tid| {
            // Simulate a prefix exactly, then fast-forward the steady tail
            // (the enclave body repeats identical rounds).
            let warm = 24u64.min(rounds);
            let mut last_cycles = 0.0;
            let mut last_report = leaky_frontend::IterationReport::default();
            for _ in 0..warm {
                let a = core.run_once(tid, recv);
                let b = if m {
                    Some(core.run_once(tid, send_one))
                } else if mode == EncodeMode::Stealthy {
                    Some(core.run_once(tid, send_zero))
                } else {
                    None
                };
                let c = core.run_once(tid, recv);
                last_cycles = a.cycles + b.as_ref().map_or(0.0, |x| x.cycles) + c.cycles;
                last_report =
                    a.report + b.as_ref().map_or_else(Default::default, |x| x.report) + c.report;
            }
            if rounds > warm {
                let round = leaky_cpu::LoopRun {
                    cycles: last_cycles,
                    iterations: 1,
                    report: last_report,
                };
                core.replay(tid, &round, rounds - warm);
            }
        });
        let t1 = self.core.rdtscp(tid);
        t1 - t0
    }

    fn ensure_calibrated(&mut self) {
        if self.decoder.is_some() {
            return;
        }
        for i in 0..4 {
            let _ = self.measure_bit(i % 2 == 1); // cold-start warmup
        }
        let mut samples = Vec::with_capacity(CALIBRATION_BITS);
        for i in 0..CALIBRATION_BITS {
            samples.push(self.measure_bit(i % 2 == 1));
        }
        let mut iter = samples.into_iter();
        self.decoder = Some(calibrate_decoder(
            move |_| iter.next().expect("calibration sample"), // lint: allow(panic-path) — closure is called exactly CALIBRATION_BITS times
            CALIBRATION_BITS,
        ));
    }

    /// Transmits a message out of the enclave.
    ///
    /// # Panics
    ///
    /// Panics if the transmission spans no cycles (`ChannelRun::new`);
    /// a calibrated channel never produces one.
    pub fn transmit(&mut self, message: &[bool]) -> ChannelRun {
        self.ensure_calibrated();
        let decoder = self.decoder.expect("calibrated above"); // lint: allow(panic-path) — set by ensure_calibrated on the previous line
        let start = self.core.clock(ThreadId::T0);
        let received: Vec<bool> = message
            .iter()
            .map(|&bit| decoder.decode(self.measure_bit(bit)))
            .collect();
        let cycles = self.core.clock(ThreadId::T0) - start;
        ChannelRun::new(
            message.to_vec(),
            received,
            cycles,
            self.core.model().freq_hz(),
        )
    }
}

/// Power-based SGX covert channel (§VIII-3, sketched in the paper and
/// implemented here as an extension): even when unprivileged RAPL access is
/// disabled, a *privileged* (malicious-OS) attacker can read the package
/// energy counter around enclave calls — SGX explicitly distrusts the OS,
/// yet leaks through it. One RAPL-bracketed enclave call per bit.
#[derive(Debug, Clone)]
pub struct SgxPowerChannel {
    core: Core,
    enclave: Enclave,
    params: ChannelParams,
    recv: BlockChain,
    send_one: BlockChain,
    send_zero: BlockChain,
    decoder: Option<ThresholdDecoder>,
}

impl SgxPowerChannel {
    /// Builds the channel (stealthy zero-encoding, matching the §VII power
    /// channels).
    ///
    /// # Errors
    ///
    /// Returns [`SgxAttackError::NoSgx`] for non-SGX processors.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(
        model: ProcessorModel,
        kind: NonMtKind,
        params: ChannelParams,
        seed: u64,
    ) -> Result<Self, SgxAttackError> {
        if !model.sgx {
            return Err(SgxAttackError::NoSgx { model: model.name });
        }
        let geom = FrontendGeometry::skylake();
        params.validate(geom.dsb_ways, kind == NonMtKind::Misalignment);
        let (recv, send_one, send_zero) = match kind {
            NonMtKind::Eviction => {
                let l = eviction_layout(&params, &geom);
                (l.recv, l.send_one, l.send_zero)
            }
            NonMtKind::Misalignment => {
                let l = misalignment_layout(&params, &geom);
                (l.recv, l.send_one, l.send_zero)
            }
        };
        Ok(SgxPowerChannel {
            core: Core::new(model, seed),
            enclave: Enclave::default(),
            params,
            recv,
            send_one,
            send_zero,
            decoder: None,
        })
    }

    /// One bit: RAPL-bracketed whole-enclave execution of `p` rounds.
    fn measure_bit(&mut self, m: bool) -> f64 {
        let tid = ThreadId::T0;
        let e0 = self.core.read_rapl();
        let t0 = self.core.seconds();
        let recv = &self.recv;
        let send_one = &self.send_one;
        let send_zero = &self.send_zero;
        let rounds = self.params.p;
        self.enclave.call(&mut self.core, tid, |core, tid| {
            let warm = 24u64.min(rounds);
            let mut last_cycles = 0.0;
            let mut last_report = leaky_frontend::IterationReport::default();
            for _ in 0..warm {
                let a = core.run_once(tid, recv);
                let b = if m {
                    core.run_once(tid, send_one)
                } else {
                    core.run_once(tid, send_zero)
                };
                let c = core.run_once(tid, recv);
                last_cycles = a.cycles + b.cycles + c.cycles;
                last_report = a.report + b.report + c.report;
            }
            if rounds > warm {
                let round = leaky_cpu::LoopRun {
                    cycles: last_cycles,
                    iterations: 1,
                    report: last_report,
                };
                core.replay(tid, &round, rounds - warm);
            }
        });
        let e1 = self.core.read_rapl();
        let t1 = self.core.seconds();
        let joules = e1.saturating_sub(e0) as f64 * 1e-6;
        joules / (t1 - t0).max(1e-9)
    }

    fn ensure_calibrated(&mut self) {
        if self.decoder.is_some() {
            return;
        }
        for i in 0..4 {
            let _ = self.measure_bit(i % 2 == 1);
        }
        let mut samples = Vec::with_capacity(CALIBRATION_BITS);
        for i in 0..CALIBRATION_BITS {
            samples.push(self.measure_bit(i % 2 == 1));
        }
        let mut iter = samples.into_iter();
        self.decoder = Some(calibrate_decoder(
            move |_| iter.next().expect("calibration sample"), // lint: allow(panic-path) — closure is called exactly CALIBRATION_BITS times
            CALIBRATION_BITS,
        ));
    }

    /// Transmits a message out of the enclave over package power.
    ///
    /// # Panics
    ///
    /// Panics if the transmission spans no cycles (`ChannelRun::new`);
    /// a calibrated channel never produces one.
    pub fn transmit(&mut self, message: &[bool]) -> ChannelRun {
        self.ensure_calibrated();
        let decoder = self.decoder.expect("calibrated above"); // lint: allow(panic-path) — set by ensure_calibrated on the previous line
        let start = self.core.clock(ThreadId::T0);
        let received: Vec<bool> = message
            .iter()
            .map(|&bit| decoder.decode(self.measure_bit(bit)))
            .collect();
        let cycles = self.core.clock(ThreadId::T0) - start;
        ChannelRun::new(
            message.to_vec(),
            received,
            cycles,
            self.core.model().freq_hz(),
        )
    }
}

/// MT SGX covert channel (§VIII-1): the sender encodes from inside the
/// enclave on the sibling thread; the receiver times its own loop.
#[derive(Debug, Clone)]
pub struct SgxMtChannel {
    core: Core,
    enclave: Enclave,
    params: ChannelParams,
    recv: BlockChain,
    send_one: BlockChain,
    decoder: Option<ThresholdDecoder>,
}

impl SgxMtChannel {
    /// Builds the channel.
    ///
    /// # Errors
    ///
    /// Returns [`SgxAttackError::NoSgx`] or [`SgxAttackError::NoSmt`] when
    /// the processor cannot host the attack.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(
        model: ProcessorModel,
        kind: NonMtKind,
        params: ChannelParams,
        seed: u64,
    ) -> Result<Self, SgxAttackError> {
        if !model.sgx {
            return Err(SgxAttackError::NoSgx { model: model.name });
        }
        if !model.smt_enabled {
            return Err(SgxAttackError::NoSmt { model: model.name });
        }
        let geom = FrontendGeometry::skylake();
        params.validate(geom.dsb_ways, kind == NonMtKind::Misalignment);
        let (recv, send_one) = match kind {
            NonMtKind::Eviction => {
                let l = eviction_layout(&params, &geom);
                (l.recv, l.send_one)
            }
            NonMtKind::Misalignment => {
                let l = misalignment_layout(&params, &geom);
                (l.recv, l.send_one)
            }
        };
        Ok(SgxMtChannel {
            core: Core::new(model, seed),
            enclave: Enclave::default(),
            params,
            recv,
            send_one,
            decoder: None,
        })
    }

    fn measure_bit(&mut self, m: bool) -> f64 {
        let tid = ThreadId::T0;
        let t0 = self.core.rdtscp(tid);
        let p = self.params.p;
        let q = self.params.q;
        if m {
            // The sender enters the enclave on T1 and encodes concurrently,
            // after the enclave transition cost on its thread.
            self.core
                .idle(ThreadId::T1, self.enclave.round_trip_cycles());
            self.core.frontend_mut().flush_thread_state(ThreadId::T1);
            self.core.run_concurrent(
                ThreadWork {
                    chain: &self.recv,
                    iterations: p,
                },
                ThreadWork {
                    chain: &self.send_one,
                    iterations: q,
                },
            );
        } else {
            self.core.run_loop(tid, &self.recv, p);
        }
        let t1 = self.core.rdtscp(tid);
        (t1 - t0).max(1.0) / p as f64
    }

    fn ensure_calibrated(&mut self) {
        if self.decoder.is_some() {
            return;
        }
        for i in 0..4 {
            let _ = self.measure_bit(i % 2 == 1); // cold-start warmup
        }
        let mut samples = Vec::with_capacity(CALIBRATION_BITS);
        for i in 0..CALIBRATION_BITS {
            samples.push(self.measure_bit(i % 2 == 1));
        }
        let mut iter = samples.into_iter();
        self.decoder = Some(calibrate_decoder(
            move |_| iter.next().expect("calibration sample"), // lint: allow(panic-path) — closure is called exactly CALIBRATION_BITS times
            CALIBRATION_BITS,
        ));
    }

    /// Transmits a message out of the enclave via the sibling thread.
    ///
    /// # Panics
    ///
    /// Panics if the transmission spans no cycles (`ChannelRun::new`);
    /// a calibrated channel never produces one.
    pub fn transmit(&mut self, message: &[bool]) -> ChannelRun {
        self.ensure_calibrated();
        let decoder = self.decoder.expect("calibrated above"); // lint: allow(panic-path) — set by ensure_calibrated on the previous line
        let start = self
            .core
            .clock(ThreadId::T0)
            .max(self.core.clock(ThreadId::T1));
        let received: Vec<bool> = message
            .iter()
            .map(|&bit| decoder.decode(self.measure_bit(bit)))
            .collect();
        let end = self
            .core
            .clock(ThreadId::T0)
            .max(self.core.clock(ThreadId::T1));
        ChannelRun::new(
            message.to_vec(),
            received,
            end - start,
            self.core.model().freq_hz(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MessagePattern;

    #[test]
    fn non_sgx_machine_rejected() {
        let err = SgxNonMtChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::sgx_non_mt_defaults(),
            1,
        )
        .unwrap_err();
        assert_eq!(err, SgxAttackError::NoSgx { model: "Gold 6226" });
    }

    #[test]
    fn smt_disabled_rejected_for_mt() {
        let err = SgxMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            ChannelParams::sgx_mt_defaults(),
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SgxAttackError::NoSmt {
                model: "Xeon E-2288G"
            }
        );
    }

    #[test]
    fn non_mt_sgx_eviction_transmits() {
        let mut ch = SgxNonMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::sgx_non_mt_defaults(),
            31,
        )
        .unwrap();
        let msg = MessagePattern::Alternating.generate(24, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.10,
            "SGX non-MT error {:.1}%",
            run.error_rate() * 100.0
        );
        // Table VI: tens of Kbps — two orders below the non-SGX channels.
        assert!(
            run.rate_kbps() > 1.0 && run.rate_kbps() < 300.0,
            "SGX rate {:.1} Kbps",
            run.rate_kbps()
        );
    }

    #[test]
    fn mt_sgx_eviction_transmits() {
        let mut ch = SgxMtChannel::new(
            ProcessorModel::xeon_e2174g(),
            NonMtKind::Eviction,
            ChannelParams::sgx_mt_defaults(),
            37,
        )
        .unwrap();
        let msg = MessagePattern::Alternating.generate(16, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.25,
            "SGX MT error {:.1}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn mt_one_bit_replays_most_of_its_iterations() {
        // One §VIII MT eviction 1-bit: the receiver's p = 10 000
        // iterations against the sender's q = 1 000. Once the sender is
        // done the receiver loops alone at a frontend fixed point, so
        // `run_concurrent` must replay most iterations rather than
        // simulate them (this bit replays 9 884 of its 11 000). A
        // fixed-point test that grew too strict would keep every output
        // byte and only lose the speed; this catches it.
        let mut ch = SgxMtChannel::new(
            ProcessorModel::xeon_e2174g(),
            NonMtKind::Eviction,
            ChannelParams::sgx_mt_defaults(),
            321,
        )
        .unwrap();
        let _ = ch.measure_bit(false);
        let before = ch.core.replay_stats();
        let _ = ch.measure_bit(true);
        let after = ch.core.replay_stats();
        let simulated = after.simulated - before.simulated;
        let replayed = after.replayed - before.replayed;
        assert_eq!(simulated + replayed, 11_000);
        assert!(
            replayed * 10 >= 8 * 11_000,
            "replayed {replayed} of 11000 iterations"
        );
    }

    #[test]
    fn sgx_power_channel_leaks_despite_rapl_lockdown() {
        // §VIII-3: the privileged-OS power attack. Slow (power-channel
        // iteration counts) but functional.
        let mut ch = SgxPowerChannel::new(
            ProcessorModel::xeon_e2286g(),
            NonMtKind::Eviction,
            ChannelParams::power_defaults(),
            51,
        )
        .unwrap();
        let msg = MessagePattern::Alternating.generate(16, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.30,
            "SGX power error {:.1}%",
            run.error_rate() * 100.0
        );
        assert!(run.rate_kbps() < 5.0, "power channels are RAPL-limited");
    }

    #[test]
    fn sgx_power_channel_requires_sgx() {
        assert!(SgxPowerChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            ChannelParams::power_defaults(),
            1,
        )
        .is_err());
    }

    #[test]
    fn sgx_slower_than_direct_channel() {
        // Table VI vs Table III: SGX rates are roughly 1/25 – 1/30 of the
        // direct non-MT rates.
        use crate::channels::non_mt::NonMtChannel;
        let msg = MessagePattern::Alternating.generate(24, 0);
        let mut direct = NonMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::eviction_defaults(),
            41,
        );
        let mut sgx = SgxNonMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::sgx_non_mt_defaults(),
            41,
        )
        .unwrap();
        let rd = direct.transmit(&msg);
        let rs = sgx.transmit(&msg);
        let ratio = rd.rate_kbps() / rs.rate_kbps();
        assert!(
            (5.0..=200.0).contains(&ratio),
            "direct/SGX ratio {ratio:.1} (direct {:.1}, sgx {:.1})",
            rd.rate_kbps(),
            rs.rate_kbps()
        );
    }
}
